"""Command-line interface.

Commands:
  shares    derive shares and interpolation terms from polynomial coefficients
  simulate  run one protocol variant and print its transcript plus a verdict
  example   reproduce the built-in d=4 reference example; its Monte Carlo draws 10^4 trials
  sweep     check every variant's exact law for every secret over d = 2..8, t = 1..4

--seed (simulate, example) random draws a seed from OS entropy; as --seed N it replays the run.

Each handler returns its output as (text, doc); main alone writes it to stdout, the doc as
one JSON document under --format structured.

Exit codes: 0 success (a "no" verdict is still success), 2 invalid usage or configuration
(including a stdout that cannot be written and a machine out of memory), 3 modular division
impossible (non-invertible denominator), 4 reference-reproduction assertion failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import secrets
import sys
from collections.abc import Sequence

import numpy as np

from .analysis import ReproductionError, published, reproduce_example_d4
from .modmath import NotInvertible, SharePolynomial, gen_shares
from .protocol import DEFAULT_SEED, SONG_ORIGINAL, VARIANTS, ProtocolParams
from .qudit_sim import _check_tol

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NOT_INVERTIBLE = 3
EXIT_REPRODUCTION = 4

SWEEP_D_MAX = 8
SWEEP_T_MAX = 4
SWEEP_TOL = 1e-10


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


def _seed(text: str) -> int:
    """An integer seed, or 'random' for one drawn from OS entropy."""
    try:
        return secrets.randbits(63) if text == "random" else int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected an integer or 'random', got {text!r}") from exc


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quditshare",
        description="Qudit protocol simulator and threshold secret-sharing toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    shares = sub.add_parser("shares", help="derive shares and interpolation terms")
    shares.set_defaults(handler=cmd_shares, s_vector=None)
    shares.add_argument("--d", type=int, required=True, help="modulus")
    shares.add_argument("--secret-coeffs", type=_int_list, required=True, dest="coeffs",
                        help="polynomial coefficients a_0,a_1,... (a_0 is the secret)")
    shares.add_argument("--xs", type=_int_list, required=True,
                        help="abscissae x_1,...,x_n (distinct, nonzero)")

    sim = sub.add_parser("simulate", help="run one protocol variant")
    sim.set_defaults(handler=cmd_simulate)
    sim.add_argument("--variant", choices=tuple(VARIANTS), default=SONG_ORIGINAL)
    sim.add_argument("--d", type=int, required=True, help="modulus / local dimension")
    sim.add_argument("--s-vector", type=_int_list, default=None, dest="s_vector",
                     help="direct term vector s_1,...,s_t")
    sim.add_argument("--secret-coeffs", type=_int_list, default=None, dest="coeffs",
                     help="polynomial coefficients (requires --xs)")
    sim.add_argument("--xs", type=_int_list, default=None, help="abscissae for the polynomial path")

    example = sub.add_parser("example", help="reproduce the built-in d=4 reference example")
    example.set_defaults(handler=cmd_example)

    sweep = sub.add_parser(
        "sweep", help=f"every variant and secret over d = 2..{SWEEP_D_MAX}, t = 1..{SWEEP_T_MAX}")
    sweep.set_defaults(handler=cmd_sweep)

    for p in (shares, sim, example, sweep):
        p.add_argument("--format", dest="fmt", choices=("text", "structured"), default="text",
                       help="plain text or a single JSON document (default: text)")
    for p in (sim, example):  # the commands that draw; shares and sweep draw nothing
        p.add_argument("--seed", type=_seed, default=DEFAULT_SEED,
                       help=f"RNG seed, or 'random' for one from OS entropy (default: {DEFAULT_SEED})")

    return parser


def _published(doc):
    """doc with every float as published() gives it; ints, strings and the shape stay."""
    if isinstance(doc, dict):
        return {key: _published(value) for key, value in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_published(value) for value in doc]
    return published(doc) if isinstance(doc, float) else doc


def _params(args: argparse.Namespace) -> ProtocolParams:
    """The flags as ProtocolParams, which checks them.

    t is the length of the secret source, --s-vector or --secret-coeffs; n is
    the length of --xs on the polynomial path and t otherwise.
    """
    poly = None if args.coeffs is None else SharePolynomial(args.d, args.coeffs)
    return ProtocolParams(d=args.d, t=len(args.s_vector or args.coeffs or ()), polynomial=poly,
                          abscissae=args.xs, s_vector=args.s_vector)


def cmd_shares(args: argparse.Namespace) -> tuple[str, dict]:
    params = _params(args)
    shares = gen_shares(params.polynomial, params.abscissae)
    terms = list(params.share_terms())
    total = sum(terms) % args.d
    lines = [f"d={args.d} t={params.t} n={params.n}"]
    lines.extend(f"share: x={sh.x} y={sh.y}" for sh in shares)
    lines.extend(f"term s_{r} = {s}" for r, s in enumerate(terms, start=1))
    lines.append(f"sum of terms = {total}")
    doc = {
        "d": args.d,
        "t": params.t,
        "n": params.n,
        "shares": [{"x": sh.x, "y": sh.y} for sh in shares],
        "terms": terms,
        "sum": total,
    }
    return "\n".join(lines) + "\n", doc


def cmd_simulate(args: argparse.Namespace) -> tuple[str, dict]:
    transcript = VARIANTS[args.variant].run(_params(args), args.seed)
    verdict = "yes" if transcript.final_outcome == transcript.expected_secret else "no"
    text = transcript.to_text() + f"outcome == secret: {verdict}\n"
    return text, {"transcript": transcript.to_dict(), "verdict": verdict}


def cmd_example(args: argparse.Namespace) -> tuple[str, dict]:
    report = reproduce_example_d4(seed=args.seed)
    return report.to_text(), report.to_dict()


def cmd_sweep(args: argparse.Namespace) -> tuple[str, dict]:
    entries = []
    grid = itertools.product(VARIANTS.values(), range(2, SWEEP_D_MAX + 1), range(1, SWEEP_T_MAX + 1))
    for flow, d, t in grid:
        # A lone measurer on an entangled register sees a uniform outcome;
        # every other flow returns the secret with certainty. The other outcomes
        # share what the secret's closed-form p leaves.
        closed_p = 1.0 / d if not flow.all_measure and not flow.product and t >= 2 else 1.0
        p = []
        for secret in range(d):
            params = ProtocolParams(d=d, t=t, s_vector=(secret,) + (0,) * (t - 1))
            dist = flow.distribution(params).probs
            expected = np.full(d, (1.0 - closed_p) / (d - 1))
            expected[secret] = closed_p
            _check_tol(np.max(np.abs(dist - expected)), SWEEP_TOL,
                       f"{flow.name} d={d} t={t} S={secret}: outcome distribution {dist.tolist()!r} "
                       "deviates from expected: max|error|", ReproductionError)
            p.append(dist[secret])
        entries.append({"variant": flow.name, "d": d, "t": t, "min_p": min(p), "max_p": max(p),
                        "expected": closed_p})
    lines = ["every secret S in Z_d as the split (S, 0, ..., 0); a law depends on the terms "
             "only through their sum mod d, so this covers every term vector",
             f"{'variant':<22}  d  t  {'min_p':<14}  {'max_p':<14}  expected"]
    lines.extend(
        f"{e['variant']:<22} {e['d']:2d} {e['t']:2d}  {e['min_p']:<14.12g}  {e['max_p']:<14.12g}  "
        f"{e['expected']:.12g}" for e in entries
    )
    lines.append("all entries match expected: yes")
    return "\n".join(lines) + "\n", {"entries": entries}


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse already reported the problem
        return int(exc.code or 0)
    try:
        text, doc = args.handler(args)
        sys.stdout.write(json.dumps(_published(doc), indent=2) + "\n" if args.fmt == "structured" else text)
        sys.stdout.flush()
    except OSError as exc:  # only the write and flush above raise it
        print(f"error: cannot write stdout: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NotInvertible as exc:
        print(f"error: modular division impossible: {exc}", file=sys.stderr)
        return EXIT_NOT_INVERTIBLE
    except ReproductionError as exc:
        print(f"error: reference reproduction failed: {exc}", file=sys.stderr)
        return EXIT_REPRODUCTION
    except ValueError as exc:  # every input check
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
