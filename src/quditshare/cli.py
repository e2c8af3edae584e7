"""Command-line interface.

Commands:
  shares    derive shares and interpolation terms from polynomial coefficients
  simulate  run one protocol variant and print its transcript plus a verdict
  example   reproduce the built-in d=4 reference example and report statistics
  sweep     tabulate exact success probabilities over a (d, t) grid

Exit codes: 0 success (a "no" verdict is still success), 2 invalid usage or
configuration (including out-of-cap registers, an unwritable --out path and a
QUDITSHARE_SIZE_CAP beyond the machine's memory), 3 modular division impossible
(non-invertible denominator), 4 reference-reproduction assertion failure.
"""

from __future__ import annotations

import argparse
import json
import secrets
import sys
from collections.abc import Sequence
from pathlib import Path

import numpy as np

from .analysis import ReproductionError, reproduce_example_d4
from .modmath import NotInvertible, SharePolynomial, _as_int, gen_shares
from .protocol import DEFAULT_SEED, SONG_ORIGINAL, VARIANTS, ProtocolParams, derived_seed
from .qudit_sim import SIZE_CAP_ENV, _check_tol

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NOT_INVERTIBLE = 3
EXIT_REPRODUCTION = 4

SWEEP_D_MAX = 8
SWEEP_T_MAX = 4
SWEEP_TOL = 1e-10


class ConfigError(ValueError):
    """An --out path that cannot be written."""


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.replace(" ", "").split(",") if part)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", dest="fmt", choices=("text", "structured"), default="text",
                   help="plain text or a single JSON document (default: text)")
    p.add_argument("--out", default=None, help="write output to this path instead of stdout")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"RNG seed (default: fixed constant {DEFAULT_SEED})")
    p.add_argument("--random-seed", action="store_true",
                   help="seed from OS entropy instead of --seed")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quditshare",
        description="Qudit protocol simulator and threshold secret-sharing toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    shares = sub.add_parser("shares", help="derive shares and interpolation terms")
    shares.add_argument("--d", type=int, required=True, help="modulus")
    shares.add_argument("--secret-coeffs", type=_int_list, required=True, dest="coeffs",
                        help="polynomial coefficients a_0,a_1,... (a_0 is the secret)")
    shares.add_argument("--xs", type=_int_list, required=True,
                        help="abscissae x_1,...,x_n (distinct, nonzero)")
    _add_common(shares)

    sim = sub.add_parser("simulate", help="run one protocol variant")
    sim.add_argument("--variant", choices=tuple(VARIANTS), default=SONG_ORIGINAL)
    sim.add_argument("--d", type=int, required=True, help="modulus / local dimension")
    sim.add_argument("--t", type=int, default=None, help="threshold (inferred when omitted)")
    sim.add_argument("--n", type=int, default=None, help="total agents (default: t or len(xs))")
    sim.add_argument("--s-vector", type=_int_list, default=None, dest="s_vector",
                     help="direct term vector s_1,...,s_t")
    sim.add_argument("--secret-coeffs", type=_int_list, default=None, dest="coeffs",
                     help="polynomial coefficients (requires --xs)")
    sim.add_argument("--xs", type=_int_list, default=None, help="abscissae for the polynomial path")
    _add_common(sim)

    example = sub.add_parser("example", help="reproduce the built-in d=4 reference example")
    example.add_argument("--trials", type=int, default=10000, help="Monte-Carlo trials")
    example.add_argument("--s-vector", type=_int_list, default=(3, 0, 0), dest="s_vector",
                         help="phase split s_1,s_2,s_3 summing to 3 mod 4 (default 3,0,0)")
    _add_common(example)

    sweep = sub.add_parser("sweep", help="exact success probabilities over a (d, t) grid")
    sweep.add_argument("--d-max", type=int, default=SWEEP_D_MAX, dest="d_max",
                       help=f"largest modulus, at most {SWEEP_D_MAX}")
    sweep.add_argument("--t-max", type=int, default=SWEEP_T_MAX, dest="t_max",
                       help=f"largest threshold, at most {SWEEP_T_MAX}")
    sweep.add_argument("--variant", choices=tuple(VARIANTS), default=SONG_ORIGINAL)
    _add_common(sweep)

    return parser


def _emit(args: argparse.Namespace, text: str, doc: dict) -> None:
    payload = json.dumps(doc, indent=2) + "\n" if args.fmt == "structured" else text
    if args.out is None:
        sys.stdout.write(payload)
        return
    try:
        Path(args.out).write_text(payload, encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write {args.out}: {exc.strerror or exc}") from exc


def cmd_shares(args: argparse.Namespace) -> int:
    poly = SharePolynomial(args.d, args.coeffs)
    params = ProtocolParams(d=args.d, t=poly.threshold, polynomial=poly, abscissae=args.xs)
    shares = gen_shares(poly, params.abscissae)
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
    _emit(args, "\n".join(lines) + "\n", doc)
    return EXIT_OK


def _simulate_params(args: argparse.Namespace) -> ProtocolParams:
    """The flags as ProtocolParams, which checks them; --t defaults to the secret source's length."""
    poly = None if args.coeffs is None else SharePolynomial(args.d, args.coeffs)
    t = len(args.s_vector or args.coeffs or ()) if args.t is None else args.t
    return ProtocolParams(d=args.d, t=t, n=args.n, polynomial=poly, abscissae=args.xs,
                          s_vector=args.s_vector, seed=args.seed)


def cmd_simulate(args: argparse.Namespace) -> int:
    transcript = VARIANTS[args.variant].run(_simulate_params(args))
    verdict = "yes" if transcript.final_outcome == transcript.expected_secret else "no"
    text = transcript.to_text() + f"outcome == secret: {verdict}\n"
    _emit(args, text, {"transcript": transcript.to_dict(), "verdict": verdict})
    return EXIT_OK


def cmd_example(args: argparse.Namespace) -> int:
    report = reproduce_example_d4(trials=args.trials, seed=args.seed, s_split=args.s_vector)
    _emit(args, report.to_text(), report.to_dict())
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    d_max = _as_int(args.d_max, "--d-max", 2, SWEEP_D_MAX + 1)
    t_max = _as_int(args.t_max, "--t-max", 1, SWEEP_T_MAX + 1)
    flow = VARIANTS[args.variant]
    entries = []
    cell = 0
    for d in range(2, d_max + 1):
        for t in range(1, t_max + 1):
            rng = np.random.default_rng(derived_seed(args.seed, cell))
            cell += 1
            s = tuple(int(v) for v in rng.integers(0, d, size=t))
            params = ProtocolParams(d=d, t=t, s_vector=s, seed=args.seed)
            secret = params.expected_secret
            dist = flow.distribution(params).probs
            # A lone measurer on an entangled register sees a uniform outcome;
            # every other flow returns the secret with certainty.
            if not flow.all_measure and flow.params_for(params).t >= 2:
                expected = np.full(d, 1.0 / d)
            else:
                expected = np.eye(d)[secret]
            _check_tol(np.max(np.abs(dist - expected)), SWEEP_TOL,
                       f"d={d} t={t} s={s}: outcome distribution {dist.tolist()!r} "
                       "deviates from expected: max|error|", ReproductionError)
            entries.append({
                "d": d, "t": t, "s": list(s),
                "p": float(dist[secret]), "expected": float(expected[secret]),
            })
    lines = [f"variant: {args.variant} seed={args.seed}", " d  t  exact_p         expected"]
    lines.extend(
        f"{e['d']:2d} {e['t']:2d}  {e['p']:<14.12g}  {e['expected']:.12g}" for e in entries
    )
    lines.append("all entries match expected: yes")
    doc = {"variant": args.variant, "seed": args.seed, "entries": entries}
    _emit(args, "\n".join(lines) + "\n", doc)
    return EXIT_OK


_COMMANDS = {
    "shares": cmd_shares,
    "simulate": cmd_simulate,
    "example": cmd_example,
    "sweep": cmd_sweep,
}


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse already reported the problem
        return int(exc.code or 0)
    if args.random_seed:
        args.seed = secrets.randbits(63)
    try:
        return _COMMANDS[args.command](args)
    except NotInvertible as exc:
        print(f"error: modular division impossible: {exc}", file=sys.stderr)
        return EXIT_NOT_INVERTIBLE
    except ReproductionError as exc:
        print(f"error: reference reproduction failed: {exc}", file=sys.stderr)
        return EXIT_REPRODUCTION
    except ValueError as exc:  # ConfigError, the size cap and every other input check
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError:
        print(f"error: out of memory; {SIZE_CAP_ENV} allows a register this machine cannot hold",
              file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
