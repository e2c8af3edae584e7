"""Command-line interface.

Commands:
  shares    derive shares and interpolation terms from polynomial coefficients
  simulate  run one protocol variant and print its transcript plus a verdict
  example   reproduce the built-in d=4 reference example; its Monte Carlo draws 10^4 trials
  sweep     check every variant's exact law for every secret over d = 2..8, t = 1..4

--seed (simulate, example) random draws a seed from OS entropy; as --seed N it replays the run.

Each handler returns one document of plain data, and main publishes every float in it once
(published). Under --format structured main writes that document as JSON; otherwise it writes
the command's text, which the command's renderer builds from the same published document. So
the two formats print the same values, and this module alone knows either.

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

from .analysis import REF_PARAMS, REF_TRIALS, AmplitudeTable, ReproductionError, reproduce_example_d4
from .modmath import NotInvertible, SharePolynomial, gen_shares
from .protocol import DEFAULT_SEED, SONG_ORIGINAL, VARIANTS, ProtocolParams
from .qudit_sim import PRUNE_TOL, _check_tol

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
    shares.set_defaults(handler=cmd_shares, render=render_shares, s_vector=None)
    shares.add_argument("--d", type=int, required=True, help="modulus")
    shares.add_argument("--secret-coeffs", type=_int_list, required=True, dest="coeffs",
                        help="polynomial coefficients a_0,a_1,... (a_0 is the secret)")
    shares.add_argument("--xs", type=_int_list, required=True,
                        help="abscissae x_1,...,x_n (distinct, nonzero)")

    sim = sub.add_parser("simulate", help="run one protocol variant")
    sim.set_defaults(handler=cmd_simulate, render=render_simulate)
    sim.add_argument("--variant", choices=tuple(VARIANTS), default=SONG_ORIGINAL)
    sim.add_argument("--d", type=int, required=True, help="modulus / local dimension")
    sim.add_argument("--s-vector", type=_int_list, default=None, dest="s_vector",
                     help="direct term vector s_1,...,s_t")
    sim.add_argument("--secret-coeffs", type=_int_list, default=None, dest="coeffs",
                     help="polynomial coefficients (requires --xs)")
    sim.add_argument("--xs", type=_int_list, default=None, help="abscissae for the polynomial path")

    example = sub.add_parser("example", help="reproduce the built-in d=4 reference example")
    example.set_defaults(handler=cmd_example, render=render_example)

    sweep = sub.add_parser(
        "sweep", help=f"every variant and secret over d = 2..{SWEEP_D_MAX}, t = 1..{SWEEP_T_MAX}")
    sweep.set_defaults(handler=cmd_sweep, render=render_sweep)

    for p in (shares, sim, example, sweep):
        p.add_argument("--format", dest="fmt", choices=("text", "structured"), default="text",
                       help="plain text or a single JSON document (default: text)")
    for p in (sim, example):  # the commands that draw; shares and sweep draw nothing
        p.add_argument("--seed", type=_seed, default=DEFAULT_SEED,
                       help=f"RNG seed, or 'random' for one from OS entropy (default: {DEFAULT_SEED})")

    return parser


def published(x: float) -> float:
    """x as every output publishes it: 0.0 below PRUNE_TOL (so no -0.0), else 12 significant digits.

    main maps every float of a document through it before either format is
    written, so no published byte rests on how numpy's exp or FFT rounds the
    last bits, and the text's .12g prints exactly the structured value.
    """
    return 0.0 if abs(x) < PRUNE_TOL else float(f"{x:.12g}")


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


def _text(lines: Sequence[str]) -> str:
    return "\n".join(lines) + "\n"


def cmd_shares(args: argparse.Namespace) -> dict:
    params = _params(args)
    shares = gen_shares(params.polynomial, params.abscissae)
    terms = list(params.share_terms())
    return {
        "d": args.d,
        "t": params.t,
        "n": params.n,
        "shares": [{"x": sh.x, "y": sh.y} for sh in shares],
        "terms": terms,
        "sum": sum(terms) % args.d,
    }


def render_shares(doc: dict) -> str:
    return _text([
        f"d={doc['d']} t={doc['t']} n={doc['n']}",
        *(f"share: x={sh['x']} y={sh['y']}" for sh in doc["shares"]),
        *(f"term s_{r} = {s}" for r, s in enumerate(doc["terms"], start=1)),
        f"sum of terms = {doc['sum']}",
    ])


_EVENT_LINES = {
    "qudit_sent": "send: qudit {qudit} from agent {from} to agent {to}",
    "gate_applied": "gate: agent {agent} applies {gate} on qudit {agent}",
    "measured": "measure: agent {agent} measures qudit {agent} in {basis} basis -> {outcome}",
    "announced": "announce: agent {agent} broadcasts {value}",
}


def cmd_simulate(args: argparse.Namespace) -> dict:
    """One run's record, with the events derived from it.

    Agent 1 sends qudit r to agent r, agent r applies U(0,s_r), measurer r reads
    m_r in the Fourier basis and, when the flow announces, broadcasts it.
    """
    flow = VARIANTS[args.variant]
    tr = flow.run(_params(args), args.seed)
    events = [{"type": "qudit_sent", "from": 1, "to": r, "qudit": r} for r in range(2, tr.t + 1)]
    events += [{"type": "gate_applied", "agent": r, "gate": f"U(0,{s_r})", "s": s_r}
               for r, s_r in enumerate(tr.terms, start=1)]
    for r, m_r in enumerate(tr.outcomes, start=1):
        events.append({"type": "measured", "agent": r, "basis": "fourier", "outcome": m_r})
        if flow.all_measure:
            events.append({"type": "announced", "agent": r, "value": m_r})
    transcript = {
        "variant": tr.variant,
        "d": tr.d,
        "t": tr.t,
        "seed": tr.seed,
        "events": events,
        "final_outcome": tr.final_outcome,
        "expected_secret": tr.expected_secret,
    }
    return {"transcript": transcript, "verdict": "yes" if tr.final_outcome == tr.expected_secret else "no"}


def render_simulate(doc: dict) -> str:
    tr = doc["transcript"]
    return _text([
        f"variant: {tr['variant']} d={tr['d']} t={tr['t']} seed={tr['seed']}",
        *(_EVENT_LINES[event["type"]].format_map(event) for event in tr["events"]),
        f"final outcome: {tr['final_outcome']}",
        f"expected secret: {tr['expected_secret']}",
        f"outcome == secret: {doc['verdict']}",
    ])


def _table(table: AmplitudeTable) -> dict:
    return {
        "d": table.d,
        "t": table.t,
        "rows": [[label, re, im] for label, re, im in table.rows],
        "norm_check": table.norm_check,
    }


def _table_lines(title: str, table: dict) -> list[str]:
    rows = table["rows"]
    width = max(len(label) for label, _, _ in rows)
    return [f"{title} ({len(rows)} rows):",
            *(f"  {label:<{width}}  {re:+.12g}{im:+.12g}i" for label, re, im in rows)]


def cmd_example(args: argparse.Namespace) -> dict:
    ref = REF_PARAMS
    report = reproduce_example_d4(seed=args.seed)
    exact_p = report.marginal[ref.expected_secret]
    return {
        "params": {"d": ref.d, "t": ref.t, "secret": ref.expected_secret, "s_split": list(ref.s_vector)},
        "encoded_table": _table(report.encoded_table),
        "transformed_table": _table(report.transformed_table),
        "marginal": list(report.marginal),
        "exact_p": exact_p,
        "mc": {
            "trials": REF_TRIALS,
            "seed": args.seed,
            "estimate": report.mc_estimate,
            "interval95": list(report.mc_interval),
        },
        "verdict": f"outcome uniform over {ref.d} values (exact p = {published(exact_p):.12g}); "
                   "the lone measuring agent cannot recover the secret without announcements",
    }


def render_example(doc: dict) -> str:
    params, mc = doc["params"], doc["mc"]
    lo, hi = mc["interval95"]
    return _text([
        f"reference example: d={params['d']} t={params['t']} secret={params['secret']} "
        f"split={','.join(str(s) for s in params['s_split'])}",
        "",
        *_table_lines("encoded state", doc["encoded_table"]),
        "",
        *_table_lines("after inverse Fourier on qudit 1", doc["transformed_table"]),
        "",
        "marginal of qudit 1: " + " ".join(f"{p:.12g}" for p in doc["marginal"]),
        f"exact success probability: {doc['exact_p']:.12g}",
        f"monte carlo: trials={mc['trials']} seed={mc['seed']} estimate={mc['estimate']:.12g} "
        f"interval95=[{lo:.12g}, {hi:.12g}]",
        f"verdict: {doc['verdict']}",
    ])


def cmd_sweep(args: argparse.Namespace) -> dict:
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
    return {"entries": entries}


def render_sweep(doc: dict) -> str:
    return _text([
        "every secret S in Z_d as the split (S, 0, ..., 0); a law depends on the terms "
        "only through their sum mod d, so this covers every term vector",
        f"{'variant':<22}  d  t  {'min_p':<14}  {'max_p':<14}  expected",
        *(f"{e['variant']:<22} {e['d']:2d} {e['t']:2d}  {e['min_p']:<14.12g}  {e['max_p']:<14.12g}  "
          f"{e['expected']:.12g}" for e in doc["entries"]),
        "all entries match expected: yes",
    ])


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse already reported the problem
        return int(exc.code or 0)
    try:
        doc = _published(args.handler(args))
        sys.stdout.write(json.dumps(doc, indent=2) + "\n" if args.fmt == "structured" else args.render(doc))
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
