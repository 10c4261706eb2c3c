"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 input/validation error (a
file that cannot be read or written included), 3 theorem violation.
Each subcommand builds one payload dict.  ``--json`` emits it as JSON
(12 significant digits, sorted keys, byte-identical for identical
seeds); without it the payload prints as a table.
"""

from __future__ import annotations

import argparse
import json
import sys
from enum import Enum

import numpy as np

from .entropy import (
    densecoding_threshold,
    teleport_threshold_linear,
    teleport_threshold_vn,
)
from .errors import (
    NumericalInstability,
    TheoremViolation,
    ValidationError,
)
from .fef import OptimizerConfig, fef_certified
from .protocols import (
    _densecoding_verdict,
    classical_fidelity,
    densecoding_chi_standard,
    teleportation_avg_fidelity_exact,
    teleportation_avg_fidelity_mc,
)
from .reports import analyze_rho, sweep_csv, sweep_werner, verify_theorem
from .sampling import SamplerSpec
from .states import load_state

_SAMPLER_NAMES = {"hs": "hilbert_schmidt", "high-entropy": "high_entropy"}


def _json_ready(value):
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (np.floating, float)):
        return float(format(float(value), ".12g"))
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, (str, int)) or value is None:
        return value
    if isinstance(value, np.ndarray):
        if np.iscomplexobj(value):
            pairs = np.stack([value.real, value.imag], axis=-1)
            return _json_ready(pairs)
        return [_json_ready(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {k: _json_ready(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_ready(v) for v in value]
    raise TypeError(f"cannot serialize {type(value)!r}")


def _emit_json(payload: dict) -> None:
    print(json.dumps(_json_ready(payload), sort_keys=True))


def _table_rows(payload: dict, prefix: str = ""):
    for key, value in payload.items():
        if isinstance(value, dict):
            yield from _table_rows(value, f"{prefix}{key}.")
        elif value is not None and not isinstance(value, (list, np.ndarray)):
            yield f"{prefix}{key}", value


def _print_table(payload: dict) -> None:
    """Plain-text form of a payload: one row per scalar, nested dicts
    under dotted keys, None and array values left out."""
    rows = list(_table_rows(payload))
    width = max(len(k) for k, _ in rows)
    for key, value in rows:
        if isinstance(value, Enum):
            value = value.value
        elif isinstance(value, float):
            # six decimals would print a small margin or gap as zero
            value = f"{value:.6f}" if value == 0 or abs(value) >= 1e-3 else f"{value:.3e}"
        print(f"{key:<{width}}  {value}")


def cmd_thresholds(args) -> dict:
    return {
        "n": args.n,
        "teleport_threshold_vn_bits": teleport_threshold_vn(args.n),
        "teleport_threshold_linear": teleport_threshold_linear(args.n),
        "densecoding_threshold_bits": densecoding_threshold(args.n),
    }


def cmd_analyze(args) -> dict:
    return analyze_rho(load_state(args.file), OptimizerConfig(seed=args.seed)).to_dict()


def cmd_verify(args) -> dict:
    kind = _SAMPLER_NAMES[args.sampler]
    spec = SamplerSpec(
        kind=kind,
        dim=args.n * args.n,
        mix_toward_identity=args.mix if kind == "high_entropy" else None,
        seed=args.seed,
    )
    cfg = OptimizerConfig(seed=args.seed)
    return verify_theorem(args.n, args.samples, spec, cfg).to_dict()


def cmd_sweep(args) -> dict:
    # append mode: an unwritable path fails before any row, a rejected input
    # leaves an old file intact, and a pipe or /dev/null is never truncated
    try:
        with open(args.out, "a", encoding="utf-8") as fh:
            rows = sweep_werner(args.n, args.points)
            if fh.seekable() and fh.tell():
                fh.truncate(0)
            fh.write(sweep_csv(rows))
    except OSError as exc:
        raise ValidationError(f"cannot write {args.out}: {exc}") from exc
    print(f"wrote {len(rows)} rows to {args.out}", file=sys.stderr)
    return {"n": args.n, "rows": [r.to_dict() for r in rows]}


def cmd_fef(args) -> dict:
    rho = load_state(args.file)
    bounds = fef_certified(rho, OptimizerConfig(seed=args.seed))
    return {
        "n": rho.n,
        "lower": bounds.lower,
        "upper": bounds.upper,
        "gap": bounds.gap,
        "converged": bounds.converged,
        "restarts_used": bounds.restarts_used,
        "iterations_total": bounds.iterations_total,
        "best_unitary": bounds.best_unitary,
    }


def cmd_teleport(args) -> dict:
    rho = load_state(args.file)
    if args.mc_samples:
        result = teleportation_avg_fidelity_mc(rho, args.mc_samples, seed=args.seed)
    else:
        result = teleportation_avg_fidelity_exact(rho)
    return {
        "n": rho.n,
        "f_phi": result.f_phi,
        "f_avg_exact": result.f_avg_exact,
        "classical_fidelity": classical_fidelity(rho.n),
        "f_avg_mc": result.f_avg_mc,
        "mc_std_error": result.mc_std_error,
        "n_samples": result.n_samples,
    }


def cmd_densecode(args) -> dict:
    rho = load_state(args.file)
    chi = densecoding_chi_standard(rho)
    return {
        "n": rho.n,
        "holevo_chi_bits": chi,
        "threshold_bits": densecoding_threshold(rho.n),
        "verdict": _densecoding_verdict(chi, rho.n),
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qthresh",
        description=(
            "Entropy thresholds for teleportation and dense coding on "
            "bipartite N x N mixed states."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full threshold report for a state file")
    p.add_argument("file")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify", help="randomized threshold-theorem verification")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--sampler", choices=sorted(_SAMPLER_NAMES), default="hs")
    p.add_argument("--mix", type=float, default=0.9)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="Werner epsilon sweep to CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "fef",
        help="certified singlet-fraction bounds",
        description=(
            "Certified bounds on the singlet fraction F.  F is exact at N = 2.  "
            "For N >= 3 upper is lambda_max and lower is the best overlap "
            "attained by the starts that ran: 16 seeded Haar restarts run "
            "with the spectral start exactly when lambda_max > 1/N + 1e-9; "
            "otherwise lower is the spectral start's."
        ),
    )
    p.add_argument("file")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_fef)

    p = sub.add_parser("teleport", help="teleportation fidelity of a resource")
    p.add_argument("file")
    p.add_argument("--mc-samples", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_teleport)

    p = sub.add_parser("densecode", help="dense-coding Holevo quantity")
    p.add_argument("file")
    p.set_defaults(func=cmd_densecode)

    p = sub.add_parser("thresholds", help="print the closed-form thresholds")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_thresholds)

    for name, command in sub.choices.items():
        command.add_argument("--json", action="store_true", help="emit JSON")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 for --help
        return 0 if exc.code in (0, None) else 1
    try:
        payload = args.func(args)
    except TheoremViolation as exc:
        print(f"theorem violation: {exc}", file=sys.stderr)
        return 3
    except (ValidationError, NumericalInstability) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        _emit_json(payload)
    else:
        _print_table(payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
