"""Experiment orchestration: single-state threshold reports, randomized
theorem verification sweeps, and the Werner epsilon sweep with CSV
emission."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .entropy import (
    densecoding_threshold,
    linear_entropy,
    teleport_threshold_linear,
    teleport_threshold_vn,
    von_neumann_entropy,
)
from .errors import DimensionMismatch, InvalidParameter, TheoremViolation
from .families import WernerParams, critical_epsilons, werner_purity_closed_form, \
    werner_entropy_closed_form, werner_fef_closed_form
from .fef import (
    VERDICT_MARGIN,
    OptimizerConfig,
    TeleportVerdict,
    fef_certified,
    usable_for_teleportation,
)
from .protocols import densecoding_chi_standard
from .sampling import SamplerSpec, sample
from .states import DensityMatrix, _require_local_dim, state_to_dict


class EntropyVerdict(str, Enum):
    ABOVE = "AboveThreshold"
    BELOW = "BelowThreshold"


@dataclass(frozen=True)
class ThresholdReport:
    """Everything the thresholds say about one state."""

    n: int
    s_vn: float
    s_linear: float
    t_vn: float
    t_linear: float
    densecoding_t: float
    fef_lower: float
    fef_upper: float
    teleport_verdict: TeleportVerdict
    entropy_verdict_teleport: EntropyVerdict
    entropy_verdict_densecoding: EntropyVerdict
    holevo_chi: float

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "s_vn_bits": self.s_vn,
            "s_linear": self.s_linear,
            "t_vn_bits": self.t_vn,
            "t_linear": self.t_linear,
            "densecoding_t_bits": self.densecoding_t,
            "fef_lower": self.fef_lower,
            "fef_upper": self.fef_upper,
            "teleport_verdict": self.teleport_verdict.value,
            "entropy_verdict_teleport": self.entropy_verdict_teleport.value,
            "entropy_verdict_densecoding": self.entropy_verdict_densecoding.value,
            "holevo_chi_bits": self.holevo_chi,
        }


def analyze_rho(rho: DensityMatrix, cfg: OptimizerConfig | None = None) -> ThresholdReport:
    """Full report for an in-memory state.

    Raises ``TheoremViolation`` if the state is simultaneously above the
    entropy threshold and certified usable, which no valid state can be.
    """
    cfg = cfg if cfg is not None else OptimizerConfig()
    n = rho.n
    s_vn = von_neumann_entropy(rho)
    t_vn = teleport_threshold_vn(n)
    dc_t = densecoding_threshold(n)
    bounds = fef_certified(rho, cfg)
    teleport_verdict = usable_for_teleportation(bounds, n)
    entropy_teleport = EntropyVerdict.ABOVE if s_vn > t_vn else EntropyVerdict.BELOW
    entropy_dc = EntropyVerdict.ABOVE if s_vn > dc_t else EntropyVerdict.BELOW
    if (
        entropy_teleport is EntropyVerdict.ABOVE
        and teleport_verdict is TeleportVerdict.USABLE_CERTIFIED
    ):
        raise TheoremViolation(
            f"S = {s_vn:.12f} bits exceeds threshold {t_vn:.12f} yet the "
            f"certified F lower bound is {bounds.lower:.12f} > 1/{n}; "
            f"offending state: {json.dumps(state_to_dict(rho))}"
        )
    return ThresholdReport(
        n=n,
        s_vn=s_vn,
        s_linear=linear_entropy(rho),
        t_vn=t_vn,
        t_linear=teleport_threshold_linear(n),
        densecoding_t=dc_t,
        fef_lower=bounds.lower,
        fef_upper=bounds.upper,
        teleport_verdict=teleport_verdict,
        entropy_verdict_teleport=entropy_teleport,
        entropy_verdict_densecoding=entropy_dc,
        holevo_chi=densecoding_chi_standard(rho),
    )


@dataclass(frozen=True)
class VerificationSummary:
    """Cell counts of {S > T, S <= T} x {F_lower > 1/N + margin, not}."""

    n: int
    samples: int
    sampler_kind: str
    sampler_seed: int
    optimizer_seed: int
    restarts: int
    threshold_bits: float
    fef_margin: float
    s_above_f_above: int
    s_above_f_below: int
    s_below_f_above: int
    s_below_f_below: int
    violations: int
    contrapositive_violations: int

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "samples": self.samples,
            "sampler_kind": self.sampler_kind,
            "sampler_seed": self.sampler_seed,
            "optimizer_seed": self.optimizer_seed,
            "restarts": self.restarts,
            "threshold_bits": self.threshold_bits,
            "fef_margin": self.fef_margin,
            "cells": {
                "s_above_f_above": self.s_above_f_above,
                "s_above_f_below": self.s_above_f_below,
                "s_below_f_above": self.s_below_f_above,
                "s_below_f_below": self.s_below_f_below,
            },
            "violations": self.violations,
            "contrapositive_violations": self.contrapositive_violations,
        }


def _replay(sampler: SamplerSpec, index: int, cfg: OptimizerConfig) -> str:
    return f"replay: sample({sampler!r}, {index}) under {cfg!r}"


def verify_theorem(
    n: int,
    samples: int,
    sampler: SamplerSpec | None = None,
    cfg: OptimizerConfig | None = None,
) -> VerificationSummary:
    """Sample density matrices and check the entropy threshold theorem.

    A sample counts as F above when ``usable_for_teleportation`` certifies
    it usable, the rule ``analyze_rho`` raises on: its F lower bound clears
    1/N + ``VERDICT_MARGIN``.  A violation is a sample with S above the
    threshold that is also F above.  It aborts with ``TheoremViolation``
    carrying the offending state, serialized, and the
    ``sample(spec, index)`` call and optimizer configuration that replay
    it.  ``contrapositive_violations`` is always 0: F above the margin
    with S above the threshold is that same violation.
    """
    n = _require_local_dim(n)
    if samples < 1:
        raise InvalidParameter(f"samples must be >= 1, got {samples}")
    sampler = (
        sampler
        if sampler is not None
        else SamplerSpec(kind="hilbert_schmidt", dim=n * n, seed=0)
    )
    if sampler.dim != n * n:
        raise DimensionMismatch(
            f"sampler dim {sampler.dim} does not match bipartite N={n}"
        )
    cfg = cfg if cfg is not None else OptimizerConfig()
    threshold = teleport_threshold_vn(n)
    cells = [0, 0, 0, 0]  # [S>T & F>, S>T & F<=, S<=T & F>, S<=T & F<=]
    for index in range(samples):
        rho = sample(sampler, index)
        s = von_neumann_entropy(rho)
        bounds = fef_certified(rho, cfg)
        s_above = s > threshold
        f_above = (
            usable_for_teleportation(bounds, n) is TeleportVerdict.USABLE_CERTIFIED
        )
        cells[(0 if s_above else 2) + (0 if f_above else 1)] += 1
        if s_above and f_above:
            raise TheoremViolation(
                f"sample {index}: S = {s:.12f} > {threshold:.12f} with "
                f"F_lower = {bounds.lower:.12f} > 1/{n} + {VERDICT_MARGIN}; "
                f"{_replay(sampler, index, cfg)}; "
                f"offending state: {json.dumps(state_to_dict(rho))}"
            )
    return VerificationSummary(
        n=n,
        samples=samples,
        sampler_kind=sampler.kind,
        sampler_seed=sampler.seed,
        optimizer_seed=cfg.seed,
        restarts=cfg.restarts,
        threshold_bits=threshold,
        fef_margin=VERDICT_MARGIN,
        s_above_f_above=cells[0],
        s_above_f_below=cells[1],
        s_below_f_above=cells[2],
        s_below_f_below=cells[3],
        violations=cells[0],
        contrapositive_violations=0,
    )


@dataclass(frozen=True)
class SweepRow:
    epsilon: float
    s_bits: float
    s_linear: float
    f_closed: float
    chi_bits: float
    f_avg: float
    above_t_vn: bool
    above_t_dc: bool

    def to_dict(self) -> dict:
        return {column: getattr(self, field) for column, field in SWEEP_COLUMNS.items()}


# CSV column and JSON key -> SweepRow field
SWEEP_COLUMNS = {
    "epsilon": "epsilon",
    "S_bits": "s_bits",
    "S_linear": "s_linear",
    "F": "f_closed",
    "chi_bits": "chi_bits",
    "f_avg": "f_avg",
    "above_T_vn": "above_t_vn",
    "above_T_dc": "above_t_dc",
}
CSV_HEADER = ",".join(SWEEP_COLUMNS)


def _werner_row(n: int, eps: float) -> SweepRow:
    params = WernerParams(n, eps)
    s = werner_entropy_closed_form(params)
    f_val = werner_fef_closed_form(params)
    return SweepRow(
        epsilon=eps,
        s_bits=s,
        s_linear=1.0 - werner_purity_closed_form(params),
        f_closed=f_val,
        chi_bits=2.0 * math.log2(n) - s,
        f_avg=(n * f_val + 1.0) / (n + 1.0),
        above_t_vn=s > teleport_threshold_vn(n),
        above_t_dc=s > densecoding_threshold(n),
    )


def sweep_werner(n: int, grid_points: int) -> list[SweepRow]:
    """Uniform epsilon grid on [0, 1] plus the three critical markers."""
    if grid_points < 2:
        raise InvalidParameter(f"grid_points must be >= 2, got {grid_points}")
    crit = critical_epsilons(n)
    eps_values = list(np.linspace(0.0, 1.0, grid_points)) + [
        crit.eps_fef_above,
        crit.eps_entropy_at_teleport_threshold,
        crit.eps_entropy_at_densecoding_threshold,
    ]
    eps_values.sort()
    deduped: list[float] = []
    for eps in eps_values:
        if not deduped or eps - deduped[-1] > 1e-12:
            deduped.append(float(eps))
    return [_werner_row(n, eps) for eps in deduped]


def sweep_csv(rows: list[SweepRow]) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            ",".join(
                str(int(v)) if isinstance(v, bool) else f"{v:.6f}"
                for v in r.to_dict().values()
            )
        )
    return "\n".join(lines) + "\n"
