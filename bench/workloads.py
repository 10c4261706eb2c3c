"""The benchmark's workloads: inputs made from a seed, one timed operation,
and the checks on its output.

Every workload is a closed loop with one client.  ``op(j)`` is the timed
call into the public API; ``check(j, output)`` runs afterwards, outside
the timer, and returns the list of failed checks (empty when correct).
An op on an input that an earlier op already ran must also reproduce
that op's output byte for byte.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time
import tracemalloc

import numpy as np

import qthresh as qt
from qthresh import cli

MC_SAMPLES = 100_000
WERNER_EPSILON = 0.5
FEF_CLOSED_FORM_TOL = 1e-6
CHI_TOL = 1e-9


def derived_seed(seed: int, j: int) -> int:
    """Sampler seed of the ``j``-th job of a run with workload seed ``seed``."""
    return int(np.random.SeedSequence([seed, j]).generate_state(1, np.uint64)[0])


class Sweep:
    """Each op is one ``verify_theorem`` job of ``samples`` states."""

    def __init__(self, seed: int, n: int, samples: int, kind: str, mix=None):
        self.seed = seed
        self.n = n
        self.samples = samples
        self.kind = kind
        self.mix = mix
        self.cycle = 1
        self.states_per_op = samples
        self.cfg = qt.OptimizerConfig(restarts=16, seed=0)
        self._first: dict[int, str] = {}

    def setup(self, workdir) -> None:
        del workdir  # sweeps read no files

    def spec(self, j: int) -> qt.SamplerSpec:
        return qt.SamplerSpec(
            self.kind,
            self.n * self.n,
            mix_toward_identity=self.mix,
            seed=derived_seed(self.seed, j),
        )

    def op(self, j: int):
        summary = qt.verify_theorem(self.n, self.samples, self.spec(j), self.cfg)
        return json.dumps(summary.to_dict(), sort_keys=True)

    def undecided(self, output) -> int:
        del output
        return 0

    def mc_peak_bytes(self) -> int:
        return 0

    def check(self, j: int, output: str) -> list[str]:
        failures = _check_repeat(self._first, j, output)
        summary = json.loads(output)
        if summary["samples"] != self.samples:
            failures.append(f"samples {summary['samples']} != {self.samples}")
        if sum(summary["cells"].values()) != self.samples:
            failures.append(f"cells {summary['cells']} do not sum to {self.samples}")
        if summary["violations"] or summary["contrapositive_violations"]:
            failures.append(
                f"violations {summary['violations']}, contrapositive "
                f"{summary['contrapositive_violations']}"
            )
        return failures


def _check_repeat(first: dict, key, output) -> list[str]:
    expected = first.setdefault(key, output)
    if output != expected:
        return [f"output for input {key} is not byte-identical to its first run"]
    return []


def _run_cli(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class Resources:
    """Each op takes one resource file through ``analyze``, ``teleport``
    with Monte Carlo, and ``densecode``, all with ``--json``.

    A cycle is nine files: Hilbert-Schmidt states at N = 2, 4, 8, then
    Werner and extremal-threshold states at N = 4, 6, 8.  Each cycle takes
    the next of ``HS_SETS`` seeded Hilbert-Schmidt triples, so a run
    averages over many random states rather than depending on three.
    """

    HS_DIMS = (2, 4, 8)
    FAMILY_DIMS = (4, 6, 8)
    HS_SETS = 12

    def __init__(self, seed: int):
        self.seed = seed
        self.hs_sets: list[list[dict]] = []
        self.families: list[dict] = []
        self.cycle = len(self.HS_DIMS) + 2 * len(self.FAMILY_DIMS)
        self.states_per_op = 1
        self._first: dict[str, tuple] = {}
        self._mc_ok: dict[str, bool] = {}

    def setup(self, workdir) -> None:
        """Write the resource files; the same seed writes the same bytes."""

        def write(label, rho, werner_f=None):
            path = os.path.join(workdir, f"{label}.json")
            qt.save_state(rho, path)
            return {"path": path, "n": rho.n, "werner_f": werner_f}

        self.hs_sets = [
            [
                write(
                    f"hs{n}-{c}",
                    qt.sample(qt.SamplerSpec("hilbert_schmidt", n * n, seed=self.seed), c),
                )
                for n in self.HS_DIMS
            ]
            for c in range(self.HS_SETS)
        ]
        self.families = []
        for n in self.FAMILY_DIMS:
            params = qt.WernerParams(n, WERNER_EPSILON)
            self.families.append(
                write(f"werner{n}", qt.werner(params), qt.werner_fef_closed_form(params))
            )
            self.families.append(write(f"extremal{n}", qt.extremal_threshold_state(n)))

    def resource(self, j: int) -> dict:
        cycle, slot = divmod(j, self.cycle)
        if slot < len(self.HS_DIMS):
            return self.hs_sets[cycle % self.HS_SETS][slot]
        return self.families[slot - len(self.HS_DIMS)]

    def _argvs(self, path: str, mc_seed: int):
        return (
            ["analyze", path, "--seed", str(self.seed), "--json"],
            ["teleport", path, "--mc-samples", str(MC_SAMPLES), "--seed", str(mc_seed), "--json"],
            ["densecode", path, "--json"],
        )

    def op(self, j: int):
        path = self.resource(j)["path"]
        return tuple(_run_cli(argv) for argv in self._argvs(path, self.seed))

    def undecided(self, output) -> int:
        return int(json.loads(output[0][1])["teleport_verdict"] == "Undecided")

    def check(self, j: int, output) -> list[str]:
        res = self.resource(j)
        failures = []
        for code, stdout, stderr in output:
            if code != 0:
                failures.append(f"exit code {code}: {stderr.strip()}")
        if failures:
            return failures
        try:
            analyze, teleport, densecode = (json.loads(o[1]) for o in output)
        except json.JSONDecodeError as exc:
            return [f"stdout is not JSON: {exc}"]
        key = os.path.basename(res["path"])
        failures += _check_repeat(self._first, key, tuple(o[1] for o in output))
        if not analyze["fef_lower"] <= analyze["fef_upper"]:
            failures.append(
                f"fef_lower {analyze['fef_lower']} > fef_upper {analyze['fef_upper']}"
            )
        if res["werner_f"] is not None and abs(
            analyze["fef_lower"] - res["werner_f"]
        ) > FEF_CLOSED_FORM_TOL:
            failures.append(
                f"Werner fef_lower {analyze['fef_lower']} vs closed form {res['werner_f']}"
            )
        if key not in self._mc_ok:
            self._mc_ok[key] = _mc_within_3_sigma(teleport) or self._mc_retry(res)
        if not self._mc_ok[key]:
            failures.append("Monte Carlo fidelity misses f_avg_exact by > 3 sigma twice")
        log_n = math.log2(res["n"])
        if analyze["s_vn_bits"] > log_n and densecode["holevo_chi_bits"] > log_n + CHI_TOL:
            failures.append(
                f"S = {analyze['s_vn_bits']} > log2 N but chi = "
                f"{densecode['holevo_chi_bits']} > log2 N"
            )
        return failures

    def mc_peak_bytes(self) -> int:
        """Peak bytes live inside one ``teleportation_avg_fidelity_mc`` call
        on the largest resource, from tracemalloc's allocation sizes:
        computed from array sizes, not measured memory traffic."""
        largest = max(self.families, key=lambda r: r["n"])
        rho = qt.load_state(largest["path"])
        tracemalloc.start()
        try:
            qt.teleportation_avg_fidelity_mc(rho, MC_SAMPLES, seed=self.seed)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def _mc_retry(self, res) -> bool:
        """One reseeded retry, as in the acceptance suite: a single 3-sigma
        excursion happens for 0.27% of seeds without any defect."""
        code, stdout, _ = _run_cli(self._argvs(res["path"], self.seed + 1)[1])
        return code == 0 and _mc_within_3_sigma(json.loads(stdout))


def _mc_within_3_sigma(teleport: dict) -> bool:
    return (
        abs(teleport["f_avg_mc"] - teleport["f_avg_exact"])
        <= 3 * teleport["mc_std_error"] + 1e-12
    )


WORKLOADS = {
    "sweep_n2": lambda seed: Sweep(seed, n=2, samples=50, kind="hilbert_schmidt"),
    "sweep_n3_noisy": lambda seed: Sweep(
        seed, n=3, samples=8, kind="high_entropy", mix=0.9
    ),
    "resources": Resources,
}


def probe_setup(name: str, seed: int, workdir: str, t0: float) -> float:
    """Set-up time of a fresh process: from ``t0``, taken before qthresh
    was imported, through input generation to the first checked result."""
    workload = WORKLOADS[name](seed)
    workload.setup(workdir)
    output = workload.op(0)
    failures = workload.check(0, output)
    if failures:
        raise RuntimeError(f"set-up op failed its checks: {failures}")
    return time.perf_counter() - t0
