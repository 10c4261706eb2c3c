"""qthresh benchmark runner.

    python3 bench/run.py --workload sweep_n2 --seed 1 --seconds 35 --trace 0

Run from the root of a qthresh checkout; the package is imported from
``src/``.  With ``--trace 0`` it prints the end-to-end metrics, with
``--trace 1`` the per-layer metrics from a traced run (see README.md).
The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it record
the environment and op counts.
"""

import os

# One BLAS thread, pinned before numpy is imported here or in a child.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "qthresh"
SETUP_REPEATS = 5
TAIL_BEYOND = 10  # op_ms_tail is the latency with this many ops above it
PROBE_TIMEOUT_S = 120
TRACE_SLICE_S = 2.0

PROBE = (
    "import time; t0 = time.perf_counter(); import sys; "
    "sys.path[:0] = [{src!r}, {bench!r}]; import workloads; "
    "print(workloads.probe_setup({name!r}, {seed!r}, {workdir!r}, t0))"
)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description="qthresh benchmark")
    parser.add_argument(
        "--workload", required=True, choices=("sweep_n2", "sweep_n3_noisy", "resources")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_build = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_build,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
    }


def probe_setup(name: str, seed: int) -> float:
    """Set-up time of one fresh process (see ``workloads.probe_setup``)."""
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        code = PROBE.format(
            src=str(SRC), bench=str(BENCH_DIR), name=name, seed=seed, workdir=workdir
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
        )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


class Run:
    """Closed loop over one workload: ops run back to back, one client."""

    def __init__(self, workload):
        self.workload = workload
        self.next_op = 0
        self.attempted = 0
        self.failed = 0
        self.undecided = 0

    def _fail(self, j, reasons) -> None:
        self.failed += 1
        print(f"op {j} failed: {'; '.join(reasons)}", file=sys.stderr)

    def run_op(self, j, tracer=None) -> float:
        """Time op ``j``, then check its output; returns the op's seconds."""
        self.attempted += 1
        span = tracer.op(j) if tracer is not None else contextlib.nullcontext()
        start = perf_counter()
        try:
            with span:
                output = self.workload.op(j)
        except Exception:  # a failed op is counted, the loop keeps going
            elapsed = perf_counter() - start
            self._fail(j, [traceback.format_exc()])
            return elapsed
        elapsed = perf_counter() - start
        try:
            failures = self.workload.check(j, output)
            self.undecided += self.workload.undecided(output)
        except (KeyError, TypeError, ValueError):
            failures = [traceback.format_exc()]
        if failures:
            self._fail(j, failures)
        return elapsed

    def measure(self, seconds, tracer=None):
        """Run ops until their summed time reaches ``seconds`` and the
        workload's cycle of inputs is whole; returns (latencies, states)."""
        latencies, states, busy = [], 0, 0.0
        cycle = self.workload.cycle
        while busy < seconds or self.next_op % cycle:
            j = self.next_op
            self.next_op += 1
            latencies.append(self.run_op(j, tracer))
            busy += latencies[-1]
            states += self.workload.states_per_op
        return latencies, states


def tail(latencies):
    """(value, percentile) of the highest latency with TAIL_BEYOND ops above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "qthresh" / "__init__.py").is_file():
        print(f"error: no qthresh package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    OUT.mkdir(parents=True, exist_ok=True)

    setup_times = []
    if not args.trace:
        setup_times = [probe_setup(args.workload, args.seed) for _ in range(SETUP_REPEATS)]

    import workloads
    from tracer import Tracer, layer_metrics

    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        workload = workloads.WORKLOADS[args.workload](args.seed)
        workload.setup(workdir)
        run = Run(workload)
        run.run_op(0)  # warm-up; the first timed op repeats it byte for byte
        if args.trace:
            # Untraced and traced slices alternate, so drift in machine speed
            # falls on both sides of trace_overhead_frac alike.
            plain_lat, plain_states, traced_lat, traced_states = [], 0, [], 0
            tracer = Tracer()
            while sum(plain_lat) + sum(traced_lat) < args.seconds:
                lat, states = run.measure(TRACE_SLICE_S)
                plain_lat += lat
                plain_states += states
                tracer.install()
                try:
                    lat, states = run.measure(TRACE_SLICE_S, tracer)
                finally:
                    tracer.uninstall()
                traced_lat += lat
                traced_states += states
            plain_rate = plain_states / sum(plain_lat)
            traced_rate = traced_states / sum(traced_lat)
            metrics = layer_metrics(tracer, traced_states)
            metrics["protocols.mc_bytes_computed"] = workload.mc_peak_bytes()
            metrics["trace_overhead_frac"] = (plain_rate - traced_rate) / plain_rate
            metrics["undecided_frac"] = run.undecided / run.attempted
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            tracer.write(trace_path)
            print(
                f"# ops: {len(plain_lat)} untraced, {len(traced_lat)} traced; "
                f"{len(tracer.spans)} spans written to {trace_path.relative_to(ROOT)}"
            )
        else:
            latencies, states = run.measure(args.seconds)
            tail_value, tail_pct = tail(latencies)
            metrics = {
                "setup_s": statistics.median(setup_times),
                "states_per_s": states / sum(latencies),
                "op_ms_p50": statistics.median(latencies) * 1e3,
                "op_ms_tail": tail_value * 1e3,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            print(
                f"# ops: {len(latencies)} timed; op_ms_tail is p{tail_pct:.1f} "
                f"({TAIL_BEYOND} ops above it); setup probes (s): "
                + ", ".join(f"{t:.4f}" for t in setup_times)
            )

    print("# env: " + json.dumps(environment(), sort_keys=True))
    units = _units()
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _units() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
