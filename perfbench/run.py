"""selmix benchmark driver.

    python3 perfbench/run.py --workload ref_k10 --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
After one warm-up operation the driver repeats the workload's operation
until ``--seconds`` have passed and checks every output.  With ``--trace 0``
it reports the end-to-end metrics; with ``--trace 1`` it alternates traced
and untraced operations and reports the per-layer metrics, so tracing never
touches the end-to-end numbers.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it list every metric with its unit and sample count, then
the run's metadata (machine, BLAS build, thread cap, ``src/`` line count,
output digest and every operation time).

Timings are noisy on a small shared machine: neighbours halve the CPU's
speed in phases that last from a second to a minute, and a run's wall times
move with them.  Every timed call is therefore scaled to full-speed seconds
by ``speed.SpeedGauge``, which times a fixed calibration kernel around it
(an operation made of several program calls is scaled call by call);
``run_s``, ``step_us`` and ``setup_s`` are medians of scaled times, and the
raw wall-time quartiles and the host's slowdown are printed next to them.
The process is pinned to one CPU so that the kernel and the call it brackets
run on the same one.

BLAS and OpenMP pools are capped at one thread before numpy is imported:
unpinned OpenBLAS threads spin on the 64x16 matrix products of the SGD
block and make run times swing by half.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
WORKLOAD_NAMES = ("ref_k10", "wide_k100", "sims", "cli_ssl_k10")
SETUP_REPEATS = 5
MIN_SAMPLES = 3
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
                "import selmix; print(time.perf_counter() - t)")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="selmix benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_program(root: Path) -> None:
    """Import selmix from ``root/src``; exit with code 1 when it is not there."""
    src = root / "src"
    if not (src / "selmix" / "__init__.py").is_file():
        sys.exit(f"no program: {src / 'selmix'} is missing (run from the checkout root)")
    sys.path.insert(0, str(src))
    import selmix

    if Path(selmix.__file__).resolve().parent != (src / "selmix").resolve():
        sys.exit(f"selmix was imported from {selmix.__file__}, not from {src}")


def import_seconds(root: Path, gauge) -> tuple[list[float], list[float]]:
    """Wall and full-speed times of ``import selmix`` (numpy included) in
    fresh interpreters."""
    wall, full_speed = [], []
    for _ in range(SETUP_REPEATS):
        probe, _, slowdown = gauge.time(
            subprocess.run, [sys.executable, "-c", IMPORT_PROBE], cwd=root, check=True,
            capture_output=True, text=True, timeout=60)
        wall.append(float(probe.stdout))
        full_speed.append(wall[-1] / slowdown)
    return wall, full_speed


def describe(values: list[float]) -> dict:
    if not values:
        return {"n": 0, "q1": 0.0, "median": 0.0, "q3": 0.0}
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"n": len(values), "q1": q1, "median": median, "q3": q3}


def metadata(root: Path, args, nproc: int) -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):   # numpy without the dict form of show_config
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": nproc,
        "pinned_cpu": min(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "mem_total_mb": round(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "src_lines": sum(len(p.read_bytes().splitlines()) for p in (root / "src").rglob("*.py")),
    }


@dataclass
class Measurement:
    attempted: int = 0
    failed: int = 0
    digest: str | None = None       # outputs of the first checked operation
    wall: list[float] = field(default_factory=list)          # untraced operations
    times: list[float] = field(default_factory=list)         # the same, full-speed
    traced_wall: list[float] = field(default_factory=list)
    traced_times: list[float] = field(default_factory=list)  # full-speed
    step_us: list[float] = field(default_factory=list)       # untraced, full-speed
    psis: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)


def measure(workload, inputs, seconds: float, tracer, gauge) -> Measurement:
    """One warm-up operation, then repeats until ``seconds`` have passed.

    With a tracer, every other repeat is traced.  Each operation's output
    is checked and compared with the first operation's.
    """
    m = Measurement()
    deadline = None
    while True:
        warm_up = deadline is None
        traced = tracer is not None and m.attempted % 2 == 1
        m.attempted += 1
        gc.collect()                    # every repeat starts from a collected heap
        try:
            if traced:
                tracer.phase = "op"
                tracer.install()
            try:
                stopwatch = gauge.stopwatch()
                result = workload.run(inputs, stopwatch)
            finally:
                if traced:
                    tracer.uninstall()
            outcome = workload.check(inputs, result)
        except Exception:               # a failing operation is counted, not fatal
            m.failed += 1
            m.problems.append(traceback.format_exc(limit=3).strip().splitlines()[-1])
            outcome = None
        if outcome is not None:
            if m.digest is None:
                m.digest = outcome.digest
            elif outcome.digest != m.digest:
                outcome.problems.append("outputs differ from the first operation's")
            if outcome.problems:
                m.failed += 1
                m.problems.extend(outcome.problems)
            elif not warm_up:
                m.psis.append(outcome.psi)
                elapsed, full_speed = stopwatch.wall, stopwatch.full_speed
                if traced:
                    m.traced_wall.append(elapsed)
                    m.traced_times.append(full_speed)
                else:
                    m.wall.append(elapsed)
                    m.times.append(full_speed)
                    m.step_us.append(full_speed / outcome.steps * 1e6 if outcome.steps else 0.0)
        if warm_up:
            deadline = perf_counter() + seconds
        elif perf_counter() >= deadline and (
                len(m.times) >= MIN_SAMPLES or m.attempted >= 4 * MIN_SAMPLES):
            return m


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    nproc = len(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    root = Path.cwd()
    import_program(root)

    import workloads
    from speed import SpeedGauge
    from tracing import GAIN_PEAK_K, Tracer, gain_peak_mb

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=root))
    tracer = Tracer() if args.trace else None
    try:
        workload = workloads.make(args.workload, workdir)
        gauge = SpeedGauge(workload.interpreter_share)
        if tracer:
            tracer.install()
        setup_wall, setup_times = [], []
        for _ in range(SETUP_REPEATS):
            inputs = None               # keep one set of inputs alive at a time
            gc.collect()
            inputs, elapsed, slowdown = gauge.time(workload.setup, args.seed)
            setup_wall.append(elapsed)
            setup_times.append(elapsed / slowdown)
        if tracer:
            tracer.uninstall()
        m = measure(workload, inputs, args.seconds, tracer, gauge)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer and any(span[0] == "gain.gain_matrix" for span in tracer.spans):
            peaks = {k: gain_peak_mb(k, args.seed) for k in GAIN_PEAK_K}
        else:
            peaks = {}
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    meta = metadata(root, args, nproc)
    meta.update(interpreter_share=workload.interpreter_share,
                host_slowdown=describe(gauge.slowdowns), history_sha1=m.digest, step_unit=workload.step_unit,
                psi_source=workload.psi_source, fail_ratio=m.failed / m.attempted,
                problems=m.problems[:10], op_wall_s=m.wall, op_s=m.times,
                traced_op_wall_s=m.traced_wall, traced_op_s=m.traced_times,
                setup_op_wall_s=setup_wall, setup_op_s=setup_times)
    if tracer:
        overhead = (statistics.median(m.traced_times) - statistics.median(m.times)
                    if m.traced_times and m.times else 0.0)
        reported = tracer.layer_metrics(m.traced_wall, overhead, peaks)
        for name, (value, unit) in reported.items():
            print(f"{args.workload} {name} = {value:.6g} {unit} "
                  f"(traced operations: {len(m.traced_times)})")
    else:
        import_wall, imports = import_seconds(root, gauge)
        run, step, wall = describe(m.times), describe(m.step_us), describe(m.wall)
        setup = describe([a + b for a, b in zip(sorted(imports), sorted(setup_times))])
        meta.update(import_wall_s=import_wall, import_s=imports)
        reported = {
            "run_s": (run["median"], "s"),
            "step_us": (step["median"], "us"),
            "setup_s": (statistics.median(imports) + statistics.median(setup_times), "s"),
            "peak_mb": (peak_mb, "MB"),
            "final_psi": (statistics.median(m.psis) if m.psis else 0.0, "1"),
            "ok_ratio": ((m.attempted - m.failed) / m.attempted, "1"),
        }
        spread = "full-speed median of n={n}; q1 {q1:.6g}, q3 {q3:.6g}"
        notes = {
            "run_s": spread.format(**run) + "; wall q1 {q1:.6g}, median {median:.6g}, "
                     "q3 {q3:.6g}".format(**wall),
            "step_us": spread.format(**step),
            "setup_s": "full-speed median of n={n} imports plus set-ups; q1 {q1:.6g}, "
                       "q3 {q3:.6g}".format(**setup),
            "peak_mb": "resident-set high-water mark of this process, the speed gauge's "
                       "16 MB of calibration arrays included",
            "final_psi": f"median of n={len(m.psis)}; {workload.psi_source}",
            "ok_ratio": f"{m.attempted - m.failed} of {m.attempted} operations passed their checks",
        }
        for name, (value, unit) in reported.items():
            print(f"{args.workload} {name} = {value:.6g} {unit} ({notes[name]})")
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
