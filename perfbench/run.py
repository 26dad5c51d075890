"""qvint benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload census-ladder --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55 --trace 1

Run it from a checkout that holds `src/qvint`; the program is imported from
there, never from an installed copy.  Each pass over a workload's commands
runs in a fresh interpreter (worker.py), one at a time, so the load comes
from a single process, and BLAS is pinned to BLAS_THREADS threads.
A warm-up interpreter runs first, untimed, so that bytecode compilation
is not counted.

Passes repeat in rounds for about --seconds.  --trace 0 reports the
end-to-end metrics: the median over passes of wall and CPU time of a pass
and of its peak RSS, and the median set-up time (fresh interpreter to
`import qvint` done and seeded inputs written) over every pass and the
set-up-only interpreters that follow each pass.  --trace 1 alternates
untraced and traced passes and reports the per-layer metrics: medians over
traced passes, plus trace.overhead_s (median traced minus median untraced
pass wall time).  The number of commands that failed their oracle, over
the number run, is the error rate; the result line carries both.

Every command's exact output is checked against the oracle in workloads.py.
The last stdout line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; the lines before it repeat each metric with its
unit and sample count, and the run's provenance.  Spans of the last traced
pass and a full result record go to .perfbench_out/ in the checkout.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import COUNT_METRICS, SELF_METRICS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
# Set-up-only interpreters started after each untraced pass.
SETUP_PROBES = 2
# A run must end within 180 s; no interpreter may outlive this budget.
HARD_LIMIT_S = 170.0
# qvint's BLAS calls are on small matrices.  An OpenBLAS pool of nproc threads
# gained nothing there, but it added about 0.07 s (a third) to set-up and
# made set-up depend on whether the other core of the 2-core test machine
# was busy.  One thread keeps the measured process a single thread.
BLAS_THREADS = 1

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER_UNITS = {"census.tuples_per_s": "1/s", "census.image_per_tuple": "ratio",
                   "simulator.amplitude_bytes": "bytes", "cli.report_bytes": "bytes",
                   "trace.overhead_s": "s"}


class HarnessError(Exception):
    """The benchmark itself could not run (as opposed to a failed command)."""


def per_layer_units() -> dict:
    units = {name: "s" for name in SELF_METRICS}
    units.update({name: "count" for name in COUNT_METRICS})
    units.update(PER_LAYER_UNITS)
    return units


def provenance() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "git_sha": None,
        "git_dirty": None,
    }
    if (ROOT / ".git").exists():
        def git(*args):
            return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                                  text=True, timeout=30).stdout.strip()
        info["git_sha"] = git("rev-parse", "HEAD") or None
        info["git_dirty"] = bool(git("status", "--porcelain", "--untracked-files=no"))
    return info


class Runner:
    """Starts worker interpreters for one workload and collects their results."""

    def __init__(self, workload: str, seed: int, workdir: Path, deadline: float):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.deadline = deadline
        threads = str(BLAS_THREADS)
        self.env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                        OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)

    def spawn(self, mode: str) -> dict:
        """Run one worker to completion; returns its result plus timings."""
        argv = [sys.executable, str(HERE / "worker.py"), str(ROOT), self.workload,
                str(self.seed), mode, str(self.workdir)]
        started = time.monotonic()
        try:
            proc = subprocess.run(argv, capture_output=True, text=True, env=self.env,
                                  cwd=ROOT, timeout=max(1.0, self.deadline - started))
        except subprocess.TimeoutExpired:
            raise HarnessError(f"{mode} interpreter ran past the {HARD_LIMIT_S:.0f} s limit")
        if proc.returncode != 0 or not proc.stdout.strip():
            raise HarnessError(f"{mode} interpreter exited with {proc.returncode}: "
                               f"{proc.stderr.strip()[-2000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["setup_s"] = result["t_ready"] - started
        return result


def run_rounds(runner: Runner, modes: tuple, seconds: float) -> list:
    """Repeat rounds of worker modes until `seconds` are about used up.

    A round starts only if, at the mean round time so far, it would end no
    later than a quarter round after `seconds`.  At least one round runs.
    Returns every worker result, in order, tagged with its mode.
    """
    results = []
    started = time.monotonic()
    stop = started + seconds
    rounds = 0
    while True:
        for mode in modes:
            results.append(dict(runner.spawn(mode), mode=mode))
        rounds += 1
        now = time.monotonic()
        if now + 0.75 * (now - started) / rounds > stop:
            return results


def command_tally(passes: list) -> tuple:
    commands = [c for p in passes for c in p["commands"]]
    failures = [f"{c['rung']}: {'; '.join(c['problems'])}" for c in commands if c["problems"]]
    return len(commands), failures


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """One benchmark run of a workload; returns the full result record."""
    runner = Runner(workload, seed, workdir, time.monotonic() + HARD_LIMIT_S)
    runner.spawn("setup")  # warm-up, untimed
    samples = {}
    if trace:
        passes = run_rounds(runner, ("pass", "trace"), seconds)
        plain = [p for p in passes if p["mode"] == "pass"]
        traced = [p for p in passes if p["mode"] == "trace"]
        for name in traced[0]["layers"]:
            samples[name] = [p["layers"][name] for p in traced]
        samples["trace.overhead_s"] = [
            statistics.median(p["wall_s"] for p in traced)
            - statistics.median(p["wall_s"] for p in plain)]
        units = per_layer_units()
    else:
        results = run_rounds(runner, ("pass",) + ("setup",) * SETUP_PROBES, seconds)
        passes = [r for r in results if r["mode"] == "pass"]
        for name in ("wall_s", "cpu_s", "peak_rss_mb"):
            samples[name] = [p[name] for p in passes]
        samples["setup_s"] = [r["setup_s"] for r in results]
        units = END_TO_END
    attempted, failures = command_tally(passes)
    rung_walls = {}
    for p in passes:
        if p["mode"] == "pass":
            for c in p["commands"]:
                rung_walls.setdefault(c["rung"], []).append(c["wall_s"])
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "provenance": provenance(),
        "metrics": {name: {"value": statistics.median(samples[name]), "unit": units[name],
                           "samples": len(samples[name])} for name in units},
        "samples": samples,
        "rung_wall_s": {name: statistics.median(v) for name, v in rung_walls.items()},
        "attempted": attempted,
        "failures": failures,
    }


def summary_line(record: dict) -> dict:
    """The contract's result object: correct, attempted, failed, metrics."""
    return {
        "correct": not record["failures"],
        "attempted": record["attempted"],
        "failed": len(record["failures"]),
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in record["metrics"].items()},
    }


def report(record: dict) -> None:
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"provenance {json.dumps(record['provenance'], sort_keys=True)}")
    for name, m in record["metrics"].items():
        print(f"{record['workload']:>14}  {name:<28} {m['value']:>16.6g} {m['unit']:<6}"
              f" n={m['samples']}")
    error_rate = len(record["failures"]) / record["attempted"]
    print(f"{record['workload']:>14}  {'error_rate':<28} {error_rate:>16.6g} ratio "
          f" n={record['attempted']}")
    for name, wall in record["rung_wall_s"].items():
        print(f"{record['workload']:>14}  rung {name:<40} {wall:>10.4f} s (median)")
    for failure in record["failures"]:
        print(f"{record['workload']:>14}  FAILED {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qvint" / "__init__.py").is_file():
        print(f"no qvint sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    lines = {}
    for workload in workloads:
        workdir = Path(tempfile.mkdtemp(prefix=f"work-{workload}-", dir=OUT))
        try:
            record = measure(workload, args.seed, args.seconds, bool(args.trace), workdir)
            if args.trace:
                shutil.move(workdir / "spans.json",
                            OUT / f"spans-{workload}-seed{args.seed}.json")
        except HarnessError as exc:
            print(f"benchmark could not run {workload}: {exc}", file=sys.stderr)
            return 1
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        name = f"result-{workload}-seed{args.seed}-trace{args.trace}.json"
        (OUT / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        report(record)
        lines[workload] = summary_line(record)
    print(json.dumps(lines[args.workload] if args.workload != "all" else lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
