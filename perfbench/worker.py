"""One pass of a workload in a fresh interpreter; run.py starts this script.

    python3 perfbench/worker.py ROOT WORKLOAD SEED MODE WORKDIR

MODE is `setup` (get ready, report, exit), `pass` (run the workload's
commands untraced) or `trace` (run them under the outside-in tracer and
write its spans to WORKDIR/spans.json).  The last line of stdout is one JSON
object.  `t_ready` is a CLOCK_MONOTONIC stamp (time.monotonic, which every
process on the machine shares) taken once `import qvint` is done and the
seeded inputs are written, so run.py can time set-up from just before it
started this interpreter.
"""

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def run_rung(cli_main, rung, tracer):
    """Run one command through qvint's CLI entry point; time and check it."""
    out, err = io.StringIO(), io.StringIO()
    exit_code = None
    crash = None
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        span = tracer.enter("cli.main") if tracer else None
        try:
            cli_main.main(args=list(rung.args), prog_name="qvint")
        except SystemExit as exc:
            exit_code = 0 if exc.code is None else exc.code
        except Exception as exc:  # a crash is a failed command, not a harness error
            crash = f"{type(exc).__name__}: {exc}"
        finally:
            if tracer:
                tracer.exit(span)
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    text = out.getvalue()
    problems = [f"raised {crash}"] if crash else rung.check(exit_code, text)
    if problems and err.getvalue():
        problems.append("stderr: " + err.getvalue().strip()[-300:])
    if tracer:
        tracer.counts["cli.report_bytes"] += len(text.encode())
    return {"rung": rung.name, "wall_s": wall, "cpu_s": cpu, "problems": problems}


def main(argv):
    root, workload, seed, mode, workdir = argv
    sys.path.insert(0, str(Path(root) / "src"))
    import qvint
    import qvint.cli
    from workloads import WORKLOADS

    workdir = Path(workdir)
    rungs = WORKLOADS[workload](int(seed), workdir)
    t_ready = time.monotonic()
    if mode == "setup":
        print(json.dumps({"t_ready": t_ready}))
        return

    tracer = None
    if mode == "trace":
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer, qvint)
    commands = [run_rung(qvint.cli.main, rung, tracer) for rung in rungs]
    result = {
        "t_ready": t_ready,
        "wall_s": sum(c["wall_s"] for c in commands),
        "cpu_s": sum(c["cpu_s"] for c in commands),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "commands": commands,
    }
    if tracer:
        result["layers"] = tracer.layer_metrics()
        tracer.write_spans(workdir / "spans.json")
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
