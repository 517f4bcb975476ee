"""The process that runs the ops: ``python worker.py PLAN.json RESULT.json``.

Runs from the directory that holds the inputs, with the package on
``PYTHONPATH``. It warms up on small inputs, then calls ``gjeval.cli.main``
in-process, one pass of the workload's op mix after another, until the next
pass would end after ``seconds``. Each op writes into a fresh directory; the
worker records the op's wall time, exit code and the sha256 of every file
it wrote, keeps copies of the files the output checks read, and removes the
rest. Without ``trace`` a ``hostspeed.Sampler`` samples the host speed
throughout the loop. With ``trace`` each op runs twice, untraced then
traced, and the spans are written to ``spans_path`` when the loop ends.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import shutil
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from gen import sha256_file  # noqa: E402
from hostspeed import Sampler  # noqa: E402
from spans import Tracer  # noqa: E402


def _digests(outdir: Path) -> dict[str, str]:
    files = sorted(p for p in outdir.rglob("*") if p.is_file())
    return {p.relative_to(outdir).as_posix(): sha256_file(p) for p in files}


def peak_rss_kb() -> int:
    """High-water resident set of this process, in KiB, since it started.

    ``getrusage``'s ``ru_maxrss`` would not do: Linux carries it across
    exec, so it can hold the memory of the parent that spawned the worker
    (under vfork, all of it, inputs generated there included). ``VmHWM``
    belongs to the address space that exec made, so it starts fresh.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _call(fn, *args):
    """Exit code of ``fn(*args)``; an escaping exception is a failed op, not a crash."""
    try:
        return fn(*args)
    except Exception as exc:  # the op loop must go on and report the failure
        traceback.print_exc()
        return f"{type(exc).__name__}: {exc}"


def main(plan_path: str, result_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    from gjeval import cli

    tracer = Tracer() if plan["trace"] else None

    keep_dir = Path(plan["keep_dir"])
    records = []
    sampler = Sampler()

    def run(name: str, argv: list[str], traced: bool = False, pass_no: int = -1) -> None:
        outdir = Path("out") / name
        shutil.rmtree(outdir, ignore_errors=True)
        argv = [outdir.as_posix() if a == "{out}" else a for a in argv]
        gc.collect()
        if traced:
            tracer.install()
            try:
                start = time.perf_counter()
                rc = _call(tracer.run_op, len(records), cli.main, argv)
                wall = time.perf_counter() - start
            finally:
                tracer.restore()
        else:
            paused = sampler.paused_s
            start = time.perf_counter()
            rc = _call(cli.main, argv)
            wall = time.perf_counter() - start - (sampler.paused_s - paused)
        digests = _digests(outdir) if outdir.is_dir() else {}
        if pass_no >= 0 and not (keep_dir / name).exists():
            (keep_dir / name).mkdir(parents=True)
            for rel in digests:
                if rel in plan["keep_files"]:
                    shutil.copyfile(outdir / rel, keep_dir / name / rel)
        shutil.rmtree(outdir, ignore_errors=True)
        records.append({"name": name, "pass": pass_no, "traced": traced, "start": start,
                        "wall_s": wall, "rc": rc, "digests": digests})

    # The CLI prints a line per file written; send it where a user would not look.
    with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
        for name, argv in plan["warmup"]:
            run(name, argv)
        warm = len(records)

        # Host speed is sampled during untraced runs only, so no span holds handler time.
        with sampler if tracer is None else contextlib.nullcontext():
            t0 = time.perf_counter()
            passes = 0
            while True:
                pass_start = time.perf_counter()
                for name, argv in plan["ops"]:
                    run(name, argv, pass_no=passes)
                    if tracer is not None:
                        run(name, argv, traced=True, pass_no=passes)
                passes += 1
                now = time.perf_counter()
                if now - t0 + (now - pass_start) > plan["seconds"]:
                    break
            loop_s = time.perf_counter() - t0

    result = {
        "warmup": records[:warm],
        "ops": records[warm:],
        "passes": passes,
        "loop_s": loop_s,
        "calibration_s": sampler.samples,
        "peak_rss_kb": peak_rss_kb(),
    }
    if tracer is not None:
        Path(plan["spans_path"]).write_text(json.dumps({
            "spans": tracer.spans,
            "counts": dict(tracer.counts),
        }))
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
