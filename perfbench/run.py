"""gjeval benchmark: ``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``.

Run from the root of a source checkout. The package is imported from
``src/`` (nothing to build). The run generates its inputs from ``--seed``,
measures the import time of ``gjeval.cli`` in fresh interpreters, then hands
the op loop to ``worker.py`` in a child process, checks every output, and
prints one JSON object as its last line. ``--trace 0`` reports the end-to-end
metrics, with times scaled to a reference host speed (see hostspeed.py);
``--trace 1`` runs each op untraced and traced and reports the per-layer self
times and counts per pass of the op mix. Full results go to
``.perfbench_out/`` in the checkout. See README.md for metrics and workloads.
"""

from __future__ import annotations

import argparse
import hashlib
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

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import hostspeed  # noqa: E402
import spans  # noqa: E402
from checks import KEEP_FILES, Reference, check_op, load_schemas  # noqa: E402

SETUP_REPEATS = 12
# The host-speed reference for setup_s (see measure_setup): numpy and a set
# of standard-library modules, imported by one fresh interpreter, which
# takes REFERENCE_IMPORT_S on the reference host.
REFERENCE_IMPORT = ("numpy, json, decimal, email.parser, http.client, xml.etree.ElementTree, "
                    "sqlite3, ctypes, unittest, argparse, csv, ssl, asyncio")
REFERENCE_IMPORT_S = 0.15
DEADLINE_S = 170.0
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import {module}; "
    "print(repr(time.perf_counter() - t))"
)

PIPELINE_OPS = (
    ("evaluate_image", ["evaluate", "--pred", "{pred_a}", "--level", "image", "--out", "{out}"]),
    ("evaluate_patient", ["evaluate", "--pred", "{pred_a}", "--level", "patient", "--out", "{out}"]),
    ("evaluate_weighted", ["evaluate", "--pred", "{pred_a}", "--level", "weighted", "--out", "{out}"]),
    ("compare", ["compare", "--pred-a", "{pred_a}", "--pred-b", "{pred_b}", "--out", "{out}"]),
    ("readers", ["readers", "--pred", "{pred_a}", "--readers", "{readers}", "--out", "{out}"]),
    ("kfold", ["kfold", "--pred", "{pred_a}", "--k", "5", "--by", "patient", "--seed", "{seed}",
               "--out", "{out}"]),
)
WORKLOADS = {
    "paper_scale": {"patients": (44, 18, 50), "svg": True},
    "bulk_117k": {"patients": (4400, 1800, 5000), "svg": False},
    "fusion_train": {},
}
WARM_PATIENTS = (8, 6, 9)


def _pipeline_ops(seed: int, svg: bool, prefix: str = "") -> list:
    files = {"pred_a": prefix + "pred_a.csv", "pred_b": prefix + "pred_b.csv",
             "readers": prefix + "readers.csv", "seed": str(seed), "out": "{out}"}
    ops = []
    for name, argv in PIPELINE_OPS:
        argv = [a.format(**files) for a in argv]
        if svg and name == "evaluate_weighted":
            argv.append("--svg")
        ops.append([name, argv])
    return ops


def _fusion_op(seed: int, *extra: str) -> list:
    return ["fusion-demo", *extra, "--seed", str(seed), "--out", "{out}"]


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _import_s(module: str, env: dict) -> float:
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE.format(module=module)], env=env,
                         cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def measure_setup(env: dict) -> list[dict]:
    """Seconds to import gjeval.cli in a fresh interpreter, each paired with
    the seconds another fresh interpreter takes to import REFERENCE_IMPORT
    right after.

    The reference import is the host-speed reference for set-up. Like the
    package's import, it loads numpy's compiled extensions and runs
    module-level Python code in a new process, and the package cannot
    change it. On a shared host both swing together by up to a factor of
    two within seconds, while their ratio holds within a few percent. The
    first pair, which may compile bytecode, is not counted."""
    pairs = []
    for i in range(SETUP_REPEATS + 1):
        pair = {"cli_s": _import_s("gjeval.cli", env),
                "reference_s": _import_s(REFERENCE_IMPORT, env)}
        if i:
            pairs.append(pair)
    return pairs


def machine_facts() -> dict:
    commit = None
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10).stdout.split()
        if len(out) == 2 and Path(out[0]).resolve() == ROOT:
            commit = out[1]
    except (OSError, subprocess.SubprocessError):
        pass  # not a git checkout: source_sha256 still identifies the code
    src = hashlib.sha256()
    for path in sorted((SRC / "gjeval").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_implementation() + " " + platform.python_version(),
        "numpy": np.__version__,
        "commit": commit,
        "source_sha256": src.hexdigest(),
    }


def _failed_ops(ops: list[dict], check_failures: dict[str, list[str]]) -> tuple[int, list[str]]:
    """Count ops that exited non-zero, wrote other bytes than the first op of
    their kind, or whose kind failed the output checks."""
    first: dict[str, dict] = {}
    failed, reasons = 0, []
    for op in ops:
        why = []
        if op["rc"] != 0:
            why.append(f"exit {op['rc']}")
        ref = first.setdefault(op["name"], op["digests"])
        if op["digests"] != ref:
            changed = sorted(k for k in set(ref) | set(op["digests"]) if ref.get(k) != op["digests"].get(k))
            why.append(f"output bytes differ from the first run of {op['name']}: {changed}")
        if check_failures.get(op["name"]):
            why.append("output check failed")
        if why:
            failed += 1
            reasons.append(f"{op['name']} pass {op['pass']}{' traced' if op['traced'] else ''}: "
                           + "; ".join(why))
    return failed, reasons


def layer_metrics(spans_doc: dict, passes: int) -> dict[str, tuple[float, str]]:
    totals = spans.self_times(spans_doc["spans"])
    out = {name: (totals[name] / passes, "s") for name in spans.TIME_METRICS}
    for name in spans.COUNT_METRICS:
        unit = "bytes" if name.endswith("bytes_written") else "count"
        out[name] = (spans_doc["counts"].get(name, 0) / passes, unit)
    return out


def end_to_end(op_s: list[float], setup_s: list[float], peak_rss_kb: int) -> dict:
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
        "op_p50_ms": (1000 * statistics.median(op_s), "ms"),
        "op_p90_ms": (1000 * float(np.percentile(op_s, 90)), "ms"),
        "ops_per_s": (len(op_s) / sum(op_s), "1/s"),
    }


def run(args) -> dict:
    started = time.perf_counter()
    spec = WORKLOADS[args.workload]
    env = _env()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    outdir = ROOT / ".perfbench_out"
    outdir.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=tag + "-", dir=ROOT / ".perfbench_work"))
    try:
        inputs_dir = work / "in"
        ref = None
        if args.workload == "fusion_train":
            inputs = {}
            ops = [["fusion_demo", _fusion_op(args.seed)]]
            warmup = [["warm-fusion_demo", _fusion_op(args.seed, "--epochs", "1")]]
            inputs_dir.mkdir()
        else:
            inputs = gen.generate(inputs_dir, args.seed, spec["patients"])
            gen.generate(inputs_dir / "warm", args.seed + 1, WARM_PATIENTS, images_max=4)
            ref = Reference(inputs_dir / "reference.npz", inputs)
            ops = _pipeline_ops(args.seed, spec["svg"])
            warmup = [["warm-" + n, a] for n, a in _pipeline_ops(args.seed, spec["svg"], "warm/")]

        setup = [] if args.trace else measure_setup(env)

        plan = {
            "ops": ops, "warmup": warmup, "seconds": args.seconds, "trace": bool(args.trace),
            "keep_dir": str(work / "kept"), "keep_files": list(KEEP_FILES),
            "spans_path": str(outdir / f"spans-{tag}.json"),
        }
        (work / "plan.json").write_text(json.dumps(plan))
        budget = DEADLINE_S - (time.perf_counter() - started)
        subprocess.run([sys.executable, str(HERE / "worker.py"), str(work / "plan.json"),
                        str(work / "result.json")], cwd=inputs_dir, env=env, timeout=budget, check=True)
        result = json.loads((work / "result.json").read_text())

        schemas = load_schemas(SRC)
        check_failures = {name: check_op(name, work / "kept" / name, schemas, ref) for name, _ in ops}
        measured = result["ops"]
        failed, reasons = _failed_ops(measured, check_failures)
        reasons += _failed_ops(result["warmup"], {})[1]
        reasons += [f"{name}: {msg}" for name, msgs in check_failures.items() for msg in msgs]

        if args.trace:
            spans_doc = json.loads(Path(plan["spans_path"]).read_text())
            metrics = layer_metrics(spans_doc, result["passes"])
            untraced = [op["wall_s"] for op in measured if not op["traced"]]
            traced = [op["wall_s"] for op in measured if op["traced"]]
            extra = {
                "tracing_overhead_ms_per_op": 1000 * statistics.median(
                    t - u for u, t in zip(untraced, traced)),
                "spans": len(spans_doc["spans"]),
            }
        else:
            wall = [op["wall_s"] for op in measured]
            setup_wall = [p["cli_s"] for p in setup]
            scaled = hostspeed.scale_ops(measured, result["calibration_s"])
            setup_scaled = [REFERENCE_IMPORT_S * p["cli_s"] / p["reference_s"] for p in setup]
            metrics = end_to_end(scaled, setup_scaled, result["peak_rss_kb"])
            extra = {
                "host_factor_ops": sum(scaled) / sum(wall),
                "host_factor_setup": sum(setup_scaled) / sum(setup_wall),
                "unscaled_metrics": {k: v for k, (v, _) in
                                     end_to_end(wall, setup_wall, result["peak_rss_kb"]).items()},
                "setup_import_s": setup,
                "calibration_s": result["calibration_s"],
            }

        per_kind: dict[str, list[float]] = {}
        for op in measured:
            per_kind.setdefault(op["name"] + (" traced" if op["traced"] else ""), []).append(op["wall_s"])
        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "machine": machine_facts(), "inputs": inputs,
            "passes": result["passes"], "loop_s": result["loop_s"],
            "attempted": len(measured), "failed": failed,
            "failures": reasons,
            "op_median_wall_s": {k: statistics.median(v) for k, v in per_kind.items()},
            "op_samples": {k: len(v) for k, v in per_kind.items()},
            "op_wall_s": [[op["name"], op["traced"], op["wall_s"]] for op in measured],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            **extra,
        }
        (outdir / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")
        return record
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "gjeval" / "cli.py").is_file():
        print(f"perfbench: no package source at {SRC / 'gjeval'}; run from a gjeval checkout",
              file=sys.stderr)
        return 2
    try:
        record = run(args)
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"perfbench: run failed: {exc!r}", file=sys.stderr)
        return 1
    for failure in record["failures"]:
        print(f"FAILED {failure}")
    print(f"{record['workload']} seed={record['seed']} passes={record['passes']} "
          f"ops={record['attempted']} failed={record['failed']}")
    for name, m in record["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if args.trace:
        print(f"  tracing overhead = {record['tracing_overhead_ms_per_op']:.3f} ms per op")
    print(json.dumps({
        "correct": record["failed"] == 0 and not record["failures"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
