"""Command-line interface: evaluate, compare, readers, kfold, synth, fusion-demo.

Exit codes: 0 success, 1 input error, 2 strict-mode metric degeneracy,
3 training divergence, 4 failed self-check. Each subcommand computes and
checks everything before it opens a file, so a run that fails with exit 1, 2
or 3 writes nothing. ``fusion-demo`` writes all its files before it checks
the gradients, so a run that exits 4 keeps them for diagnosis. The curve
CSVs are formatted as they are written, a block of rows at a time; every
other file is written whole. On Linux with two CPUs or more, a report whose
curve sets hold at least ``FORK_MIN_POINTS`` ROC points has its micro set
(``roc_micro.csv``, ``pr_micro.csv``) written by a forked second process
while this one writes the other files, and a predictions file of at least
``data.FORK_MIN_CHARS`` characters without quotes or CRs has the second half
of its rows parsed by one while this one parses the first. The bytes and
exit codes are the same, and an error in either process gives the same
single ``gjeval: input error: …`` line and exit 1 as one process would; so
does a second process that dies. A write that fails part-way leaves the files
written before it, a truncated curve file, and any files already in
``--out``. Outputs are byte-identical across reruns with the same config and
inputs; ``--stamp`` opts into an embedded timestamp (and therefore out of
byte identity).
"""

from __future__ import annotations

import argparse
import re
import sys
from contextlib import ExitStack
from dataclasses import replace
from itertools import zip_longest
from pathlib import Path
from typing import Collection, Iterator

import numpy as np

from . import aggregate, forking, fusion, report as rpt
from .data import (
    CLASS_ORDER,
    READER_CELLS,
    ParseError,
    SynthSpec,
    csv_text,
    fold_datasets,
    kfold_split,
    parse_predictions,
    parse_readers,
    serialize_predictions,
    summarize,
    synth_generate,
)
from .fusion import DivergenceError
from .metrics import MetricReport
from .stats import delong_test, kappa_test, bowker_test

DEFAULT_SEED = 20240  # fixed constant: runs are reproducible by default
GRAD_CHECK_TOL = 1e-4
# A report whose curve sets hold at least this many ROC points in all has
# its micro set written by a second process (``_forked_files``). A fork costs
# the parent 8-10 ms that a small report does not win back. In-process
# ``evaluate`` medians over 21 alternating pairs on a 2-core VM, serial ->
# forked: 44 -> 54 ms at 7.3k points, 125 -> 143 ms at 21k, 189 -> 206 ms at
# 35k; forking won 13 of 21 pairs at 42k points, 20 of 21 at 63k
# (303 -> 210 ms) and 10 of 11 at 176k (914 -> 673 ms). The crossover is
# near 40k points, so 2**17 leaves a margin of 3.
FORK_MIN_POINTS = 1 << 17


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse's default error path exits with status 2, which this tool
    # reserves for strict-mode degeneracy; route usage errors to exit 1.
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _out_path(text: str) -> Path:
    # Path("") is the working directory; an empty --out is a slip, not a choice of it
    if not text:
        raise argparse.ArgumentTypeError("must not be empty")
    return Path(text)


def _err(message: str) -> None:
    print(f"gjeval: {message}", file=sys.stderr)


def _stamp(args) -> str | None:
    if getattr(args, "stamp", False):
        from datetime import datetime, timezone

        return datetime.now(timezone.utc).isoformat()
    return None


def _write_outputs(outdir: Path, files: dict[str, str | Iterator[str]], forked: Collection[str] = ()) -> None:
    """Write every file into ``outdir``: a text whole, an iterator of chunks
    as it yields them. The chunked files are open together and take one
    chunk each in turn, so a curve set's ROC and PR files advance in
    lockstep. The chunked files named in ``forked`` are written by a child
    process (``forking.run_forked``) while this one writes the others; an
    error in the child is raised here once both are done."""
    outdir.mkdir(parents=True, exist_ok=True)
    chunked = {}
    for name, content in files.items():
        if isinstance(content, str):
            (outdir / name).write_text(content, encoding="utf-8")
        else:
            chunked[name] = content
    share = {name: chunked.pop(name) for name in forked}
    # a failure here waits for the child, so the files it writes are whole
    if not share or forking.run_forked(lambda: _write_chunked(outdir, chunked),
                                       lambda: _write_chunked(outdir, share), kill_on_error=False) is None:
        _write_chunked(outdir, share | chunked)
    for name in files:
        print(f"wrote {outdir / name}")


def _write_chunked(outdir: Path, chunked: dict[str, Iterator[str]]) -> None:
    with ExitStack() as stack:
        writes = [map(stack.enter_context((outdir / name).open("w", encoding="utf-8")).write, chunks)
                  for name, chunks in chunked.items()]
        for _ in zip_longest(*writes):  # each chunk is written as soon as it is made
            pass


def _forked_files(mr: MetricReport) -> tuple[str, ...]:
    """The files a second process writes: the micro curve set's, when this
    process may run on more than one CPU (``forking.spare_cpu``) and the
    report's curves hold at least FORK_MIN_POINTS ROC points; none
    otherwise."""
    if "micro" not in mr.curves:
        return ()
    points = sum(roc.x.size for roc, _ in mr.curves.values())
    if points < FORK_MIN_POINTS or not forking.spare_cpu():
        return ()
    return ("roc_micro.csv", "pr_micro.csv")


def _read_text(path: Path, name: str, inputs: dict[str, tuple[Path, str]]) -> str:
    """An input file's UTF-8 text, with CRLF and lone CR read as LF. The file
    is read once, so a pipe works too: ``inputs[name]`` is set to the path and
    the sha256 of the bytes read. Bytes that are not UTF-8 raise a ParseError
    naming their line."""
    data = path.read_bytes()
    inputs[name] = (path, rpt.sha256_bytes(data))
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = 1 + len(re.findall(rb"\r\n?|\n", exc.object[: exc.start]))
        raise ParseError(str(exc), line) from None
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def _report_files(mr: MetricReport, svg: bool = False) -> dict[str, str | Iterator[str]]:
    files = {"cm.csv": rpt.cm_csv(mr)}
    files.update(rpt.curve_csvs(mr))
    if svg and "micro" in mr.curves:
        display = {c.slug: c.display for c in CLASS_ORDER}
        labels = [display.get(name, name) for name in mr.curves]
        rocs, prs = zip(*mr.curves.values())
        files["roc.svg"] = rpt.curves_svg("ROC", list(zip(labels, rocs)))
        files["pr.svg"] = rpt.curves_svg("Precision-Recall", list(zip(labels, prs)))
    return files


def _has_undefined(mr: MetricReport) -> bool:
    blocks = [s for s in mr.per_class] + [mr.overall]
    for block in blocks:
        for name in ("accuracy", "sensitivity", "specificity", "ppv", "npv"):
            if not getattr(block, name).defined:
                return True
    return False


def cmd_evaluate(args) -> int:
    pred_path, inputs = Path(args.pred), {}
    ds = parse_predictions(_read_text(pred_path, "pred", inputs), strict=args.strict)
    mr = aggregate.evaluate(ds, level=args.level)
    if args.strict and _has_undefined(mr):
        _err("metric degeneracy (zero-denominator ratio) in strict mode")
        return 2
    # SVG emission is an execution detail, not semantic config: reports must
    # be byte-identical with and without it.
    config = {
        "subcommand": "evaluate",
        "pred": str(pred_path),
        "level": args.level,
        "strict": args.strict,
    }
    doc = rpt.build_report_doc(
        kind="evaluate",
        config=config,
        inputs=inputs,
        results={"dataset": summarize(ds).as_dict(), "report": mr.as_dict()},
        stamp=_stamp(args),
    )
    files = {"report.json": rpt.dump_json(doc)}
    files.update(_report_files(mr, svg=args.svg))
    _write_outputs(args.out, files, _forked_files(mr))
    return 0


def cmd_compare(args) -> int:
    path_a, path_b, inputs = Path(args.pred_a), Path(args.pred_b), {}
    ds_a = parse_predictions(_read_text(path_a, "pred_a", inputs))
    ds_b = parse_predictions(_read_text(path_b, "pred_b", inputs))
    joined = aggregate.join_predictions(ds_a, ds_b)
    tests = [
        bowker_test(np.stack((joined.preds_a, joined.preds_b), axis=1)),
        kappa_test(joined.preds_a, joined.preds_b),
    ]
    warnings: list[str] = []
    wanted = CLASS_ORDER if args.cls == "all" else [c for c in CLASS_ORDER if c.slug == args.cls]
    for cls in wanted:
        labels = (joined.truths == int(cls)).astype(np.float64)
        try:
            res = delong_test(joined.probs_a[:, int(cls)], joined.probs_b[:, int(cls)], labels)
        except ValueError as exc:
            warnings.append(f"delong:{cls.slug} skipped: {exc}")
            continue
        tests.append(replace(res, name=f"delong:{cls.slug}"))
    config = {
        "subcommand": "compare",
        "pred_a": str(path_a),
        "pred_b": str(path_b),
        "class": args.cls,
    }
    results = {
        "join": {
            "n_common": len(joined.image_ids),
            "n_a": len(ds_a),
            "n_b": len(ds_b),
        },
        "tests": [t.as_dict() for t in tests],
        "warnings": warnings,
    }
    doc = rpt.build_report_doc(
        kind="compare",
        config=config,
        inputs=inputs,
        results=results,
        stamp=_stamp(args),
    )
    _write_outputs(args.out, {"report.json": rpt.dump_json(doc)})
    return 0


def cmd_readers(args) -> int:
    pred_path, readers_path, inputs = Path(args.pred), Path(args.readers), {}
    model = parse_predictions(_read_text(pred_path, "pred", inputs))
    readers = parse_readers(_read_text(readers_path, "readers", inputs))
    cells = [READER_CELLS[c] for c in np.flatnonzero(np.bincount(readers.cells())).tolist()]
    rows = aggregate.reader_rows(readers, model)
    pooled = {cell: aggregate.pool_readers(readers, model, *cell, rows) for cell in cells}
    groups_out = []
    model_vs_group = {}
    for cell in cells:
        pool = pooled[cell]
        mr = aggregate.reader_group_report(pool)
        tests = aggregate.model_vs_reader_tests(pool)
        model_vs_group[f"{cell[0]}:{cell[1]}"] = tests[0].detail.get("kappa")
        groups_out.append(
            {
                "group": cell[0],
                "arm": cell[1],
                "readers": len(pool.reader_ids),
                "observations": int(pool.truths.size),
                "report": mr.as_dict(),
                "tests": [t.as_dict() for t in tests],
            }
        )
    group_vs_group = {}
    notes = []
    for i, cx in enumerate(cells):
        for cy in cells[i + 1 :]:
            key = f"{cx[0]}:{cx[1]}|{cy[0]}:{cy[1]}"
            try:
                res = aggregate.group_vs_group_kappa(pooled[cx], pooled[cy])
            except ValueError as exc:
                notes.append(f"{key}: {exc}")
                continue
            group_vs_group[key] = res.detail.get("kappa")
    scatter = aggregate.per_reader_points(readers, model, rows)
    scatter_rows = [("reader_id", "group", "arm", "class", "sensitivity", "specificity", "ppv")]
    for row in scatter:
        scatter_rows.append(
            [row["reader_id"], row["group"], row["arm"], row["class"]]
            + ["" if row[k] is None else repr(row[k]) for k in ("sensitivity", "specificity", "ppv")]
        )
    config = {
        "subcommand": "readers",
        "pred": str(pred_path),
        "readers": str(readers_path),
    }
    results = {
        "pairing": "pooled: model prediction replicated per reader observation",
        "groups": groups_out,
        "model_vs_group_kappa": model_vs_group,
        "group_vs_group_kappa": group_vs_group,
        "notes": notes,
    }
    doc = rpt.build_report_doc(
        kind="readers",
        config=config,
        inputs=inputs,
        results=results,
        stamp=_stamp(args),
    )
    files = {
        "report.json": rpt.dump_json(doc),
        "reader_points.csv": csv_text(scatter_rows),
    }
    _write_outputs(args.out, files)
    return 0


def cmd_kfold(args) -> int:
    pred_path, inputs = Path(args.pred), {}
    ds = parse_predictions(_read_text(pred_path, "pred", inputs))
    spec = kfold_split(ds, k=args.k, unit=args.by, seed=args.seed)
    sizes = spec.fold_sizes()
    per_fold = []
    for fold, test_ds in enumerate(fold_datasets(ds, spec)):
        summary = summarize(test_ds)
        per_fold.append(
            {
                "fold": fold,
                "units": sizes[fold],
                "patients": summary.patients,
                "images": summary.images,
                "images_by_class": summary.images_by_class,
            }
        )
    order = ds.patient_ids if spec.unit == "patient" else ds.image_ids
    assign_rows = [("unit_id", "fold"), *((u, str(spec.assignments[u])) for u in order)]
    config = {
        "subcommand": "kfold",
        "pred": str(pred_path),
        "k": args.k,
        "by": args.by,
        "seed": args.seed,
    }
    results = {
        "unit": spec.unit,
        "k": spec.k,
        "fold_sizes": sizes,
        "per_fold": per_fold,
    }
    doc = rpt.build_report_doc(
        kind="kfold",
        config=config,
        inputs=inputs,
        results=results,
        stamp=_stamp(args),
    )
    files = {
        "report.json": rpt.dump_json(doc),
        "assignments.csv": csv_text(assign_rows),
    }
    _write_outputs(args.out, files)
    return 0


def cmd_synth(args) -> int:
    try:
        sizes = tuple(int(v) for v in args.patients.split(","))
    except ValueError:
        raise _UsageError(f"--patients expects three comma-separated integers, got {args.patients!r}")
    if len(sizes) != 3 or min(sizes) < 0 or sum(sizes) == 0:
        raise _UsageError(f"--patients expects three non-negative integers, got {args.patients!r}")
    sep = float("inf") if args.sep.lower() in ("inf", "infinity") else float(args.sep)
    spec = SynthSpec(
        patients_per_class=sizes,  # type: ignore[arg-type]
        images_min=args.images_min,
        images_max=args.images_max,
        separation=sep,
        seed=args.seed,
    )
    ds = synth_generate(spec)
    out = args.out
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(serialize_predictions(ds), encoding="utf-8")
    s = summarize(ds)
    print(f"wrote {out} ({s.patients} patients, {s.images} images)")
    return 0


def cmd_fusion_demo(args) -> int:
    config = fusion.HeadConfig(c_dino=args.dim, hidden=args.hidden)
    spec = fusion.TrainSpec(
        config=config,
        epochs=args.epochs,
        batch_size=args.batch,
        lr=args.lr,
        seed=args.seed,
    )
    result = fusion.train_toy(spec)
    run_config = {
        "subcommand": "fusion-demo",
        "dim": args.dim,
        "hidden": args.hidden,
        "epochs": args.epochs,
        "batch": args.batch,
        "lr": args.lr,
        "seed": args.seed,
        "grad_check": args.grad_check,
        "n_samples": spec.n_samples,
        "separation": spec.separation,
        "holdout_frac": spec.holdout_frac,
    }
    grad_result = None
    if args.grad_check:
        probe_fb, probe_labels = fusion.make_synthetic_features(
            config, 1, spec.separation, seed=args.seed
        )
        err_eval = fusion.grad_check(result.params, probe_fb, probe_labels)
        err_train = fusion.grad_check(
            result.params, probe_fb, probe_labels, rng_seed=args.seed, training=True
        )
        max_rel = max(err_eval, err_train)
        grad_result = {
            "max_relative_error": max_rel,
            "inference_path": err_eval,
            "training_path": err_train,
            "tolerance": GRAD_CHECK_TOL,
        }
        print(f"gradient check: max relative error {max_rel:.3e}")
    results = {
        "train": {
            "epochs_run": len(result.log),
            "final_train_loss": result.log[-1]["train_loss"] if result.log else None,
            "holdout_accuracy": result.holdout_accuracy,
        },
        "holdout_report": result.report.as_dict(),
    }
    if grad_result is not None:
        results["grad_check"] = grad_result
    doc = rpt.build_report_doc(
        kind="fusion_demo",
        config=run_config,
        inputs={},
        results=results,
        stamp=_stamp(args),
    )
    files = {
        "report.json": rpt.dump_json(doc),
        "params.json": fusion.params_to_json(result.params) + "\n",
        "training_log.csv": rpt.training_log_csv(result.log),
    }
    files.update(_report_files(result.report))
    _write_outputs(args.out, files, _forked_files(result.report))
    if grad_result is not None and grad_result["max_relative_error"] >= GRAD_CHECK_TOL:
        _err(
            f"gradient self-check failed: max relative error "
            f"{grad_result['max_relative_error']:.3e} >= {GRAD_CHECK_TOL:g}"
        )
        return 4
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gjeval", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand")

    p = sub.add_parser("evaluate", help="metrics report for one predictions file")
    p.add_argument("--pred", required=True)
    p.add_argument("--level", choices=aggregate.LEVELS, default="image")
    p.add_argument("--out", type=_out_path, required=True)
    p.add_argument("--strict", action="store_true")
    p.add_argument("--svg", action="store_true")
    p.add_argument("--stamp", action="store_true")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("compare", help="hypothesis tests between two prediction files")
    p.add_argument("--pred-a", required=True)
    p.add_argument("--pred-b", required=True)
    p.add_argument("--out", type=_out_path, required=True)
    p.add_argument("--class", dest="cls", choices=["aegja", "eegja", "control", "all"], default="all")
    p.add_argument("--stamp", action="store_true")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("readers", help="reader-study analysis against model predictions")
    p.add_argument("--pred", required=True)
    p.add_argument("--readers", required=True)
    p.add_argument("--out", type=_out_path, required=True)
    p.add_argument("--stamp", action="store_true")
    p.set_defaults(func=cmd_readers)

    p = sub.add_parser("kfold", help="deterministic fold assignment")
    p.add_argument("--pred", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--by", choices=["patient", "image"], default="patient")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", type=_out_path, required=True)
    p.add_argument("--stamp", action="store_true")
    p.set_defaults(func=cmd_kfold)

    p = sub.add_parser("synth", help="generate a synthetic predictions file")
    p.add_argument("--patients", default="44,18,50")
    p.add_argument("--images-min", type=int, default=1)
    p.add_argument("--images-max", type=int, default=20)
    p.add_argument("--sep", default="3.0")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", type=_out_path, required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("fusion-demo", help="train the fusion head on synthetic features")
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--hidden", type=int, default=8)
    p.add_argument("--epochs", type=int, default=40)
    p.add_argument("--batch", type=int, default=128)
    p.add_argument("--lr", type=float, default=0.0001)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", type=_out_path, required=True)
    p.add_argument("--grad-check", action="store_true")
    p.add_argument("--stamp", action="store_true")
    p.set_defaults(func=cmd_fusion_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        _err(str(exc))
        return 1
    if not getattr(args, "subcommand", None):
        parser.print_help()
        return 1
    try:
        return args.func(args)
    except DivergenceError as exc:
        _err(f"training diverged: {exc}")
        return 3
    except _UsageError as exc:
        _err(str(exc))
        return 1
    except (OSError, ValueError) as exc:
        _err(f"input error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
