"""Command-line interface: evaluate, compare, readers, kfold, synth, fusion-demo.

Exit codes: 0 success, 1 input error, 2 strict-mode metric degeneracy,
3 training divergence, 4 failed self-check. Each subcommand computes and
checks everything before it opens a file, so a run that fails with exit 1, 2
or 3 writes nothing. Every ``report.json`` is written by ``_publish``, with
the subcommand's other files. ``fusion-demo`` writes all its files before it
checks the gradients, so a run that exits 4 keeps them for diagnosis. The
curve CSVs are formatted as they are written, a block of rows at a time; every
other file is written whole. On Linux with two CPUs or more, a report whose
curve sets hold at least ``FORK_MIN_POINTS`` ROC points has its micro set
(``roc_micro.csv``, ``pr_micro.csv``) written by a forked second process while
this one writes the other files. In the same way, where the two input files of
``compare`` or ``readers`` hold at least ``data.FORK_MIN_CHARS`` characters
together and the shorter is long enough for the fork to pay, a second
process parses the second file while this one parses the first
(``_parse_pair``); and a predictions file of at least that size without
quotes or CRs, parsed while no second process runs, has the second half of its
rows parsed by one while this one parses the first. There is one second
process at a time (``forking``), so each of two files is parsed by one
process. The bytes and exit codes are the same, and an error in either process
gives the same single ``gjeval: input error: …`` line and exit 1 as one
process would; so does a second process that dies. A write that fails part-way
leaves the files written before it, a truncated curve file, and any files
already in ``--out``. Outputs are byte-identical across reruns with the same
config and inputs; ``--stamp`` opts into an embedded timestamp (and therefore
out of byte identity).
"""

from __future__ import annotations

import argparse
import re
import sys
from contextlib import ExitStack
from dataclasses import replace
from itertools import zip_longest
from pathlib import Path
from typing import Callable, Collection, Iterator, TypeVar

import numpy as np

from . import aggregate, data, forking, fusion, report as rpt
from .data import (
    CLASS_ORDER,
    FOLD_UNITS,
    ParseError,
    SynthSpec,
    csv_text,
    fold_datasets,
    kfold_split,
    parse_predictions,
    parse_readers,
    summarize,
    synth_generate,
)
from .fusion import DivergenceError
from .metrics import METRIC_NAMES, MetricReport
from .stats import delong_test, kappa_test, bowker_test

DEFAULT_SEED = 20240  # fixed constant: runs are reproducible by default
GRAD_CHECK_TOL = 1e-4
# A report whose curve sets hold at least this many ROC points in all has
# its micro set written by a second process (``_forked_files``). A fork costs
# the parent 8-10 ms that a small report does not win back. In-process
# image-level ``evaluate`` medians over alternating pairs on a 2-core VM,
# serial -> forked: 17 -> 26 ms at 7.1k points, 57 -> 69 ms at 21k and
# 84 -> 104 ms at 42k (forking won 0-3 of 21 pairs); at 85k forking won 2
# and 11 of 21 in two passes (133 -> 131 ms); 178 -> 146 ms at 106k and
# 236 -> 184 ms at 127k (20 of 21), 761 -> 492 ms at 353k (11 of 11). The
# crossover is near 85k points, so 2**17 forks only where forking won.
FORK_MIN_POINTS = 1 << 17

A = TypeVar("A")
B = TypeVar("B")


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


def _publish(args, config: dict, inputs: dict[str, tuple[Path, str]], results: dict,
             files: dict[str, str | Iterator[str]] | None = None, forked: Collection[str] = ()) -> None:
    """Write ``report.json`` and the subcommand's other ``files`` into
    ``args.out``. The report's kind is the subcommand's name with ``_`` for
    ``-``, its config starts with that name, and ``--stamp`` adds the UTC
    time as ``generated_at``. ``forked`` is passed to ``_write_outputs``."""
    stamp = None
    if args.stamp:
        from datetime import datetime, timezone

        stamp = datetime.now(timezone.utc).isoformat()
    doc = rpt.build_report_doc(
        kind=args.subcommand.replace("-", "_"),
        config={"subcommand": args.subcommand, **config},
        inputs=inputs,
        results=results,
        stamp=stamp,
    )
    # positional: the benchmark's tracer reads the directory and the files from args
    _write_outputs(args.out, {"report.json": rpt.dump_json(doc), **(files or {})}, forked)


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
    raw = path.read_bytes()
    inputs[name] = (path, rpt.sha256_bytes(raw))
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = 1 + len(re.findall(rb"\r\n?|\n", exc.object[: exc.start]))
        raise ParseError(str(exc), line) from None
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def _parse_pair(first: tuple[Path, str, Callable[[str], A]], second: tuple[Path, str, Callable[[str], B]],
                inputs: dict[str, tuple[Path, str]]) -> tuple[A, B]:
    """Read and parse two input files, each given as ``(path, name, parse)``
    (``name`` as for ``_read_text``), and return what the two parses give.
    The first error is raised in the order: read the first file, parse it,
    read the second, parse it. Where a forked child can help
    (``forking.spare_cpu``), the two texts hold at least
    ``data.FORK_MIN_CHARS`` characters and the shorter one is long enough
    for the fork to pay, a child parses the second while this process
    parses the first; each process then parses its file alone. This process
    drops the second text once the child has it, and each text is freed as its
    parse ends. Otherwise the two are parsed one after the other, each long
    predictions text in halves (``data.parse_predictions``)."""
    (path_a, name_a, parse_a), (path_b, name_b, parse_b) = first, second
    texts = [_read_text(path_a, name_a, inputs)]
    if forking.spare_cpu():  # else the second text is read once the first is freed
        try:
            texts.append(_read_text(path_b, name_b, inputs))
        except (OSError, ValueError):
            parse_a(texts.pop())  # a fault in the first file is raised first
            raise
        # Halving a long predictions text (data.parse_predictions) takes
        # 0.68-0.81 of its serial parse time at 117,600 rows; the child
        # takes the whole shorter parse off. So the child pays where the
        # shorter text is at least half the longer one, or a third when it
        # is a reader file, which is never halved, and always where the
        # longer one is a reader file.
        n_a, n_b = len(texts[0]), len(texts[1])
        pays = n_a <= 3 * n_b if parse_b is parse_readers else max(n_a, n_b) <= 2 * min(n_a, n_b)
        if pays and n_a + n_b >= data.FORK_MIN_CHARS:
            def here() -> A:
                del texts[1]  # the child has its own copy
                return parse_a(texts.pop())

            # a fault in the first file wins, so the child is killed then
            both = forking.run_forked(here, lambda: parse_b(texts.pop()), kill_on_error=True)
            if both is not None:
                return both
    parsed = parse_a(texts.pop(0))
    return parsed, parse_b(texts.pop() if texts else _read_text(path_b, name_b, inputs))


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
        for name in METRIC_NAMES:
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
        "pred": str(pred_path),
        "level": args.level,
        "strict": args.strict,
    }
    results = {"dataset": summarize(ds), "report": mr.as_dict()}
    _publish(args, config, inputs, results, _report_files(mr, svg=args.svg), _forked_files(mr))
    return 0


def cmd_compare(args) -> int:
    path_a, path_b, inputs = Path(args.pred_a), Path(args.pred_b), {}
    ds_a, ds_b = _parse_pair((path_a, "pred_a", parse_predictions), (path_b, "pred_b", parse_predictions), inputs)
    joined = aggregate.join_predictions(ds_a, ds_b)
    tests = [
        bowker_test(joined.preds_a, joined.preds_b),
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
        "pred_a": str(path_a),
        "pred_b": str(path_b),
        "class": args.cls,
    }
    results = {
        "join": {
            "n_common": joined.truths.size,
            "n_a": len(ds_a),
            "n_b": len(ds_b),
        },
        "tests": [t.as_dict() for t in tests],
        "warnings": warnings,
    }
    _publish(args, config, inputs, results)
    return 0


def cmd_readers(args) -> int:
    pred_path, readers_path, inputs = Path(args.pred), Path(args.readers), {}
    model, readers = _parse_pair((pred_path, "pred", parse_predictions), (readers_path, "readers", parse_readers),
                                 inputs)
    rows = aggregate.reader_rows(readers, model)
    pooled = [aggregate.pool_readers(readers, model, cell, rows)
              for cell in np.flatnonzero(np.bincount(readers.cell)).tolist()]
    groups_out = []
    model_vs_group = {}
    for pool in pooled:
        mr = aggregate.reader_group_report(pool)
        tests = aggregate.model_vs_reader_tests(pool)
        model_vs_group[f"{pool.group}:{pool.arm}"] = tests[0].detail.get("kappa")
        groups_out.append(
            {
                "group": pool.group,
                "arm": pool.arm,
                "readers": pool.n_readers,
                "observations": int(pool.truths.size),
                "report": mr.as_dict(),
                "tests": [t.as_dict() for t in tests],
            }
        )
    group_vs_group = {}
    notes = []
    for i, px in enumerate(pooled):
        for py in pooled[i + 1 :]:
            key = f"{px.group}:{px.arm}|{py.group}:{py.arm}"
            try:
                res = aggregate.group_vs_group_kappa(px, py)
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
    _publish(args, config, inputs, results, {"reader_points.csv": csv_text(scatter_rows)})
    return 0


def cmd_kfold(args) -> int:
    pred_path, inputs = Path(args.pred), {}
    ds = parse_predictions(_read_text(pred_path, "pred", inputs))
    fold = kfold_split(ds, k=args.k, unit=args.by, seed=args.seed)
    per_fold = fold_datasets(ds, fold, args.by)
    units = ds.patient_ids if args.by == "patient" else ds.image_ids
    assign_rows = [("unit_id", "fold"), *zip(units, map(str, fold.tolist()))]
    config = {
        "pred": str(pred_path),
        "k": args.k,
        "by": args.by,
        "seed": args.seed,
    }
    results = {
        "unit": args.by,
        "k": args.k,
        "fold_sizes": [f["units"] for f in per_fold],
        "per_fold": per_fold,
    }
    _publish(args, config, inputs, results, {"assignments.csv": csv_text(assign_rows)})
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
    text = synth_generate(spec)
    out = args.out
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(text, encoding="utf-8")
    images = text.count("\n") - 1  # every line but the header
    print(f"wrote {out} ({sum(sizes)} patients, {images} images)")
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
    files = {
        "params.json": fusion.params_to_json(result.params) + "\n",
        "training_log.csv": rpt.training_log_csv(result.log),
    }
    files.update(_report_files(result.report))
    _publish(args, run_config, {}, results, files, _forked_files(result.report))
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
    p.add_argument("--class", dest="cls", choices=[c.slug for c in CLASS_ORDER] + ["all"], default="all")
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
    p.add_argument("--by", choices=FOLD_UNITS, default="patient")
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
