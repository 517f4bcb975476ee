"""Command-line interface: evaluate, compare, readers, kfold, synth, fusion-demo.

Exit codes: 0 success, 1 input or usage error, 2 strict-mode metric degeneracy,
3 training divergence, 4 failed self-check. Each subcommand computes and
checks everything before it opens a file, so a run that fails with exit 1, 2
or 3 writes nothing. Every ``report.json`` is written by ``_publish``, with
the subcommand's other files. ``fusion-demo`` writes all its files before it
checks the gradients, so a run that exits 4 keeps them for diagnosis. The
curve CSVs are formatted as they are written, a block of rows at a time; every
other file is written whole. Large reports and inputs are written or
parsed in two shares, each input file read by the process that parses it:
a forked second process takes one share where a second CPU is free, and
otherwise this process takes it after its own (``forking``). The bytes,
exit codes and first error are the same on every host: an error in either
share gives the same single ``gjeval: input error: …`` line and exit 1; so
does a second process that dies. A write that fails part-way
leaves the files written before it, a truncated curve file, and any files
already in ``--out``. Outputs are byte-identical across reruns with the same
config and inputs; ``--stamp`` opts into an embedded timestamp (and therefore
out of byte identity).
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from contextlib import ExitStack
from dataclasses import replace
from functools import partial
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
# An ``evaluate`` report whose curve sets hold at least this many ROC points
# in all has its micro set written by a second process (``_forked_files``);
# fusion-demo's 500-row hold-out report stays far below. A fork costs
# the parent 8-10 ms that a small report does not win back. In-process
# image-level ``evaluate`` medians over alternating pairs on a 2-core VM,
# serial -> forked: 17 -> 26 ms at 7.1k points, 57 -> 69 ms at 21k and
# 84 -> 104 ms at 42k (forking won 0-3 of 21 pairs); at 85k forking won 2
# and 11 of 21 in two passes (133 -> 131 ms); 178 -> 146 ms at 106k and
# 236 -> 184 ms at 127k (20 of 21), 761 -> 492 ms at 353k (11 of 11). The
# crossover is near 85k points, so 2**17 forks only where forking won.
FORK_MIN_POINTS = 1 << 17

# Options that say how a run executes, not what it computes, and argparse's
# own entries: a report's config leaves them out, so its bytes do not depend
# on where they go or on whether SVGs come with them.
_NOT_CONFIG = ("out", "stamp", "svg", "subcommand", "func")

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


def _patients(text: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(v) for v in text.split(","))
    except ValueError:
        sizes = ()
    if len(sizes) != 3 or min(sizes) < 0 or sum(sizes) == 0:
        raise argparse.ArgumentTypeError(f"expects three comma-separated integers, none negative "
                                         f"and not all 0, got {text!r}")
    return sizes


def _config(args) -> dict:
    """A report's config: the parsed options but ``_NOT_CONFIG``, in the order
    the subcommand declares them (argparse sets their defaults in that order),
    with each path as text."""
    return {k: str(v) if isinstance(v, Path) else v for k, v in vars(args).items() if k not in _NOT_CONFIG}


def _err(message: str) -> None:
    print(f"gjeval: {message}", file=sys.stderr)


def _write_outputs(outdir: Path, files: dict[str, str | Iterator[str]], forked: Collection[str] = ()) -> None:
    """Write every file into ``outdir``: a text whole, an iterator of chunks
    as it yields them. The chunked files are open together and take one
    chunk each in turn, so a curve set's ROC and PR files advance in
    lockstep. The chunked files named in ``forked`` are written after the
    others, or by a child process while this one writes the others where a
    child can run (``forking.run_forked``); an error in the child is raised
    here once both are done."""
    outdir.mkdir(parents=True, exist_ok=True)
    chunked = {}
    for name, content in files.items():
        if isinstance(content, str):
            (outdir / name).write_text(content, encoding="utf-8")
        else:
            chunked[name] = content
    share = {name: chunked.pop(name) for name in forked}
    if share:  # a failure here waits for the child, so the files it writes are whole
        forking.run_forked(partial(_write_chunked, outdir, chunked), partial(_write_chunked, outdir, share),
                           kill_on_error=False)
    else:
        _write_chunked(outdir, chunked)
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
    """The files a second process may write: the micro curve set's, when the
    report's curves hold at least FORK_MIN_POINTS ROC points; none
    otherwise."""
    if "micro" not in mr.curves or sum(roc.x.size for roc, _ in mr.curves.values()) < FORK_MIN_POINTS:
        return ()
    return ("roc_micro.csv", "pr_micro.csv")


def _parse_file(path: Path, parse: Callable[[str], B]) -> tuple[B, str]:
    """What ``parse`` gives for an input file's UTF-8 text, with CRLF and lone
    CR read as LF, and the sha256 of the file's bytes. The file is read once,
    so a pipe works too. Bytes that are not UTF-8 raise a ParseError naming
    their line. The bytes are dropped before the parse, and the text when it
    returns."""
    raw = path.read_bytes()
    digest = rpt.sha256_bytes(raw)
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = 1 + len(re.findall(rb"\r\n?|\n", exc.object[: exc.start]))
        raise ParseError(str(exc), line) from None
    del raw
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return parse(text), digest


def _parse_pair(path_a: Path, path_b: Path,
                parse_b: Callable[[str], B]) -> tuple[tuple[data.Dataset, str], tuple[B, str]]:
    """``_parse_file`` of a predictions file and of a second file parsed by
    ``parse_b``. The first error is raised in the order: read the first file,
    parse it, read the second, parse it. Where the two files hold at least
    ``data.FORK_MIN_CHARS`` bytes together and the shorter one is long enough
    for the fork to pay, the two go to ``forking.run_forked``: where a child
    can run, it reads and parses the second while this process reads and
    parses the first, and a fault in the first kills it. Otherwise the two
    are parsed one after the other, each long predictions text in halves
    (``data.parse_predictions``). A path that is not a regular file, such as
    a pipe, or that cannot be looked at, counts as empty here; so a file that
    cannot be read raises in that order."""
    n_a, n_b = (os.path.getsize(path) if os.path.isfile(path) else 0 for path in (path_a, path_b))
    # Halving a long predictions text (data.parse_predictions) takes
    # 0.68-0.81 of its serial parse time at 117,600 rows; the child
    # takes the whole shorter parse off. So the child pays where the
    # shorter text is at least half the longer one, or a third when it
    # is a reader file, which is never halved, and always where the
    # longer one is a reader file.
    pays = n_a <= 3 * n_b if parse_b is parse_readers else max(n_a, n_b) <= 2 * min(n_a, n_b)
    first, second = partial(_parse_file, path_a, parse_predictions), partial(_parse_file, path_b, parse_b)
    if pays and n_a + n_b >= data.FORK_MIN_CHARS:
        return forking.run_forked(first, second, kill_on_error=True)
    return first(), second()


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
    ds, digest = _parse_file(args.pred, partial(parse_predictions, strict=args.strict))
    mr = aggregate.evaluate(ds, level=args.level)
    if args.strict and _has_undefined(mr):
        _err("metric degeneracy (zero-denominator ratio) in strict mode")
        return 2
    results = {"dataset": summarize(ds), "report": mr.as_dict()}
    _publish(args, _config(args), {"pred": (args.pred, digest)}, results, _report_files(mr, svg=args.svg),
             _forked_files(mr))
    return 0


def cmd_compare(args) -> int:
    (ds_a, digest_a), (ds_b, digest_b) = _parse_pair(args.pred_a, args.pred_b, parse_predictions)
    joined = aggregate.join_predictions(ds_a, ds_b)
    tests = [
        bowker_test(joined.preds_a, joined.preds_b),
        kappa_test(joined.preds_a, joined.preds_b),
    ]
    warnings: list[str] = []
    slug = getattr(args, "class")  # a keyword, so not args.class
    wanted = CLASS_ORDER if slug == "all" else [c for c in CLASS_ORDER if c.slug == slug]
    for cls in wanted:
        labels = (joined.truths == int(cls)).astype(np.float64)
        try:
            res = delong_test(joined.probs_a[:, int(cls)], joined.probs_b[:, int(cls)], labels)
        except ValueError as exc:
            warnings.append(f"delong:{cls.slug} skipped: {exc}")
            continue
        tests.append(replace(res, name=f"delong:{cls.slug}"))
    results = {
        "join": {
            "n_common": joined.truths.size,
            "n_a": len(ds_a),
            "n_b": len(ds_b),
        },
        "tests": [t.as_dict() for t in tests],
        "warnings": warnings,
    }
    _publish(args, _config(args), {"pred_a": (args.pred_a, digest_a), "pred_b": (args.pred_b, digest_b)}, results)
    return 0


def cmd_readers(args) -> int:
    (model, digest_p), (readers, digest_r) = _parse_pair(args.pred, args.readers, parse_readers)
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
    results = {
        "pairing": "pooled: model prediction replicated per reader observation",
        "groups": groups_out,
        "model_vs_group_kappa": model_vs_group,
        "group_vs_group_kappa": group_vs_group,
        "notes": notes,
    }
    inputs = {"pred": (args.pred, digest_p), "readers": (args.readers, digest_r)}
    _publish(args, _config(args), inputs, results, {"reader_points.csv": csv_text(scatter_rows)})
    return 0


def cmd_kfold(args) -> int:
    ds, digest = _parse_file(args.pred, parse_predictions)
    fold = kfold_split(ds, k=args.k, unit=args.by, seed=args.seed)
    per_fold = fold_datasets(ds, fold, args.by)
    units = ds.patient_ids if args.by == "patient" else ds.image_ids
    assign_rows = [("unit_id", "fold"), *zip(units, map(str, fold.tolist()))]
    results = {
        "unit": args.by,
        "k": args.k,
        "fold_sizes": [f["units"] for f in per_fold],
        "per_fold": per_fold,
    }
    _publish(args, _config(args), {"pred": (args.pred, digest)}, results, {"assignments.csv": csv_text(assign_rows)})
    return 0


def cmd_synth(args) -> int:
    spec = SynthSpec(
        patients_per_class=args.patients,  # type: ignore[arg-type]
        images_min=args.images_min,
        images_max=args.images_max,
        separation=args.sep,
        seed=args.seed,
    )
    text = synth_generate(spec)
    out = args.out
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(text, encoding="utf-8")
    images = text.count("\n") - 1  # every line but the header
    print(f"wrote {out} ({sum(args.patients)} patients, {images} images)")
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
            "holdout_accuracy": result.report.overall.accuracy.value,
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
    _publish(args, {**_config(args), "n_samples": spec.n_samples, "separation": spec.separation,
                    "holdout_frac": spec.holdout_frac}, {}, results, files)
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
    writes_report = argparse.ArgumentParser(add_help=False)  # options of each subcommand that writes a report.json
    writes_report.add_argument("--out", type=_out_path, required=True)
    writes_report.add_argument("--stamp", action="store_true")

    p = sub.add_parser("evaluate", parents=[writes_report], help="metrics report for one predictions file")
    p.add_argument("--pred", type=Path, required=True)
    p.add_argument("--level", choices=aggregate.LEVELS, default="image")
    p.add_argument("--strict", action="store_true")
    p.add_argument("--svg", action="store_true")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("compare", parents=[writes_report], help="hypothesis tests between two prediction files")
    p.add_argument("--pred-a", type=Path, required=True)
    p.add_argument("--pred-b", type=Path, required=True)
    p.add_argument("--class", choices=[c.slug for c in CLASS_ORDER] + ["all"], default="all")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("readers", parents=[writes_report], help="reader-study analysis against model predictions")
    p.add_argument("--pred", type=Path, required=True)
    p.add_argument("--readers", type=Path, required=True)
    p.set_defaults(func=cmd_readers)

    p = sub.add_parser("kfold", parents=[writes_report], help="deterministic fold assignment")
    p.add_argument("--pred", type=Path, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--by", choices=FOLD_UNITS, default="patient")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=cmd_kfold)

    p = sub.add_parser("synth", help="generate a synthetic predictions file")
    p.add_argument("--patients", type=_patients, default=(44, 18, 50))
    p.add_argument("--images-min", type=int, default=1)
    p.add_argument("--images-max", type=int, default=20)
    p.add_argument("--sep", type=float, default=3.0)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", type=_out_path, required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("fusion-demo", parents=[writes_report], help="train the fusion head on synthetic features")
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--hidden", type=int, default=8)
    p.add_argument("--epochs", type=int, default=40)
    p.add_argument("--batch", type=int, default=128)
    p.add_argument("--lr", type=float, default=0.0001)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--grad-check", action="store_true")
    p.set_defaults(func=cmd_fusion_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(exc, file=sys.stderr)  # the parser's own line names the program
        return 1
    if not getattr(args, "subcommand", None):
        parser.print_help()
        return 1
    try:
        return args.func(args)
    except DivergenceError as exc:
        _err(f"training diverged: {exc}")
        return 3
    except (OSError, ValueError) as exc:
        _err(f"input error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
