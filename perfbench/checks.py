"""Output checks that share no code with the package.

Each check reads the files one op kind wrote and compares them with the
generator's reference data, returning a list of failures (empty when the
output is correct). Reports must be strict JSON (no NaN or Infinity) and
validate against the schema file shipped in the package's source tree.
"""

from __future__ import annotations

import json
from pathlib import Path

import jsonschema
import numpy as np

SLUGS = ("aegja", "eegja", "control")
AUC_TOL = 1e-9
# Lowest held-out accuracy fusion-demo must reach; chance is 1/3, and the
# default well-separated clusters give 0.99 or more.
FUSION_MIN_ACCURACY = 0.9


def load_schemas(src: Path) -> dict[str, dict]:
    """Every JSON schema under ``src/gjeval/schemas``, keyed by its ``$id``."""
    out = {}
    for path in sorted((src / "gjeval" / "schemas").glob("*.json")):
        schema = json.loads(path.read_text())
        out[schema.get("$id", path.stem)] = schema
    return out


def strict_json(path: Path):
    def reject(token):
        raise ValueError(f"{path.name}: non-finite number {token}")

    return json.loads(path.read_text(), parse_constant=reject)


def mann_whitney_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """AUC as the Mann-Whitney U statistic over midranks (ties count half)."""
    order = np.argsort(scores, kind="mergesort")
    s = scores[order]
    starts = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
    ends = np.r_[starts[1:], s.size]
    ranks = np.empty(s.size)
    ranks[order] = np.repeat((starts + 1 + ends) / 2.0, ends - starts)
    pos = labels.astype(bool)
    n1 = int(pos.sum())
    n0 = s.size - n1
    return float((ranks[pos].sum() - n1 * (n1 + 1) / 2.0) / (n1 * n0))


class Reference:
    """Ground truth of one generated input set."""

    def __init__(self, npz_path: Path, input_digests: dict):
        with np.load(npz_path) as z:
            self.truth = z["truth"].astype(np.int64)
            self.probs = z["probs_a"]
            self.pat_code = z["pat_code"].astype(np.int64)
            self.n_img_per = z["n_img_per"]
            self.cell_rows = z["cell_rows"].tolist()
        self.digests = {name: d["sha256"] for name, d in input_digests.items()}
        self.n_images = self.truth.size
        self.n_patients = self.n_img_per.size
        pat_truth = np.zeros(self.n_patients, dtype=np.int64)
        pat_truth[self.pat_code] = self.truth
        self.images_by_class = np.bincount(self.truth, minlength=3)
        self.patients_by_class = np.bincount(pat_truth, minlength=3)


def _report(outdir: Path, schemas: dict, inputs: dict[str, str], ref: Reference | None) -> tuple[dict, list[str]]:
    doc = strict_json(outdir / "report.json")
    schema = schemas.get(doc.get("schema"))
    if schema is None:
        return doc, [f"no packaged schema with $id {doc.get('schema')!r}"]
    failures = []
    try:
        jsonschema.validate(doc, schema)
    except jsonschema.ValidationError as exc:
        failures.append(f"report.json fails the schema: {exc.message}")
    for name, file in inputs.items():
        got = doc.get("inputs", {}).get(name, {}).get("sha256")
        if got != ref.digests[file]:
            failures.append(f"input digest of {name} is {got}, expected {ref.digests[file]}")
    return doc, failures


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def _evaluate(level: str):
    def check(outdir, schemas, ref):
        doc, failures = _report(outdir, schemas, {"pred": "pred_a.csv"}, ref)
        res = doc["results"]
        ds = res["dataset"]
        if (ds["images"], ds["patients"]) != (ref.n_images, ref.n_patients):
            failures.append(f"dataset summary {ds['images']} images / {ds['patients']} patients, "
                            f"expected {ref.n_images} / {ref.n_patients}")
        rep = res["report"]
        rows = np.array(rep["confusion_matrix"]["counts"], dtype=np.float64).sum(axis=1)
        expected = ref.images_by_class if level == "image" else ref.patients_by_class
        if not all(_close(r, e, 1e-9) for r, e in zip(rows.tolist(), expected.tolist())):
            failures.append(f"{level} confusion row totals {rows.tolist()}, expected {expected.tolist()}")
        if not _close(rep["n"], float(expected.sum()), 1e-9):
            failures.append(f"{level} n is {rep['n']}, expected {expected.sum()}")
        if level == "image":
            onehot = np.eye(3)[ref.truth]
            want = {"micro": mann_whitney_auc(ref.probs.reshape(-1), onehot.reshape(-1))}
            for k, slug in enumerate(SLUGS):
                want[slug] = mann_whitney_auc(ref.probs[:, k], onehot[:, k])
            got = {"micro": rep["auc"]["micro"], **rep["auc"]["per_class"]}
            for key, value in want.items():
                if got.get(key) is None or abs(got[key] - value) > AUC_TOL:
                    failures.append(f"AUC {key} is {got.get(key)}, Mann-Whitney gives {value}")
        return failures

    return check


def _compare(outdir, schemas, ref):
    doc, failures = _report(outdir, schemas, {"pred_a": "pred_a.csv", "pred_b": "pred_b.csv"}, ref)
    join = doc["results"]["join"]
    if (join["n_common"], join["n_a"], join["n_b"]) != (ref.n_images,) * 3:
        failures.append(f"join counts {join}, expected {ref.n_images} each")
    names = [t["name"] for t in doc["results"]["tests"]]
    for slug in SLUGS:
        if f"delong:{slug}" not in names:
            failures.append(f"no DeLong test for {slug}: {names}")
    return failures


def _readers(outdir, schemas, ref):
    doc, failures = _report(outdir, schemas, {"pred": "pred_a.csv", "readers": "readers.csv"}, ref)
    obs = [g["observations"] for g in doc["results"]["groups"]]
    if obs != ref.cell_rows:
        failures.append(f"observations per cell {obs}, generated {ref.cell_rows}")
    return failures


def _kfold(outdir, schemas, ref):
    doc, failures = _report(outdir, schemas, {"pred": "pred_a.csv"}, ref)
    lines = (outdir / "assignments.csv").read_text().splitlines()
    if lines[0] != "unit_id,fold":
        return failures + [f"assignments.csv header {lines[0]!r}"]
    units = [line.split(",") for line in lines[1:]]
    ids = [u for u, _ in units]
    want = {f"p{i + 1:05d}" for i in range(ref.n_patients)}
    if len(ids) != len(set(ids)) or set(ids) != want:
        failures.append(f"{len(ids)} assignments for {len(set(ids))} distinct units, "
                        f"expected each of {len(want)} patients once")
    k = doc["config"]["k"]
    folds = [int(f) for _, f in units]
    sizes = np.bincount(folds, minlength=k).tolist()
    if min(folds) < 0 or max(folds) >= k or max(sizes) - min(sizes) > 1:
        failures.append(f"fold sizes {sizes} for k={k}")
    if doc["results"]["fold_sizes"] != sizes:
        failures.append(f"report fold sizes {doc['results']['fold_sizes']}, assignments give {sizes}")
    return failures


def _fusion_demo(outdir, schemas, ref):
    doc, failures = _report(outdir, schemas, {}, ref)
    try:
        jsonschema.validate(strict_json(outdir / "params.json"), schemas[doc["schema"]])
    except jsonschema.ValidationError as exc:
        failures.append(f"params.json fails the schema: {exc.message}")
    cfg, res = doc["config"], doc["results"]
    if res["train"]["epochs_run"] != cfg["epochs"]:
        failures.append(f"{res['train']['epochs_run']} epochs run, {cfg['epochs']} asked for")
    loss = res["train"]["final_train_loss"]
    if not (isinstance(loss, float) and 0.0 <= loss < np.log(3.0)):
        failures.append(f"final training loss {loss} is not below the chance-level loss ln 3")
    counts = np.array(res["holdout_report"]["confusion_matrix"]["counts"], dtype=np.float64)
    n_hold = round(cfg["n_samples"] * cfg["holdout_frac"])
    if counts.sum() != n_hold:
        failures.append(f"holdout confusion total {counts.sum()}, expected {n_hold}")
    acc = res["train"]["holdout_accuracy"]
    if not _close(acc, np.trace(counts) / counts.sum(), 1e-12):
        failures.append(f"holdout accuracy {acc}, confusion matrix gives {np.trace(counts) / counts.sum()}")
    if not acc >= FUSION_MIN_ACCURACY:
        failures.append(f"holdout accuracy {acc} below {FUSION_MIN_ACCURACY}")
    return failures


CHECKS = {
    "evaluate_image": _evaluate("image"),
    "evaluate_patient": _evaluate("patient"),
    "evaluate_weighted": _evaluate("weighted"),
    "compare": _compare,
    "readers": _readers,
    "kfold": _kfold,
    "fusion_demo": _fusion_demo,
}
KEEP_FILES = ("report.json", "params.json", "assignments.csv")


def check_op(name: str, outdir: Path, schemas: dict, ref: Reference | None) -> list[str]:
    """Failures of one op kind's kept outputs; a crash of the check is a failure too."""
    try:
        return CHECKS[name](outdir, schemas, ref)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"{name}: unreadable output: {exc!r}"]
