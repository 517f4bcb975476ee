"""Core data model: class labels, prediction/reader records, datasets, folds, synthesis.

The three diagnostic classes are ordered by severity: A-EGJA (index 0) is the
most severe, E-EGJA (index 1) intermediate, control (index 2) least. All
tie-breaking in the toolkit resolves toward the lower index, i.e. the more
severe class.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "ClassLabel",
    "CLASS_ORDER",
    "ParseError",
    "PredictionRecord",
    "ReaderRecord",
    "Dataset",
    "DatasetSummary",
    "FoldSpec",
    "SynthSpec",
    "argmax_severity",
    "parse_label",
    "parse_predictions",
    "serialize_predictions",
    "parse_readers",
    "serialize_readers",
    "summarize",
    "kfold_split",
    "fold_datasets",
    "synth_generate",
]

PROB_SUM_TOL_STRICT = 1e-6
PROB_SUM_TOL_LAX = 1e-3

PRED_BASE_COLUMNS = ("image_id", "patient_id", "true_label", "p_aegja", "p_eegja", "p_control")
PRED_OPT_COLUMNS = ("center", "modality", "sex", "age")
READER_BASE_COLUMNS = ("reader_id", "group", "arm", "image_id", "pred_label")
READER_GROUPS = ("trainee", "competent", "expert")
READER_ARMS = ("A", "B")


class ClassLabel(IntEnum):
    """Diagnostic class, ordered most to least severe."""

    AEGJA = 0
    EEGJA = 1
    CONTROL = 2

    @property
    def display(self) -> str:
        return _DISPLAY[self]

    @property
    def slug(self) -> str:
        """Lowercase token used in file names and CLI flags."""
        return _SLUG[self]


_DISPLAY = {ClassLabel.AEGJA: "A-EGJA", ClassLabel.EEGJA: "E-EGJA", ClassLabel.CONTROL: "control"}
_SLUG = {ClassLabel.AEGJA: "aegja", ClassLabel.EEGJA: "eegja", ClassLabel.CONTROL: "control"}
CLASS_ORDER: tuple[ClassLabel, ClassLabel, ClassLabel] = (
    ClassLabel.AEGJA,
    ClassLabel.EEGJA,
    ClassLabel.CONTROL,
)

_LABEL_ALIASES = {
    "a-egja": ClassLabel.AEGJA,
    "e-egja": ClassLabel.EEGJA,
    "control": ClassLabel.CONTROL,
    "aegja": ClassLabel.AEGJA,
    "eegja": ClassLabel.EEGJA,
    "0": ClassLabel.AEGJA,
    "1": ClassLabel.EEGJA,
    "2": ClassLabel.CONTROL,
}


class ParseError(ValueError):
    """Malformed input file. ``row`` is the 1-based file line when known
    (the header is line 1, so the first data row is line 2)."""

    def __init__(self, message: str, row: int | None = None):
        self.row = row
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)


def parse_label(token: str, row: int | None = None) -> ClassLabel:
    """Parse a class label from its display name or numeric index, case-insensitively."""
    key = token.strip().lower()
    try:
        return _LABEL_ALIASES[key]
    except KeyError:
        raise ParseError(f"unknown class label {token!r}", row) from None


def argmax_severity(probs: Sequence[float]) -> ClassLabel:
    """Index of the largest probability; ties resolve to the more severe class.

    Canonical class order equals severity order, so the first maximum wins.
    """
    best = 0
    for i in (1, 2):
        if probs[i] > probs[best]:
            best = i
    return ClassLabel(best)


@dataclass(frozen=True)
class PredictionRecord:
    """One image-level model prediction with its ground truth."""

    image_id: str
    patient_id: str
    truth: ClassLabel
    probs: tuple[float, float, float]
    center: str | None = None
    modality: str | None = None
    sex: str | None = None
    age: float | None = None

    @property
    def pred(self) -> ClassLabel:
        return argmax_severity(self.probs)


@dataclass(frozen=True)
class ReaderRecord:
    """One human reader's call on one image."""

    reader_id: str
    group: str
    arm: str
    image_id: str
    pred: ClassLabel
    elapsed_s: float | None = None


@dataclass(frozen=True)
class Dataset:
    """Immutable collection of prediction records with a patient lookup index."""

    records: tuple[PredictionRecord, ...]
    patient_index: dict[str, tuple[int, ...]] = field(compare=False, default_factory=dict)
    renormalized: int = field(compare=False, default=0)

    @classmethod
    def from_records(cls, records: Iterable[PredictionRecord], renormalized: int = 0) -> "Dataset":
        recs = tuple(records)
        seen_images: set[str] = set()
        truths: dict[str, ClassLabel] = {}
        index: dict[str, list[int]] = {}
        for pos, r in enumerate(recs):
            if r.image_id in seen_images:
                raise ParseError(f"duplicate image_id {r.image_id!r}")
            seen_images.add(r.image_id)
            prev = truths.setdefault(r.patient_id, r.truth)
            if prev != r.truth:
                raise ParseError(f"conflicting true labels for patient {r.patient_id!r}")
            index.setdefault(r.patient_id, []).append(pos)
        frozen = {pid: tuple(ix) for pid, ix in index.items()}
        return cls(records=recs, patient_index=frozen, renormalized=renormalized)

    def __len__(self) -> int:
        return len(self.records)

    def truth_array(self) -> np.ndarray:
        return np.array([r.truth for r in self.records], dtype=np.int64)

    def pred_array(self) -> np.ndarray:
        return np.array([r.pred for r in self.records], dtype=np.int64)

    def probs_matrix(self) -> np.ndarray:
        return np.array([r.probs for r in self.records], dtype=np.float64)

    def patient_truth(self, patient_id: str) -> ClassLabel:
        return self.records[self.patient_index[patient_id][0]].truth


def _parse_probs(fields: dict[str, str], row: int, strict: bool) -> tuple[tuple[float, float, float], bool]:
    vals = []
    for col in ("p_aegja", "p_eegja", "p_control"):
        try:
            v = float(fields[col])
        except ValueError:
            raise ParseError(f"non-numeric probability in column {col}: {fields[col]!r}", row) from None
        if not math.isfinite(v) or v < 0.0 or v > 1.0:
            raise ParseError(f"probability out of range in column {col}: {fields[col]!r}", row)
        vals.append(v)
    total = vals[0] + vals[1] + vals[2]
    dev = abs(total - 1.0)
    tol = PROB_SUM_TOL_STRICT if strict else PROB_SUM_TOL_LAX
    if dev > tol:
        raise ParseError(f"probabilities sum to {total!r}, deviation {dev:.3g} exceeds tolerance {tol:g}", row)
    if dev > PROB_SUM_TOL_STRICT:
        vals = [v / total for v in vals]
        return (vals[0], vals[1], vals[2]), True
    return (vals[0], vals[1], vals[2]), False


def parse_predictions(source: str, strict: bool = False) -> Dataset:
    """Parse a predictions CSV into a validated Dataset.

    In strict mode the three probabilities must sum to 1 within 1e-6. Otherwise
    deviations up to 1e-3 are renormalized and tallied on ``Dataset.renormalized``;
    larger deviations are errors in both modes. LF and CRLF line endings are accepted.
    """
    reader = csv.reader(io.StringIO(source, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("empty file") from None
    header = [h.strip() for h in header]
    if tuple(header[: len(PRED_BASE_COLUMNS)]) != PRED_BASE_COLUMNS:
        raise ParseError(
            f"header must start with {','.join(PRED_BASE_COLUMNS)}; got {','.join(header)}"
        )
    extras = header[len(PRED_BASE_COLUMNS) :]
    for col in extras:
        if col not in PRED_OPT_COLUMNS:
            raise ParseError(f"unknown column {col!r}")
    records: list[PredictionRecord] = []
    renorm = 0
    for row_no, raw in enumerate(reader, start=2):
        if not raw or (len(raw) == 1 and not raw[0].strip()):
            continue  # ignore blank lines
        if len(raw) != len(header):
            raise ParseError(f"expected {len(header)} fields, got {len(raw)}", row_no)
        fields = dict(zip(header, (f.strip() for f in raw)))
        truth = parse_label(fields["true_label"], row_no)
        probs, was_renormalized = _parse_probs(fields, row_no, strict)
        renorm += int(was_renormalized)
        age: float | None = None
        if fields.get("age"):
            try:
                age = float(fields["age"])
            except ValueError:
                raise ParseError(f"non-numeric age {fields['age']!r}", row_no) from None
            if not math.isfinite(age) or age < 0:
                raise ParseError(f"age must be finite and non-negative, got {fields['age']!r}", row_no)
        records.append(
            PredictionRecord(
                image_id=fields["image_id"],
                patient_id=fields["patient_id"],
                truth=truth,
                probs=probs,
                center=fields.get("center") or None,
                modality=fields.get("modality") or None,
                sex=fields.get("sex") or None,
                age=age,
            )
        )
    if not records:
        raise ParseError("no data rows")
    return Dataset.from_records(records, renormalized=renorm)


def _fmt(v: float) -> str:
    return repr(float(v))


def serialize_predictions(ds: Dataset) -> str:
    """Serialize a Dataset to CSV text (LF line endings, shortest-repr floats)."""
    has_opt = {
        "center": any(r.center is not None for r in ds.records),
        "modality": any(r.modality is not None for r in ds.records),
        "sex": any(r.sex is not None for r in ds.records),
        "age": any(r.age is not None for r in ds.records),
    }
    opt_cols = [c for c in PRED_OPT_COLUMNS if has_opt[c]]
    lines = [",".join(PRED_BASE_COLUMNS + tuple(opt_cols))]
    for r in ds.records:
        row = [r.image_id, r.patient_id, r.truth.display, _fmt(r.probs[0]), _fmt(r.probs[1]), _fmt(r.probs[2])]
        for c in opt_cols:
            v = getattr(r, c)
            if v is None:
                row.append("")
            elif c == "age":
                row.append(_fmt(v))
            else:
                row.append(str(v))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def parse_readers(source: str) -> tuple[ReaderRecord, ...]:
    """Parse a reader-study CSV. (reader_id, image_id) pairs must be unique."""
    reader = csv.reader(io.StringIO(source, newline=""))
    try:
        header = [h.strip() for h in next(reader)]
    except StopIteration:
        raise ParseError("empty file") from None
    if tuple(header[: len(READER_BASE_COLUMNS)]) != READER_BASE_COLUMNS:
        raise ParseError(
            f"header must start with {','.join(READER_BASE_COLUMNS)}; got {','.join(header)}"
        )
    has_elapsed = len(header) > len(READER_BASE_COLUMNS)
    if has_elapsed and header[len(READER_BASE_COLUMNS) :] != ["elapsed_s"]:
        raise ParseError(f"unexpected trailing columns {header[len(READER_BASE_COLUMNS):]}")
    out: list[ReaderRecord] = []
    seen: set[tuple[str, str]] = set()
    for row_no, raw in enumerate(reader, start=2):
        if not raw or (len(raw) == 1 and not raw[0].strip()):
            continue
        if len(raw) != len(header):
            raise ParseError(f"expected {len(header)} fields, got {len(raw)}", row_no)
        fields = dict(zip(header, (f.strip() for f in raw)))
        group = fields["group"].lower()
        if group not in READER_GROUPS:
            raise ParseError(f"unknown reader group {fields['group']!r}", row_no)
        arm = fields["arm"].upper()
        if arm not in READER_ARMS:
            raise ParseError(f"unknown study arm {fields['arm']!r}", row_no)
        key = (fields["reader_id"], fields["image_id"])
        if key in seen:
            raise ParseError(f"duplicate (reader_id, image_id) pair {key!r}", row_no)
        seen.add(key)
        elapsed: float | None = None
        if has_elapsed and fields.get("elapsed_s"):
            try:
                elapsed = float(fields["elapsed_s"])
            except ValueError:
                raise ParseError(f"non-numeric elapsed_s {fields['elapsed_s']!r}", row_no) from None
            if not math.isfinite(elapsed) or elapsed < 0:
                raise ParseError(f"elapsed_s out of range: {elapsed!r}", row_no)
        out.append(
            ReaderRecord(
                reader_id=fields["reader_id"],
                group=group,
                arm=arm,
                image_id=fields["image_id"],
                pred=parse_label(fields["pred_label"], row_no),
                elapsed_s=elapsed,
            )
        )
    if not out:
        raise ParseError("no data rows")
    return tuple(out)


def serialize_readers(records: Sequence[ReaderRecord]) -> str:
    has_elapsed = any(r.elapsed_s is not None for r in records)
    cols = READER_BASE_COLUMNS + (("elapsed_s",) if has_elapsed else ())
    lines = [",".join(cols)]
    for r in records:
        row = [r.reader_id, r.group, r.arm, r.image_id, r.pred.display]
        if has_elapsed:
            row.append("" if r.elapsed_s is None else _fmt(r.elapsed_s))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class DatasetSummary:
    """Composition counts for a dataset, patient- and image-level."""

    patients: int
    images: int
    patients_by_class: dict[str, int]
    images_by_class: dict[str, int]
    patients_by_sex: dict[str, int]
    age_mean: float | None
    age_sd: float | None
    age_bands: dict[str, int]

    def as_dict(self) -> dict:
        return {
            "patients": self.patients,
            "images": self.images,
            "patients_by_class": dict(self.patients_by_class),
            "images_by_class": dict(self.images_by_class),
            "patients_by_sex": dict(self.patients_by_sex),
            "age_mean": self.age_mean,
            "age_sd": self.age_sd,
            "age_bands": dict(self.age_bands),
        }


def age_band(age: float) -> str:
    """Band an age into lt60 / 60to69 / ge70. 60 lands in the middle band, 70 in the upper."""
    if age < 60:
        return "lt60"
    if age < 70:
        return "60to69"
    return "ge70"


def summarize(ds: Dataset) -> DatasetSummary:
    """Patient and image composition of a dataset, including demographics when present."""
    pat_class: dict[str, int] = {c.display: 0 for c in CLASS_ORDER}
    img_class: dict[str, int] = {c.display: 0 for c in CLASS_ORDER}
    sex_counts: dict[str, int] = {}
    ages: list[float] = []
    bands = {"lt60": 0, "60to69": 0, "ge70": 0}
    for pid, positions in ds.patient_index.items():
        first = ds.records[positions[0]]
        pat_class[first.truth.display] += 1
        if first.sex is not None:
            sex_counts[first.sex] = sex_counts.get(first.sex, 0) + 1
        if first.age is not None:
            ages.append(first.age)
            bands[age_band(first.age)] += 1
    for r in ds.records:
        img_class[r.truth.display] += 1
    age_mean = float(np.mean(ages)) if ages else None
    age_sd = float(np.std(ages, ddof=1)) if len(ages) > 1 else None
    return DatasetSummary(
        patients=len(ds.patient_index),
        images=len(ds.records),
        patients_by_class=pat_class,
        images_by_class=img_class,
        patients_by_sex=sex_counts,
        age_mean=age_mean,
        age_sd=age_sd,
        age_bands=bands,
    )


@dataclass(frozen=True)
class FoldSpec:
    """A k-fold assignment of units (patients or images) to folds 0..k-1."""

    k: int
    unit: str  # "patient" | "image"
    seed: int
    assignments: dict[str, int]

    def members(self, fold: int) -> tuple[str, ...]:
        return tuple(u for u, f in self.assignments.items() if f == fold)

    def fold_sizes(self) -> list[int]:
        sizes = [0] * self.k
        for f in self.assignments.values():
            sizes[f] += 1
        return sizes


def kfold_split(ds: Dataset, k: int, unit: str = "patient", seed: int = 0) -> FoldSpec:
    """Deterministic k-fold split over patients (default) or images.

    Patient mode keeps all images of a patient in one fold. Fold sizes differ
    by at most one unit. The split is a pure function of (seed, dataset order).
    """
    if unit not in ("patient", "image"):
        raise ValueError(f"unit must be 'patient' or 'image', got {unit!r}")
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if unit == "patient":
        units = list(ds.patient_index.keys())  # first-appearance order
    else:
        units = [r.image_id for r in ds.records]
    if len(units) < k:
        raise ValueError(f"cannot split {len(units)} {unit}s into {k} folds")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(units))
    assignments: dict[str, int] = {}
    for fold, chunk in enumerate(np.array_split(order, k)):
        for idx in chunk:
            assignments[units[int(idx)]] = fold
    return FoldSpec(k=k, unit=unit, seed=seed, assignments=assignments)


def fold_datasets(ds: Dataset, spec: FoldSpec, fold: int) -> tuple[Dataset, Dataset]:
    """(train, test) datasets for one fold of a FoldSpec."""
    if not 0 <= fold < spec.k:
        raise ValueError(f"fold {fold} out of range for k={spec.k}")
    test_recs, train_recs = [], []
    for r in ds.records:
        key = r.patient_id if spec.unit == "patient" else r.image_id
        (test_recs if spec.assignments[key] == fold else train_recs).append(r)
    return Dataset.from_records(train_recs), Dataset.from_records(test_recs)


@dataclass(frozen=True)
class SynthSpec:
    """Configuration for synthetic dataset generation.

    ``separation`` shifts each class's logit cluster along its own axis;
    0 removes all class signal, ``math.inf`` emits exact one-hot vectors.
    """

    patients_per_class: tuple[int, int, int] = (44, 18, 50)
    images_min: int = 1
    images_max: int = 20
    separation: float = 3.0
    seed: int = 0
    demographics: bool = True


_SYNTH_CENTERS = ("C1", "C2", "C3")
_SYNTH_MODALITIES = ("WLI", "NBI")


def synth_generate(spec: SynthSpec) -> Dataset:
    """Generate a synthetic prediction dataset from logit-normal class clusters.

    Per image of class k, logits are N(0,1) draws plus ``separation`` on
    coordinate k, pushed through softmax. Deterministic for a fixed spec.
    """
    if spec.images_min < 1 or spec.images_max < spec.images_min:
        raise ValueError("need 1 <= images_min <= images_max")
    if spec.separation < 0:
        raise ValueError("separation must be >= 0")
    rng = np.random.default_rng(spec.seed)
    records: list[PredictionRecord] = []
    patient_no = 0
    image_no = 0
    for cls, n_pat in zip(CLASS_ORDER, spec.patients_per_class):
        for _ in range(n_pat):
            patient_no += 1
            pid = f"p{patient_no:04d}"
            n_img = int(rng.integers(spec.images_min, spec.images_max + 1))
            if spec.demographics:
                sex = str(rng.choice(["male", "female"]))
                age = float(rng.integers(40, 86))
                center = str(rng.choice(_SYNTH_CENTERS))
            else:
                sex = age = center = None
            for _ in range(n_img):
                image_no += 1
                if math.isinf(spec.separation):
                    probs = [0.0, 0.0, 0.0]
                    probs[cls] = 1.0
                else:
                    logits = rng.normal(0.0, 1.0, 3)
                    logits[cls] += spec.separation
                    z = logits - logits.max()
                    e = np.exp(z)
                    probs = list(e / e.sum())
                modality = str(rng.choice(_SYNTH_MODALITIES)) if spec.demographics else None
                records.append(
                    PredictionRecord(
                        image_id=f"img{image_no:05d}",
                        patient_id=pid,
                        truth=cls,
                        probs=(float(probs[0]), float(probs[1]), float(probs[2])),
                        center=center,
                        modality=modality,
                        sex=sex,
                        age=age,
                    )
                )
    return Dataset.from_records(records)


def subgroup(ds: Dataset, predicate: Callable[[PredictionRecord], bool], name: str = "") -> Dataset:
    """Filter a dataset to records matching ``predicate``. Empty result is an error."""
    recs = [r for r in ds.records if predicate(r)]
    if not recs:
        raise ValueError(f"subgroup {name or predicate!r} selected no records")
    return Dataset.from_records(recs)


def sex_is(sex: str) -> Callable[[PredictionRecord], bool]:
    return lambda r: r.sex is not None and r.sex.lower() == sex.lower()


def age_in_band(band: str) -> Callable[[PredictionRecord], bool]:
    if band not in ("lt60", "60to69", "ge70"):
        raise ValueError(f"unknown age band {band!r}")
    return lambda r: r.age is not None and age_band(r.age) == band


def center_is(center: str) -> Callable[[PredictionRecord], bool]:
    return lambda r: r.center == center


def modality_is(modality: str) -> Callable[[PredictionRecord], bool]:
    return lambda r: r.modality == modality
