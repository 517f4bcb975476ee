"""Core data model: class labels, the columnar prediction dataset and reader
table, folds, synthesis.

The three diagnostic classes are ordered by severity: A-EGJA (index 0) is the
most severe, E-EGJA (index 1) intermediate, control (index 2) least. All
tie-breaking in the toolkit resolves toward the lower index, i.e. the more
severe class.
"""

from __future__ import annotations

import csv
import gc
import math
import re
from contextlib import contextmanager
from dataclasses import dataclass
from enum import IntEnum
from itertools import chain, count, repeat
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import forking

__all__ = [
    "ClassLabel",
    "CLASS_ORDER",
    "ParseError",
    "Readers",
    "Dataset",
    "FOLD_UNITS",
    "SynthSpec",
    "parse_predictions",
    "csv_text",
    "parse_readers",
    "summarize",
    "kfold_split",
    "fold_datasets",
    "synth_generate",
]

PROB_SUM_TOL_STRICT = 1e-6
PROB_SUM_TOL_LAX = 1e-3
# The largest accepted age (years) and reader time (seconds, one day): below
# them no mean or SD the reports take can overflow.
_AGE_MAX = 150
_ELAPSED_MAX_S = 86400

PRED_BASE_COLUMNS = ("image_id", "patient_id", "true_label", "p_aegja", "p_eegja", "p_control")
PRED_OPT_COLUMNS = ("center", "modality", "sex", "age")
READER_BASE_COLUMNS = ("reader_id", "group", "arm", "image_id", "pred_label")
READER_GROUPS = ("trainee", "competent", "expert")
READER_ARMS = ("A", "B")
READER_CELLS = tuple((g, a) for g in READER_GROUPS for a in READER_ARMS)  # by cell code
_BOM = "\ufeff"  # a byte order mark, as spreadsheet exports write it
_BLOCK_ROWS = 8192  # data lines (or csv records, blank ones too) tokenized and validated at a time
# A plain predictions text of at least this many characters is parsed in two
# processes (``parse_predictions``): a fork costs a few ms that a small text
# does not win back. In-process medians over 15 alternating pairs on a 2-core
# VM (two CPU-bound processes took 1.0-2.1x as long as one), serial ->
# forked: 5.1 -> 10.9 ms at 0.12M characters (1.2k rows), 14.0 -> 19.6 ms at
# 0.41M (forking won 1 of 15 pairs), 29.8 -> 31.2 ms at 0.82M (8 of 15),
# 52.0 -> 44.0 ms at 1.2M (13 of 15), 69.3 -> 57.9 ms at 1.6M (13 of 15) and
# 558 -> 342 ms at 12M (15 of 15). The crossover is near 0.8M characters, so
# 2**21 leaves a margin of 2.6.
FORK_MIN_CHARS = 1 << 21
# a line as io.StringIO(newline="") reads it: up to and including \n, \r or \r\n
_LINE = re.compile(r"[^\r\n]*(?:\r\n?|\n)|[^\r\n]+")
_NEEDS_QUOTES = re.compile(r'[,"\r\n]').search  # a written field holding one of these is quoted
# the ASCII characters str.strip removes but CR and LF, which no plain field holds
_ASCII_SPACE = " \t\x0b\x0c\x1c\x1d\x1e\x1f"
# one block of data rows: the file line each row starts on, columns by header name
_Rows = tuple[Sequence[int], dict[str, list[str]]]
# what one block's checks give: its first failing row, its text columns and its arrays
_Checked = tuple["_FirstFailure", dict[str, Iterable[str]], dict[str, np.ndarray]]
# what ``_read_rows`` gathers: text columns, each block's arrays, each block's row lines
_Gathered = tuple[dict[str, list], dict[str, list[np.ndarray]], list[Sequence[int]]]


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


class _CrossRowFault(ParseError):
    """A fault between rows that ``Dataset.from_columns`` finds; ``index``
    is the data row where it shows, so a parser can name the file line."""

    def __init__(self, message: str, index: int):
        self.index = index
        super().__init__(message)


@dataclass(frozen=True, eq=False)
class Dataset:
    """Image-level predictions as columns, one row per image, and the sex
    and age of each patient.

    ``patient_ids`` lists every patient once, in first-appearance order;
    ``patient_codes[i]`` is the position there of row i's patient and
    ``patient_first_row[k]`` the row of patient k's first image. ``pred`` is
    the argmax of ``probs``: the first maximum wins, so ties go to the more
    severe class. ``sex`` and ``age`` have one entry per patient, in
    ``patient_ids`` order: None and NaN where it has no value. Build with
    ``from_columns``.
    """

    image_ids: tuple[str, ...]
    patient_ids: tuple[str, ...]
    patient_codes: np.ndarray
    patient_first_row: np.ndarray
    truth: np.ndarray
    probs: np.ndarray
    pred: np.ndarray
    sex: tuple[str | None, ...]
    age: np.ndarray
    renormalized: int = 0

    @classmethod
    def from_columns(
        cls,
        image_ids: Iterable[str],
        patient_ids: Iterable[str],
        truth,
        probs,
        *,
        sex: Sequence[str | None] | None = None,
        age=None,
        renormalized: int = 0,
    ) -> "Dataset":
        """Index per-row columns (``patient_ids``, ``sex`` and ``age`` have
        one entry per row; a ``sex`` or ``age`` of None is no value on any
        row). A patient's sex and age are those of its first row.

        Image ids must be unique and a patient's images must share one true
        label; otherwise the first row that breaks either rule is reported.
        An int64 ``truth`` or a float64 ``probs`` array is kept without a
        copy, behind a read-only view: do not write to it later.
        """
        image_ids = tuple(image_ids)
        row_patients = tuple(patient_ids)
        n = len(image_ids)
        patients: dict[str, int] = {}
        codes = _id_codes(row_patients, patients)
        first_row = np.unique(codes, return_index=True)[1].astype(np.int64)
        truth = np.asarray(truth, dtype=np.int64).reshape(n)
        probs = np.asarray(probs, dtype=np.float64).reshape(n, 3)
        conflicts = np.flatnonzero(truth != truth[first_row][codes])
        if len(set(image_ids)) < n or conflicts.size:
            dup = _first_repeat(image_ids)
            if dup is not None and (not conflicts.size or dup <= conflicts[0]):
                raise _CrossRowFault(f"duplicate image_id {image_ids[dup]!r}", dup)
            bad = int(conflicts[0])
            raise _CrossRowFault(f"conflicting true labels for patient {row_patients[bad]!r}", bad)
        age = np.full(len(patients), np.nan) if age is None else np.asarray(age, dtype=np.float64).reshape(n)[first_row]
        columns = dict(
            patient_codes=codes, patient_first_row=first_row,
            truth=truth, probs=probs, pred=probs.argmax(axis=1), age=age,
        )
        for arr in columns.values():
            arr.flags.writeable = False
        return cls(
            image_ids=image_ids,
            patient_ids=tuple(patients),
            sex=(None,) * len(patients) if sex is None else tuple(map(sex.__getitem__, first_row.tolist())),
            renormalized=renormalized,
            **columns,
        )

    def __len__(self) -> int:
        return len(self.image_ids)

    def patient_counts(self) -> np.ndarray:
        """Images per patient, in ``patient_ids`` order."""
        return np.bincount(self.patient_codes, minlength=len(self.patient_ids))


def _first_repeat(values: Sequence[str]) -> int | None:
    seen: set[str] = set()
    for pos, v in enumerate(values):
        if v in seen:
            return pos
        seen.add(v)
    return None


def _floats(col: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """``float()`` of every entry (NaN where it raises) and the mask of those."""
    try:
        return np.fromiter(map(float, col), np.float64, len(col)), np.zeros(len(col), dtype=bool)
    except ValueError:
        pass
    vals = np.full(len(col), np.nan)
    bad = np.zeros(len(col), dtype=bool)
    for i, s in enumerate(col):
        try:
            vals[i] = float(s)
        except ValueError:
            bad[i] = True
    return vals, bad


def _bounded(fail: _FirstFailure, raw: list[str], name: str, hi: int, unit: str = "") -> np.ndarray:
    """A column of numbers in [0, ``hi``], NaN where blank. A non-numeric
    entry, then one out of range, goes to ``fail``."""
    given = np.fromiter(map(len, raw), np.int64, len(raw)) > 0
    vals, non_numeric = _floats(raw if given.all() else [v or "nan" for v in raw])
    fail.check(non_numeric, lambda i: f"non-numeric {name} {raw[i]!r}")
    fail.check(given & ~((vals >= 0) & (vals <= hi)), lambda i: f"{name} must be in [0, {hi}]{unit}, got {raw[i]!r}")
    return vals


def _codes(col: list[str], table: dict[str, int], fold: Callable[[str], str] = str.lower) -> np.ndarray:
    """``table[fold(token)]`` of every token (-1 where absent), once per distinct token."""
    codes = {tok: int(table.get(fold(tok), -1)) for tok in set(col)}
    return np.fromiter(map(codes.__getitem__, col), np.int64, len(col))


def _id_codes(ids: Sequence[str], codes: dict[str, int]) -> np.ndarray:
    """Per row, a code shared by equal ids: their entry in ``codes``, where
    ids new to it are added. Pass one dict to several calls to share codes."""
    codes.update(zip([v for v in dict.fromkeys(ids) if v not in codes], count(len(codes))))
    return np.fromiter(map(codes.__getitem__, ids), np.int64, len(ids))


class _FirstFailure:
    """The earliest row that any check rejects. Checks run in the order a
    row is validated, so at one row the earlier check's message wins."""

    def __init__(self) -> None:
        self.index: int | None = None
        self.message = ""

    def check(self, bad: np.ndarray, message: Callable[[int], str]) -> None:
        hits = np.flatnonzero(bad)
        if hits.size and (self.index is None or hits[0] < self.index):
            self.index = int(hits[0])
            self.message = message(self.index)

    def empty(self, cols: dict[str, list[str]], names: tuple[str, ...]) -> None:
        for name in names:
            col = cols[name]
            if "" in col:
                self.check(np.fromiter(map(len, col), np.int64, len(col)) == 0, lambda i, name=name: f"empty {name}")

    def raise_first(self, lines: Sequence[int]) -> None:
        """Raise the first failing row's error, if any, at its file line:
        the checks ran on rows that start on file lines ``lines``."""
        if self.index is not None:
            raise ParseError(self.message, lines[self.index])


@contextmanager
def _gc_paused():
    """Pause cyclic garbage collection, then restore the caller's state.

    The parsers read their blocks under it: a block allocates a list per
    ``csv`` row and per column, and collecting as they come and go is wasted
    work, since they hold only strings."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()


def _table(source: str) -> tuple[list[str], int | None, Iterator[_Rows]]:
    """The stripped header fields; the offset of the first data line when
    the text is plain (see below), None otherwise; and the data rows in
    blocks of at most ``_BLOCK_ROWS`` lines or ``csv`` records. A leading
    byte order mark is ignored.

    When the text has no quote or CR (a CR ends a line for ``csv``) and its
    header line has a comma and fits ``csv.field_size_limit()``, every line
    is one record; each block of lines is then split on newlines and commas
    when ``csv`` would read it as plain fields (see ``_plain_blocks``), and
    read by ``csv`` otherwise. Any other file is read by ``csv`` throughout.
    Both give the same fields and errors. The text is read by offset, never
    copied whole."""
    start = len(_BOM) if source.startswith(_BOM) else 0
    if not ('"' in source or "\r" in source):
        end = source.find("\n", start)
        head = source[start:end]
        if end >= 0 and "," in head and len(head) <= csv.field_size_limit():
            header = [h.strip() for h in head.split(",")]
            return header, end + 1, _plain_blocks(source, end + 1, len(source), 2, header)
    reader = csv.reader(map(re.Match.group, _LINE.finditer(source, start)))
    try:
        header = [h.strip() for h in next(reader)]
    except StopIteration:
        raise ParseError("empty file") from None
    except csv.Error as exc:
        raise ParseError(str(exc), 1) from None
    return header, None, _data_rows(reader, header, 1)


def _plain_blocks(source: str, pos: int, stop: int, line: int, header: list[str]) -> Iterator[_Rows]:
    """The lines of plain text in ``source[pos:stop]``, the first on file
    line ``line`` (a final newline ends the last line), ``_BLOCK_ROWS`` at a
    time.

    A block whose lines all have the header's comma count, none longer than
    ``csv.field_size_limit()``, is split on newlines and commas. Any other
    block (blank lines, ragged rows, fields ``csv`` may reject) is read by
    ``csv``, so its row numbers and messages stay ``csv``'s own."""
    commas = len(header) - 1
    limit = csv.field_size_limit()
    end = stop - source.endswith("\n", pos, stop)
    # A text of fewer than _BLOCK_ROWS lines is one block, found by a count
    # that costs less than the scan; it is not counted when its lines would
    # average over 128 characters, so a long text is not walked for nothing.
    one_block = end - pos < 128 * _BLOCK_ROWS and source.count("\n", pos, end) < _BLOCK_ROWS
    lines_ahead = re.compile(f"(?:[^\\n]*\\n){{0,{_BLOCK_ROWS - 1}}}[^\\n]*")  # a block without its last newline
    while pos < stop:
        block_end = end if one_block else lines_ahead.match(source, pos, end).end()
        lines = source[pos:block_end].split("\n")
        first, line, pos = line, line + len(lines), block_end + 1
        if set(map(str.count, lines, repeat(","))) == {commas} and max(map(len, lines)) <= limit:
            yield range(first, line), _split_columns(lines, header)
        else:
            yield from _data_rows(csv.reader(lines), header, first)
        del lines  # before the next block's lines are made


def _split_columns(lines: list[str], header: list[str]) -> dict[str, list[str]]:
    """The stripped columns of plain data lines, one per header name. A block
    with no character ``str.strip`` removes is not stripped field by field."""
    text = ",".join(lines)
    fields = text.split(",")
    k = len(header)
    if text.isascii() and not any(c in text for c in _ASCII_SPACE):
        return {name: fields[j::k] for j, name in enumerate(header)}
    return {name: list(map(str.strip, fields[j::k])) for j, name in enumerate(header)}


def _data_rows(reader, header: list[str], line: int) -> Iterator[_Rows]:
    """The records of a ``csv`` reader whose first line is file line
    ``line``, in blocks of ``_BLOCK_ROWS`` records, blank ones counted but
    skipped. Each block holds the file line each row starts on (a range when
    they follow one another) and the rows as stripped columns, one per header
    name. A bad record ends them: its field count is wrong or ``csv`` rejects
    it, e.g. for a field over ``csv.field_size_limit()``. The block of rows
    before it is yielded, then its ParseError raised at the line it starts on."""
    rows: list[list[str]] = []
    starts: list[int] = []
    records = 0
    bad = None
    start = line + reader.line_num
    try:
        for raw in reader:
            if len(raw) == len(header):
                rows.append(raw)
                starts.append(start)
            elif raw and (len(raw) > 1 or raw[0].strip()):  # not a blank line
                bad = ParseError(f"expected {len(header)} fields, got {len(raw)}", start)
                break
            records += 1
            if records == _BLOCK_ROWS:
                yield _csv_block(starts, rows, header)
                rows, starts, records = [], [], 0
            start = line + reader.line_num
    except csv.Error as exc:
        bad = ParseError(str(exc), start)
    if records or bad is not None:
        yield _csv_block(starts, rows, header)
    if bad is not None:
        raise bad


def _csv_block(starts: list[int], rows: list[list[str]], header: list[str]) -> _Rows:
    """A block of ``csv`` rows that start on file lines ``starts``: those
    lines, as a range when they follow one another, and the stripped
    columns, one per header name."""
    if starts and starts[-1] - starts[0] == len(starts) - 1:
        starts = range(starts[0], starts[-1] + 1)
    columns = zip(*rows) if rows else [()] * len(header)
    return starts, {name: list(map(str.strip, col)) for name, col in zip(header, columns)}


def _check_header(header: list[str], base: tuple[str, ...]) -> list[str]:
    """The columns of ``header`` after ``base``, which it must start with."""
    if tuple(header[: len(base)]) != base:
        raise ParseError(f"header must start with {','.join(base)}; got {','.join(header)}")
    return header[len(base) :]


def _prediction_block(
    cols: dict[str, list[str]], strict: bool, names: tuple[str, ...], shared: dict[str, str | None]
) -> _Checked:
    """The first failing row of one block of prediction columns; its image
    ids and its text columns ``names``, with each distinct value as the one
    object ``shared`` holds (None for a blank); and its true labels,
    probabilities (renormalized where the sum drifts within tolerance), ages
    (when the file has them) and renormalized rows."""
    n = len(cols["image_id"])
    fail = _FirstFailure()
    fail.empty(cols, ("image_id", "patient_id"))
    tokens = cols["true_label"]
    truth = _codes(tokens, _LABEL_ALIASES)
    fail.check(truth < 0, lambda i: f"unknown class label {tokens[i]!r}")
    probs = np.empty((n, 3))
    for j, name in enumerate(("p_aegja", "p_eegja", "p_control")):
        col = cols[name]
        probs[:, j], non_numeric = _floats(col)
        fail.check(non_numeric, lambda i, name=name, col=col: f"non-numeric probability in column {name}: {col[i]!r}")
        v = probs[:, j]
        out_of_range = ~np.isfinite(v) | (v < 0.0) | (v > 1.0)
        fail.check(out_of_range, lambda i, name=name, col=col: f"probability out of range in column {name}: {col[i]!r}")
    total = probs[:, 0] + probs[:, 1] + probs[:, 2]
    dev = np.abs(total - 1.0)
    tol = PROB_SUM_TOL_STRICT if strict else PROB_SUM_TOL_LAX
    fail.check(
        dev > tol,
        lambda i: f"probabilities sum to {float(total[i])!r}, deviation {float(dev[i]):.3g} exceeds tolerance {tol:g}",
    )
    renorm = (dev > PROB_SUM_TOL_STRICT) & (dev <= tol)
    probs[renorm] /= total[renorm, None]
    arrays = {"truth": truth, "probs": probs, "renormalized": renorm}
    if "age" in cols:
        arrays["age"] = _bounded(fail, cols["age"], "age", _AGE_MAX)
    texts = {name: map(shared.setdefault, cols[name], cols[name]) for name in names}
    return fail, {"image_id": cols["image_id"], **texts}, arrays


def _read_rows(blocks: Iterable[_Rows], check: Callable[[dict[str, list[str]]], _Checked]) -> _Gathered:
    """Check blocks of data rows in order, and gather what the table keeps
    of them: the text columns, each block's arrays and each block's row
    lines. The first bad row raises its ParseError."""
    texts: dict[str, list] = {}
    arrays: dict[str, list[np.ndarray]] = {}
    lines: list[Sequence[int]] = []
    for block_lines, cols in blocks:
        fail, block_texts, block_arrays = check(cols)
        fail.raise_first(block_lines)
        for name, col in block_texts.items():
            texts.setdefault(name, []).extend(col)
        for name, arr in block_arrays.items():
            arrays.setdefault(name, []).append(arr)
        lines.append(block_lines)
        del cols, block_texts  # before the next block is split
    return texts, arrays, lines


def _joined(first: _Gathered, second: _Gathered) -> _Gathered:
    """``first`` with the rows ``_read_rows`` gathered in ``second`` after
    its own; once this returns, nothing else holds ``second``'s lists."""
    (texts, arrays, lines), (more_texts, more_arrays, more_lines) = first, second
    for mine, theirs in ((texts, more_texts), (arrays, more_arrays)):
        for name, items in theirs.items():
            mine.setdefault(name, []).extend(items)
    lines += more_lines
    return first


def parse_predictions(source: str, strict: bool = False) -> Dataset:
    """Parse a predictions CSV into a validated Dataset.

    In strict mode the three probabilities must sum to 1 within 1e-6. Otherwise
    deviations up to 1e-3 are renormalized and tallied on ``Dataset.renormalized``;
    larger deviations are errors in both modes. LF and CRLF line endings are
    accepted, and so is a leading UTF-8 byte order mark. The first bad row is
    reported at the file line it starts on (a quoted field may hold a line
    end), with the first of its faults in the order: field count (or a
    field ``csv`` rejects), empty ``image_id``/``patient_id``, label, each
    probability (number, range), sum, age. When every row passes, a
    duplicated ``image_id`` or a patient with two true labels is reported at
    the line that repeats it; the earlier line wins, and on one line the
    duplicate.

    The optional columns ``center``, ``modality``, ``sex`` and ``age`` may
    follow the base columns, each at most once. ``center`` and ``modality``
    count toward each row's fields but are not kept; a patient's ``sex`` and
    ``age`` are those of its first row.

    Rows are read and checked ``_BLOCK_ROWS`` at a time, and only the columns
    the Dataset keeps outlive a block. Equal ``sex`` values share one string
    object. Plain text (see ``_table``) of at least ``FORK_MIN_CHARS``
    characters is split at the first line that starts past its middle, and
    its halves are read by ``forking.run_forked``: the second by a forked
    child while this process reads the first where a second CPU is free,
    else one after the other here. Each half has its own string objects.
    Rows, errors and their order are those of reading the text whole, and
    the peak memory is about the same: once joined (``_joined``), the
    second half is held only in the first half's lists.
    """
    header, body, blocks = _table(source)
    extras = _check_header(header, PRED_BASE_COLUMNS)
    for pos, col in enumerate(extras):
        if col not in PRED_OPT_COLUMNS:
            raise ParseError(f"unknown column {col!r}")
        if col in extras[:pos]:
            raise ParseError(f"duplicate column {col!r}")
    names = tuple(c for c in ("patient_id", "sex") if c in header)
    shared: dict[str, str | None] = {"": None}

    def check(cols: dict[str, list[str]]) -> _Checked:
        return _prediction_block(cols, strict, names, shared)

    def rows(pos: int, stop: int, line: int) -> _Gathered:
        return _read_rows(_plain_blocks(source, pos, stop, line, header), check)

    split = body is not None and len(source) >= FORK_MIN_CHARS
    mid = source.find("\n", (body + len(source)) // 2) + 1 if split else 0  # the second half's first line
    with _gc_paused():
        if not 0 < mid < len(source):
            texts, arrays, lines = _read_rows(blocks, check)
        else:
            # the second half counts the lines before it; a row fault in the
            # first half wins, so a child reading the second is killed then
            texts, arrays, lines = _joined(*forking.run_forked(
                lambda: rows(body, mid, 2), lambda: rows(mid, len(source), 2 + source.count("\n", body, mid))))
    if not texts.get("image_id"):
        raise ParseError("no data rows")
    columns = {name: np.concatenate(arrays.pop(name)) for name in list(arrays)}  # each block list freed in turn
    try:
        return Dataset.from_columns(
            texts["image_id"],
            texts["patient_id"],
            columns["truth"],
            columns["probs"],
            sex=texts.get("sex"),
            age=columns.get("age"),
            renormalized=int(columns["renormalized"].sum()),
        )
    except _CrossRowFault as exc:
        raise ParseError(str(exc), list(chain.from_iterable(lines))[exc.index]) from None


def _csv_field(text: str) -> str:
    return '"' + text.replace('"', '""') + '"' if _NEEDS_QUOTES(text) else text


def csv_text(rows: Iterable[Sequence[str]]) -> str:
    """Rows of text fields as CSV with LF line ends (RFC 4180): a field
    holding a comma, a quote, CR or LF is quoted and its quotes doubled; any
    other field, an empty one too, is written as it is, except an empty
    field that is its row's only one: that is written ``""``, as
    ``csv.writer`` writes it, because an empty line reads back as no row.
    Every text table gjeval writes goes
    through it but the curve CSVs, whose fields are float reprs that never
    need quoting and are formatted in numpy, a block of rows at a time
    (``metrics.repr_bytes``, ``report._curve_pair_csvs``); keep the two
    writers apart."""
    return "".join([(",".join(map(_csv_field, row)) or ('""' if len(row) == 1 else "")) + "\n" for row in rows])


@dataclass(frozen=True, eq=False)
class Readers:
    """Reader calls as columns, one row per (reader, image) call, in file order.

    ``cell`` is each call's int64 position in ``READER_CELLS``, its (group,
    arm) pair. ``pred`` is the called class. ``elapsed_s`` is each call's
    time in seconds as float64, NaN where it has none: on every call when
    the file has no ``elapsed_s`` column. The arrays are read-only.
    """

    reader_ids: tuple[str, ...]
    image_ids: tuple[str, ...]
    cell: np.ndarray
    pred: np.ndarray
    elapsed_s: np.ndarray

    def __post_init__(self) -> None:
        for arr in (self.cell, self.pred, self.elapsed_s):
            arr.flags.writeable = False

    def __len__(self) -> int:
        return len(self.reader_ids)


def _reader_block(
    cols: dict[str, list[str]], shared: dict[str, str], codes: dict[str, int], pairs: set[int]
) -> _Checked:
    """The first failing row of one block of reader columns; its reader and
    image ids, each distinct id as the one object ``shared`` holds; and its
    cell, label and time columns. A (reader_id, image_id) pair repeats
    when it is in ``pairs`` (by the ``codes`` of its two ids), to which each
    pair is added as it is checked."""
    fail = _FirstFailure()
    fail.empty(cols, ("reader_id", "image_id"))
    groups, arms = cols["group"], cols["arm"]
    group = _codes(groups, {g: k for k, g in enumerate(READER_GROUPS)})
    fail.check(group < 0, lambda i: f"unknown reader group {groups[i]!r}")
    arm = _codes(arms, {a: k for k, a in enumerate(READER_ARMS)}, str.upper)
    fail.check(arm < 0, lambda i: f"unknown study arm {arms[i]!r}")
    rids = list(map(shared.setdefault, cols["reader_id"], cols["reader_id"]))
    iids = list(map(shared.setdefault, cols["image_id"], cols["image_id"]))
    keys = (_id_codes(rids, codes) << 32 | _id_codes(iids, codes)).tolist()
    seen = np.fromiter([key in pairs or pairs.add(key) for key in keys], bool, len(keys))  # each pair added as seen
    fail.check(seen, lambda i: f"duplicate (reader_id, image_id) pair {(rids[i], iids[i])!r}")
    arrays = {"cell": len(READER_ARMS) * group + arm}
    if "elapsed_s" in cols:
        arrays["elapsed_s"] = _bounded(fail, cols["elapsed_s"], "elapsed_s", _ELAPSED_MAX_S, " seconds")
    labels = cols["pred_label"]
    arrays["pred"] = pred = _codes(labels, _LABEL_ALIASES)
    fail.check(pred < 0, lambda i: f"unknown class label {labels[i]!r}")
    return fail, {"reader_id": rids, "image_id": iids}, arrays


def parse_readers(source: str) -> Readers:
    """Parse a reader-study CSV into a Readers table.

    Groups and arms are case-insensitive, and (reader_id, image_id) pairs must
    be unique. LF and CRLF line endings are accepted, and so is a leading
    UTF-8 byte order mark. The first bad row is reported at the file line
    it starts on (a quoted field may hold a line end), with the first of its
    faults in the order: field count (or a field ``csv`` rejects), empty
    ``reader_id``/``image_id``, group, arm, duplicate pair, ``elapsed_s``
    (number, range), label.

    Rows are read and checked ``_BLOCK_ROWS`` at a time. Equal reader ids
    and equal image ids share one string object.
    """
    header, _, blocks = _table(source)
    extras = _check_header(header, READER_BASE_COLUMNS)
    if extras not in ([], ["elapsed_s"]):
        raise ParseError(f"unexpected trailing columns {extras}")
    shared: dict[str, str] = {}  # each distinct id once
    codes: dict[str, int] = {}  # a code per distinct id
    pairs: set[int] = set()  # the (reader_id, image_id) pairs read so far, by code
    with _gc_paused():
        texts, arrays, _ = _read_rows(blocks, lambda cols: _reader_block(cols, shared, codes, pairs))
    if not texts.get("reader_id"):
        raise ParseError("no data rows")
    columns = {name: np.concatenate(arrs) for name, arrs in arrays.items()}
    columns.setdefault("elapsed_s", np.full(len(texts["reader_id"]), np.nan))
    return Readers(tuple(texts["reader_id"]), tuple(texts["image_id"]), **columns)


def age_band(age: float) -> str:
    """Band an age into lt60 / 60to69 / ge70. 60 lands in the middle band, 70 in the upper."""
    if age < 60:
        return "lt60"
    if age < 70:
        return "60to69"
    return "ge70"


def summarize(ds: Dataset) -> dict:
    """Patient and image composition of a dataset, including demographics
    when present: the report's ``results.dataset``. Patients without a sex
    or an age are left out of those counts."""
    first = ds.patient_first_row
    names = [c.display for c in CLASS_ORDER]

    def by_class(truth: np.ndarray) -> dict[str, int]:
        return dict(zip(names, np.bincount(truth, minlength=3).tolist()))

    sex_counts: dict[str, int] = {}
    for sex in ds.sex:
        if sex is not None:
            sex_counts[sex] = sex_counts.get(sex, 0) + 1
    ages = ds.age[~np.isnan(ds.age)]
    bands = {"lt60": 0, "60to69": 0, "ge70": 0}
    for age in ages.tolist():
        bands[age_band(age)] += 1
    return {
        "patients": len(ds.patient_ids),
        "images": len(ds),
        "patients_by_class": by_class(ds.truth[first]),
        "images_by_class": by_class(ds.truth),
        "patients_by_sex": sex_counts,
        "age_mean": float(np.mean(ages)) if ages.size else None,
        "age_sd": float(np.std(ages, ddof=1)) if ages.size > 1 else None,
        "age_bands": bands,
    }


FOLD_UNITS = ("patient", "image")


# perfbench/spans.py wraps kfold_split and fold_datasets by name, as data.kfold_s.
def kfold_split(ds: Dataset, k: int, unit: str = "patient", seed: int = 0) -> np.ndarray:
    """Deterministic k-fold split over patients (default) or images: the fold,
    0..k-1, of each unit, as an int64 array in ``ds.patient_ids`` or
    ``ds.image_ids`` order.

    Patient mode keeps all images of a patient in one fold. Fold sizes differ
    by at most one unit. The split is a pure function of (seed, dataset order).
    """
    if unit not in FOLD_UNITS:
        raise ValueError(f"unit must be 'patient' or 'image', got {unit!r}")
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    n = len(ds.patient_ids if unit == "patient" else ds.image_ids)
    if n < k:
        raise ValueError(f"cannot split {n} {unit}s into {k} folds")
    order = np.random.default_rng(seed).permutation(n)
    fold = np.empty(n, dtype=np.int64)
    fold[order] = np.repeat(np.arange(k), [chunk.size for chunk in np.array_split(order, k)])
    return fold


def fold_datasets(ds: Dataset, fold: np.ndarray, unit: str) -> list[dict]:
    """The composition of every fold's test set, in fold order, from
    ``kfold_split``'s array: its ``fold``, ``units``, ``patients``,
    ``images`` and ``images_by_class`` (named as ``summarize`` names them).
    A fold's training set is every other row."""
    k = int(fold.max()) + 1
    rows = fold[ds.patient_codes] if unit == "patient" else fold
    n_patients = len(ds.patient_ids)
    # each row's (fold, patient) pair as one int: the first of each run of equal
    # sorted keys is one patient of that fold. A plain np.unique would import
    # numpy.ma, about 1 MB more peak RSS in a fresh process.
    keys = np.sort(rows * n_patients + ds.patient_codes)
    patients = keys[np.diff(keys, prepend=-1) != 0] // n_patients
    counts = zip(
        np.bincount(fold, minlength=k).tolist(),
        np.bincount(patients, minlength=k).tolist(),
        np.bincount(rows, minlength=k).tolist(),
        np.bincount(rows * 3 + ds.truth, minlength=3 * k).reshape(k, 3).tolist(),
    )
    names = [c.display for c in CLASS_ORDER]
    return [
        {"fold": f, "units": units, "patients": pats, "images": images, "images_by_class": dict(zip(names, by_class))}
        for f, (units, pats, images, by_class) in enumerate(counts)
    ]


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


_SYNTH_CENTERS = ("C1", "C2", "C3")
_SYNTH_MODALITIES = ("WLI", "NBI")


def synth_generate(spec: SynthSpec) -> str:
    """A synthetic predictions CSV from logit-normal class clusters, with
    every optional column (``csv_text``, shortest-repr floats).

    Per image of class k, logits are N(0,1) draws plus ``separation`` on
    coordinate k, pushed through softmax. Each patient has one sex, age and
    center, each image its own modality. Deterministic for a fixed spec.
    """
    if spec.images_min < 1 or spec.images_max < spec.images_min:
        raise ValueError("need 1 <= images_min <= images_max")
    if not spec.separation >= 0:  # also false for NaN
        raise ValueError(f"separation must be >= 0, got {spec.separation!r}")
    rng = np.random.default_rng(spec.seed)
    rows: list[tuple[str, ...]] = []
    patient_no = 0
    image_no = 0
    for cls, n_pat in zip(CLASS_ORDER, spec.patients_per_class):
        for _ in range(n_pat):
            patient_no += 1
            pid = f"p{patient_no:04d}"
            n_img = int(rng.integers(spec.images_min, spec.images_max + 1))
            sex = str(rng.choice(["male", "female"]))
            age = repr(float(rng.integers(40, 86)))
            center = str(rng.choice(_SYNTH_CENTERS))
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
                    probs = (e / e.sum()).tolist()
                modality = str(rng.choice(_SYNTH_MODALITIES))
                rows.append((f"img{image_no:05d}", pid, cls.display, *map(repr, probs), center, modality, sex, age))
    return csv_text(chain([PRED_BASE_COLUMNS + PRED_OPT_COLUMNS], rows))
