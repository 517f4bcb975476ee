"""Differential fuzz test of the predictions parser.

The oracle is the row-by-row parser that the columnar ``parse_predictions``
replaced, kept here with the rules added since: an empty ``image_id`` or
``patient_id`` is a row error; an ``age`` above 150 is a row error; a
patient's sex and age are those of its first row, and ``center`` and
``modality`` are not kept; a duplicated header column is an error; a
leading byte order mark is ignored; a duplicated ``image_id`` or a
patient's second true label names the file line that repeats it; and a row
is numbered by the file line it starts on, so a row after a quoted field
that holds a line end counts that line. Both parsers read seeded mutations
of valid CSVs and must raise the same message or return the same columns.
Through the CLI, every mutation must end in exit 0, or in exit 1 with the
oracle's message. The parser reads three data lines at a time here, so
most texts span several blocks. Each seed sends at least 50 texts through
each of the parser's two tokenizers, the plain split and ``csv``; a text
counts for each tokenizer that reads one of its blocks. The same texts,
read with their second half in a forked child process, give the same
columns or errors as the serial parse.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np
import pytest

import gjeval.data
from conftest import dataset_columns, numbered_records, oracle_label, predictions_csv

from gjeval.cli import main
from gjeval.data import ParseError, parse_predictions

BASE = ("image_id", "patient_id", "true_label", "p_aegja", "p_eegja", "p_control")
OPTIONAL = ("center", "modality", "sex", "age")
LABELS = ("A-EGJA", "E-EGJA", "control")


def _oracle_probs(fields: dict[str, str], row: int, strict: bool):
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
    tol = 1e-6 if strict else 1e-3
    if dev > tol:
        raise ParseError(f"probabilities sum to {total!r}, deviation {dev:.3g} exceeds tolerance {tol:g}", row)
    if dev > 1e-6:
        return [v / total for v in vals], True
    return vals, False


def oracle_parse(source: str, strict: bool = False) -> dict:
    """Row-by-row parse; the columns in ``dataset_columns`` form."""
    reader = csv.reader(io.StringIO(source.removeprefix("\ufeff"), newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("empty file") from None
    header = [h.strip() for h in header]
    if tuple(header[: len(BASE)]) != BASE:
        raise ParseError(f"header must start with {','.join(BASE)}; got {','.join(header)}")
    extras = header[len(BASE):]
    for pos, col in enumerate(extras):
        if col not in OPTIONAL:
            raise ParseError(f"unknown column {col!r}")
        if col in extras[:pos]:
            raise ParseError(f"duplicate column {col!r}")
    records = []
    lines = []
    renorm = 0
    for row_no, raw in numbered_records(reader):
        if not raw or (len(raw) == 1 and not raw[0].strip()):
            continue
        if len(raw) != len(header):
            raise ParseError(f"expected {len(header)} fields, got {len(raw)}", row_no)
        fields = dict(zip(header, (f.strip() for f in raw)))
        for col in ("image_id", "patient_id"):
            if not fields[col]:
                raise ParseError(f"empty {col}", row_no)
        truth = oracle_label(fields["true_label"], row_no)
        probs, renormalized = _oracle_probs(fields, row_no, strict)
        renorm += renormalized
        age = math.nan
        if fields.get("age"):
            try:
                age = float(fields["age"])
            except ValueError:
                raise ParseError(f"non-numeric age {fields['age']!r}", row_no) from None
            if not 0 <= age <= 150:
                raise ParseError(f"age must be in [0, 150], got {fields['age']!r}", row_no)
        records.append((fields["image_id"], fields["patient_id"], truth, probs, fields.get("sex") or None, age))
        lines.append(row_no)
    if not records:
        raise ParseError("no data rows")
    seen: set[str] = set()
    first: dict[str, int] = {}
    for pos, (image_id, patient_id, truth, *_) in enumerate(records):
        if image_id in seen:
            raise ParseError(f"duplicate image_id {image_id!r}", lines[pos])
        seen.add(image_id)
        if records[first.setdefault(patient_id, pos)][2] != truth:
            raise ParseError(f"conflicting true labels for patient {patient_id!r}", lines[pos])

    def pred(p):
        best = 0
        for i in (1, 2):
            if p[i] > p[best]:
                best = i
        return best

    patients = tuple(first)
    return {
        "image_ids": tuple(r[0] for r in records),
        "patient_ids": patients,
        "patient_codes": [patients.index(r[1]) for r in records],
        "patient_first_row": list(first.values()),
        "truth": [r[2] for r in records],
        "probs": np.array([r[3] for r in records], dtype=np.float64).tobytes(),
        "pred": [pred(r[3]) for r in records],
        "sex": tuple(records[pos][4] for pos in first.values()),
        "age": np.array([records[pos][5] for pos in first.values()], dtype=np.float64).tobytes(),
        "renormalized": renorm,
    }


def valid_rows(gen: np.random.Generator) -> list[list[str]]:
    """A header and 2-12 rows over 1-5 patients, with a random set of optional columns."""
    extras = [c for c in OPTIONAL if gen.random() < 0.5]
    rows = [list(BASE) + extras]
    image = 0
    for patient in range(int(gen.integers(1, 6))):
        truth = int(gen.integers(0, 3))
        for _ in range(int(gen.integers(1, 4))):
            image += 1
            p = gen.dirichlet(np.ones(3))
            probs = [repr(float(v)) for v in p] if gen.random() < 0.8 else [f"{v:.2f}" for v in p]
            demo = {"center": "C1", "modality": str(gen.choice(["WLI", "NBI", ""])),
                    "sex": "female", "age": str(int(gen.integers(30, 90)))}
            label = LABELS[truth] if gen.random() < 0.7 else str(gen.choice([str(truth), LABELS[truth].lower()]))
            rows.append([f"img{image}", f"p{patient}", label, *probs, *(demo[c] for c in extras)])
    return rows


BAD_NUMBERS = ("x", "", "nan", "inf", "-inf", "-0", "1e-3", "0x1p-1", "1_0", " 0.5 ", "1.5", "-0.1", "\u0661")
BAD_LABELS = ("B-EGJA", "", " control ", "3", "-1", "A_EGJA", "CONTROL", "e-egja")
BAD_AGES = ("abc", "-1", "inf", "nan", "", "1e3", "0", " 44 ", "-0")


def mutate(rows: list[list[str]], gen: np.random.Generator) -> tuple[str, bool]:
    """Apply 1-3 seeded mutations; the CSV text and whether to parse strictly."""
    rows = [list(r) for r in rows]
    width = len(rows[0])
    strict = bool(gen.random() < 0.2)
    bom = False
    blank_lines = []
    for _ in range(int(gen.integers(1, 4))):
        kind = int(gen.integers(0, 15))
        i = int(gen.integers(1, len(rows))) if len(rows) > 1 else 0
        row = rows[i]
        if kind == 0 and i:  # drop a field
            del row[int(gen.integers(0, len(row)))]
        elif kind == 1 and i:  # extra field
            row.insert(int(gen.integers(0, len(row) + 1)), "extra")
        elif kind == 2 and i:  # bad or odd label
            row[2] = str(gen.choice(BAD_LABELS))
        elif kind == 3 and i:  # odd probability token
            j = 3 + int(gen.integers(0, 3))
            if j < len(row):
                row[j] = str(gen.choice(BAD_NUMBERS))
        elif kind == 4 and i:  # mis-summed probabilities
            scale = 1 + float(gen.choice([5e-7, 5e-5, 9e-4, 2e-3, -3e-4]))
            for j in range(3, min(6, len(row))):
                try:
                    row[j] = repr(float(row[j]) * scale)
                except ValueError:
                    pass
        elif kind == 5 and i and "age" in rows[0][:len(row)]:  # bad age
            row[rows[0].index("age")] = str(gen.choice(BAD_AGES))
        elif kind == 6 and len(rows) > 2:  # duplicate image id
            j = int(gen.integers(1, len(rows)))
            if j != i:
                row[0] = rows[j][0]
        elif kind == 7 and len(rows) > 2:  # move an image to another patient
            j = int(gen.integers(1, len(rows)))
            row[1] = rows[j][1]
        elif kind == 8 and i:  # empty id
            row[int(gen.integers(0, 2))] = str(gen.choice(["", "  "]))
        elif kind == 9:  # blank line
            blank_lines.append(int(gen.integers(1, len(rows) + 1)))
        elif kind == 10:
            bom = True
        elif kind == 11:  # header: duplicate, unknown or missing column
            choice = int(gen.integers(0, 3))
            if choice == 0:
                rows[0].append(str(gen.choice(rows[0][6:] or ["age"])))
            elif choice == 1:
                rows[0][int(gen.integers(0, width))] = "bogus"
            else:
                rows[0].pop()
        elif kind == 12 and i:  # a quoted field with a comma in it
            row[0] = '"' + row[0] + ',x"'
        elif kind == 13 and len(rows) > 2:  # swap two rows
            j = int(gen.integers(1, len(rows)))
            rows[i], rows[j] = rows[j], rows[i]
        elif kind == 14 and i:  # a quoted field with a line end in it
            j = int(gen.integers(0, len(row)))
            row[j] = '"' + row[j][:1] + "\n" + row[j][1:] + '"'
    lines = [",".join(r) for r in rows]
    for at in sorted(blank_lines, reverse=True):
        lines.insert(at, str(gen.choice(["", "  "])))
    newline = "\r\n" if gen.random() < 0.2 else "\n"
    return ("\ufeff" if bom else "") + newline.join(lines) + newline, strict


def outcome(parse, text: str, strict: bool):
    try:
        return "ok", parse(text, strict)
    except ParseError as exc:
        return "error", str(exc)


def cases(n: int, seed: int):
    gen = np.random.default_rng(seed)
    for _ in range(n):
        yield mutate(valid_rows(gen), gen)


@pytest.fixture(autouse=True)
def three_row_blocks(monkeypatch):
    """Read in blocks of three data lines, so most texts span several blocks."""
    monkeypatch.setattr(gjeval.data, "_BLOCK_ROWS", 3)


@pytest.mark.parametrize("seed", range(4))
def test_parser_matches_row_by_row_oracle(seed, tokenizer_paths):
    kinds = {"ok": 0, "error": 0}
    texts = {"plain": 0, "csv": 0}
    for text, strict in cases(400, seed):
        tokenizer_paths.clear()
        want = outcome(oracle_parse, text, strict)
        got = outcome(lambda t, s: dataset_columns(parse_predictions(t, s)), text, strict)
        assert got == want, text
        kinds[want[0]] += 1
        for path in set(tokenizer_paths):
            texts[path] += 1
    # the mutations exercise both outcomes, and both tokenizers
    assert min(kinds.values()) > 50, kinds
    assert min(texts.values()) >= 50, texts


@pytest.mark.parametrize("seed", range(4))
def test_serialized_dataset_reads_back(seed):
    """Every text the parser accepts gives a Dataset whose CSV, as
    ``predictions_csv`` writes it, parses to the same columns, bar
    ``renormalized``: it counts parse-time fixes, and the written
    probabilities need none."""
    accepted = 0
    for text, strict in cases(400, seed):
        try:
            ds = parse_predictions(text, strict)
        except ParseError:
            continue
        again = parse_predictions(predictions_csv(ds), strict)
        assert again.renormalized == 0, text
        assert {**dataset_columns(again), "renormalized": ds.renormalized} == dataset_columns(ds), text
        accepted += 1
    assert accepted > 50


@pytest.mark.parametrize("seed", range(4))
def test_forked_parse_matches_serial(seed, forked_parse, monkeypatch):
    """Each text read with its second half in a child process gives the
    columns of the serial parse, or its error: the same message and row."""

    def parsed(text: str, strict: bool, min_chars: float):
        monkeypatch.setattr(gjeval.data, "FORK_MIN_CHARS", min_chars)
        try:
            return "ok", dataset_columns(parse_predictions(text, strict))
        except ParseError as exc:
            return "error", str(exc), exc.row

    kinds = {"ok": 0, "error": 0}
    for text, strict in cases(500, seed):
        serial = parsed(text, strict, math.inf)
        forks = len(forked_parse)
        assert parsed(text, strict, 0) == serial, text
        if len(forked_parse) > forks:
            kinds[serial[0]] += 1
    # about half the texts are split (most others hold a quote or a CR), with both outcomes
    assert min(kinds.values()) > 30 and sum(kinds.values()) > 200, kinds


def test_cli_exits_0_or_1_with_the_oracle_message(tmp_path, capsys):
    pred = tmp_path / "pred.csv"
    for k, (text, strict) in enumerate(cases(120, seed=99)):
        pred.write_bytes(text.encode())
        out = tmp_path / f"o{k}"
        code = main(["evaluate", "--pred", str(pred), "--out", str(out)] + (["--strict"] * strict))
        err = capsys.readouterr().err
        try:
            oracle_parse(text, strict)
        except ParseError as exc:
            assert code == 1 and err == f"gjeval: input error: {exc}\n", text
            assert exc.row is None or f"row {exc.row}: " in err
            assert not out.exists()
        else:
            # exit 2 is strict-mode metric degeneracy on a valid file
            assert code in (0, 2) and (code == 2) <= strict, (text, err)
