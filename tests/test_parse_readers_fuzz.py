"""Differential fuzz test of the reader-study parser.

The oracle is the row-by-row parser that the columnar ``parse_readers``
replaced, kept here with the rules added since: an empty ``reader_id`` or
``image_id`` is a row error, checked right after the field count; an
``elapsed_s`` above 86400 is a row error; a row that
``csv`` rejects (a field over its size limit) is a row error like a wrong
field count; and a row is numbered by the file line it starts on, so a row
after a quoted field that holds a line end counts that line. Both parsers
read seeded mutations of valid CSVs and must raise the same message or
return the same columns. Through the CLI, every mutation
must end in exit 0, or in exit 1 with the oracle's message or, for a file
that parses, the message of the row-by-row pooling it replaced. The parser
reads three data lines at a time here, so most texts span several blocks.
Each seed sends at least 50 texts through each of the parser's two
tokenizers, the plain split and ``csv``; a text counts for each tokenizer
that reads one of its blocks.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np
import pytest

import gjeval.data
from conftest import numbered_records, oracle_label, reader_columns

from gjeval.cli import main
from gjeval.data import ParseError, parse_readers

BASE = ("reader_id", "group", "arm", "image_id", "pred_label")
GROUPS = ("trainee", "competent", "expert")
ARMS = ("A", "B")
CELLS = tuple((g, a) for g in GROUPS for a in ARMS)  # a call's cell code is its position here
IMAGES = tuple(f"i{k}" for k in range(8))
OVER_LONG = "x" * (csv.field_size_limit() + 1)


def oracle_parse(source: str) -> dict:
    """Row-by-row parse; the columns in ``reader_columns`` form."""
    reader = csv.reader(io.StringIO(source.removeprefix("\ufeff"), newline=""))
    try:
        header = [h.strip() for h in next(reader)]
    except StopIteration:
        raise ParseError("empty file") from None
    except csv.Error as exc:
        raise ParseError(str(exc), 1) from None
    if tuple(header[: len(BASE)]) != BASE:
        raise ParseError(f"header must start with {','.join(BASE)}; got {','.join(header)}")
    has_elapsed = len(header) > len(BASE)
    if has_elapsed and header[len(BASE):] != ["elapsed_s"]:
        raise ParseError(f"unexpected trailing columns {header[len(BASE):]}")
    calls = []
    seen: set[tuple[str, str]] = set()
    for row_no, raw in numbered_records(reader):
        if not raw or (len(raw) == 1 and not raw[0].strip()):
            continue
        if len(raw) != len(header):
            raise ParseError(f"expected {len(header)} fields, got {len(raw)}", row_no)
        fields = dict(zip(header, (f.strip() for f in raw)))
        for col in ("reader_id", "image_id"):
            if not fields[col]:
                raise ParseError(f"empty {col}", row_no)
        group = fields["group"].lower()
        if group not in GROUPS:
            raise ParseError(f"unknown reader group {fields['group']!r}", row_no)
        arm = fields["arm"].upper()
        if arm not in ARMS:
            raise ParseError(f"unknown study arm {fields['arm']!r}", row_no)
        key = (fields["reader_id"], fields["image_id"])
        if key in seen:
            raise ParseError(f"duplicate (reader_id, image_id) pair {key!r}", row_no)
        seen.add(key)
        elapsed = math.nan
        if has_elapsed and fields.get("elapsed_s"):
            try:
                elapsed = float(fields["elapsed_s"])
            except ValueError:
                raise ParseError(f"non-numeric elapsed_s {fields['elapsed_s']!r}", row_no) from None
            if not 0 <= elapsed <= 86400:
                raise ParseError(f"elapsed_s must be in [0, 86400] seconds, got {fields['elapsed_s']!r}", row_no)
        pred = oracle_label(fields["pred_label"], row_no)
        calls.append((key[0], CELLS.index((group, arm)), key[1], pred, elapsed))
    if not calls:
        raise ParseError("no data rows")
    return {
        "reader_ids": tuple(c[0] for c in calls),
        "image_ids": tuple(c[2] for c in calls),
        "cell": [c[1] for c in calls],
        "pred": [c[3] for c in calls],
        "elapsed_s": np.array([c[4] for c in calls], dtype=np.float64).tobytes(),
    }


def oracle_pool_error(cols: dict) -> str | None:
    """The first error of pooling each present cell, call by call, against a
    model that has exactly ``IMAGES``."""
    elapsed = np.frombuffer(cols["elapsed_s"])
    for cell in sorted(set(cols["cell"])):
        calls = [i for i, c in enumerate(cols["cell"]) if c == cell]
        timed = any(not math.isnan(elapsed[i]) for i in calls)
        for i in calls:
            if cols["image_ids"][i] not in IMAGES:
                return f"reader record references unknown image {cols['image_ids'][i]!r}"
            if timed and math.isnan(elapsed[i]):
                return f"missing elapsed_s for reader {cols['reader_ids'][i]!r} image {cols['image_ids'][i]!r}"
    return None


GROUP_TOKENS = ("trainee", "Competent", "EXPERT", " expert ")
ARM_TOKENS = ("A", "b", " B ")
LABEL_TOKENS = ("A-EGJA", "e-egja", "control", "0", "1", "2", "aegja", "CONTROL")


def valid_rows(gen: np.random.Generator) -> list[list[str]]:
    """A header, with or without ``elapsed_s``, and 1-12 calls by 1-4 readers.
    Either every call has a time or none has."""
    timed = gen.random() < 0.7
    blank = gen.random() < 0.2
    rows = [list(BASE) + ["elapsed_s"] * timed]
    pairs = {(f"r{int(gen.integers(0, 4))}", str(gen.choice(IMAGES))) for _ in range(int(gen.integers(1, 13)))}
    for rid, image in sorted(pairs):
        row = [rid, str(gen.choice(GROUP_TOKENS)), str(gen.choice(ARM_TOKENS)), image,
               str(gen.choice(LABEL_TOKENS))]
        if timed:
            row.append("" if blank else str(gen.choice(["12.5", "3", "0", "7.25", " 1e1 "])))
        rows.append(row)
    return rows


BAD_GROUPS = ("novice", "", "experts", "trainee-", "Trainée", "1")
BAD_ARMS = ("C", "", "AB", "0", "a b")
BAD_LABELS = ("B-EGJA", "", "3", "-1", "A_EGJA", "cntrl")
BAD_ELAPSED = ("x", "-1", "inf", "-inf", "nan", "", "1e400", "-0", "1_0", "0x10", "١", "-0.0")


def mutate(rows: list[list[str]], gen: np.random.Generator) -> str:
    """Apply 1-3 seeded mutations; the CSV text."""
    rows = [list(r) for r in rows]
    width = len(rows[0])
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
        elif kind == 2 and i:  # bad group
            row[1] = str(gen.choice(BAD_GROUPS))
        elif kind == 3 and i and len(row) > 2:  # bad arm
            row[2] = str(gen.choice(BAD_ARMS))
        elif kind == 4 and i and len(row) > 4:  # bad label
            row[4] = str(gen.choice(BAD_LABELS))
        elif kind == 5 and len(rows) > 2:  # duplicate (reader_id, image_id) pair
            j = int(gen.integers(1, len(rows)))
            if j != i and len(row) > 3 and len(rows[j]) > 3:
                row[0], row[3] = rows[j][0], rows[j][3]
        elif kind == 6 and i and len(row) > 3:  # empty id
            row[int(gen.choice([0, 3]))] = str(gen.choice(["", "  "]))
        elif kind == 7 and i and len(row) > 5:  # odd elapsed_s
            row[5] = str(gen.choice(BAD_ELAPSED))
        elif kind == 8:  # blank line
            blank_lines.append(int(gen.integers(1, len(rows) + 1)))
        elif kind == 9:
            bom = True
        elif kind == 10 and i:  # a quoted field with a comma in it
            row[int(gen.choice([0, 3]))] = '"' + row[0] + ',x"'
        elif kind == 11:  # a field over the csv size limit, header included
            row[int(gen.integers(0, len(row)))] = OVER_LONG
        elif kind == 12:  # header: missing, unknown or repeated column
            choice = int(gen.integers(0, 3))
            if choice == 0:
                rows[0].pop()
            elif choice == 1:
                rows[0][int(gen.integers(0, width))] = "bogus"
            else:
                rows[0].append(str(gen.choice(["elapsed_s", "age"])))
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
    return ("\ufeff" if bom else "") + newline.join(lines) + newline


def outcome(parse, text: str):
    try:
        return "ok", parse(text)
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
    for text in cases(400, seed):
        tokenizer_paths.clear()
        want = outcome(oracle_parse, text)
        got = outcome(lambda t: reader_columns(parse_readers(t)), text)
        assert got == want, text[:500]
        kinds[want[0]] += 1
        for path in set(tokenizer_paths):
            texts[path] += 1
    # the mutations exercise both outcomes, and both tokenizers
    assert min(kinds.values()) > 50, kinds
    assert min(texts.values()) >= 50, texts


def test_cli_exits_0_or_1_with_the_oracle_message(tmp_path, capsys):
    pred = tmp_path / "pred.csv"
    pred.write_text("image_id,patient_id,true_label,p_aegja,p_eegja,p_control\n" + "".join(
        f"{image},p{k},{k % 3},{0.6 if k % 3 == 0 else 0.2},{0.6 if k % 3 == 1 else 0.2},"
        f"{0.6 if k % 3 == 2 else 0.2}\n"
        for k, image in enumerate(IMAGES)
    ))
    readers = tmp_path / "readers.csv"
    codes = {0: 0, 1: 0}
    for k, text in enumerate(cases(200, seed=99)):
        readers.write_bytes(text.encode())
        out = tmp_path / f"o{k}"
        code = main(["readers", "--pred", str(pred), "--readers", str(readers), "--out", str(out)])
        err = capsys.readouterr().err
        try:
            message = oracle_pool_error(oracle_parse(text))
        except ParseError as exc:
            message = str(exc)
            assert exc.row is None or f"row {exc.row}: " in err
        if message is None:
            assert code == 0 and err == "", (text[:500], err)
        else:
            assert code == 1 and err == f"gjeval: input error: {message}\n", text[:500]
            assert not out.exists()
        codes[code] += 1
    assert min(codes.values()) > 25, codes
