"""The forked child processes: a large report's micro curve set is written
by a child process while the CLI writes the other files, and the second
half of a large plain predictions text is parsed by one while the parser
reads the first. The fixtures ``forked_writes`` and ``forked_parse`` force
these paths on small inputs; the golden digests of the files the CLI writes
on them are checked in ``test_golden.py``, and the forked parse is fuzzed
against the serial one in ``test_parse_fuzz.py``."""

from __future__ import annotations

import io
import math
import os
import signal
import sys
import time

import pytest

import gjeval.cli
import gjeval.data
from conftest import dataset_columns
from gjeval.cli import main
from gjeval.data import ParseError, parse_predictions

CURVE_FILES = [f"{kind}_{name}.csv" for name in ("micro", "aegja", "eegja", "control") for kind in ("roc", "pr")]


@pytest.fixture(scope="module")
def pred_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("inputs") / "pred.csv"
    assert main(["synth", "--patients", "8,6,9", "--images-max", "4", "--seed", "12", "--out", str(path)]) == 0
    return path


def no_child() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def test_fork_needs_the_threshold(pred_csv, tmp_path, monkeypatch, capsys):
    """Two CPUs are not enough: the report's curves must also hold at least
    FORK_MIN_POINTS ROC points."""
    forks = []

    def fork():
        forks.append(1)
        raise OSError("counted, not forked")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", fork)
    assert main(["evaluate", "--pred", str(pred_csv), "--out", str(tmp_path / "small")]) == 0
    assert forks == []
    monkeypatch.setattr(gjeval.cli, "FORK_MIN_POINTS", 1)
    assert main(["evaluate", "--pred", str(pred_csv), "--out", str(tmp_path / "large")]) == 0
    assert forks == [1]
    capsys.readouterr()


@pytest.mark.parametrize("forked", [False, True], ids=["serial", "forked"])
def test_child_error_is_the_serial_error(forked, pred_csv, tmp_path, monkeypatch, capsys, request):
    """A micro curve file that cannot be opened gives the same single stderr
    line and exit 1 whichever process writes it."""
    if forked:
        request.getfixturevalue("forked_writes")
    monkeypatch.chdir(tmp_path)
    (tmp_path / "o" / "roc_micro.csv").mkdir(parents=True)
    assert main(["evaluate", "--pred", str(pred_csv), "--out", "o"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "gjeval: input error: [Errno 21] Is a directory: 'o/roc_micro.csv'\n"
    assert captured.out == ""


def test_parent_error_reaps_the_child(pred_csv, tmp_path, forked_writes, capsys):
    ref, out = tmp_path / "ref", tmp_path / "o"
    assert main(["evaluate", "--pred", str(pred_csv), "--out", str(ref)]) == 0
    (out / "roc_aegja.csv").mkdir(parents=True)
    capsys.readouterr()
    assert main(["evaluate", "--pred", str(pred_csv), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"gjeval: input error: [Errno 21] Is a directory: '{out / 'roc_aegja.csv'}'\n"
    assert len(forked_writes) == 2 and no_child()
    # the child was waited for, so its files are whole
    for name in ("roc_micro.csv", "pr_micro.csv"):
        assert (out / name).read_bytes() == (ref / name).read_bytes()


def test_child_killed_by_a_signal_is_an_error(pred_csv, tmp_path, forked_writes, monkeypatch, capsys):
    parent, write_chunked = os.getpid(), gjeval.cli._write_chunked

    def killed_in_child(outdir, chunked):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        write_chunked(outdir, chunked)

    monkeypatch.setattr(gjeval.cli, "_write_chunked", killed_in_child)
    assert main(["evaluate", "--pred", str(pred_csv), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == "gjeval: input error: the forked child process ended with exit code -9\n"
    assert no_child()


def test_child_exception_keeps_its_type(pred_csv, tmp_path, forked_writes, monkeypatch):
    """An error other than OSError or ValueError reaches the caller as it
    would from the serial writer, not as an input error."""
    parent, write_chunked = os.getpid(), gjeval.cli._write_chunked

    def failing_in_child(outdir, chunked):
        if os.getpid() != parent:
            raise LookupError("no such block")
        write_chunked(outdir, chunked)

    monkeypatch.setattr(gjeval.cli, "_write_chunked", failing_in_child)
    with pytest.raises(LookupError, match="no such block"):
        main(["evaluate", "--pred", str(pred_csv), "--out", str(tmp_path / "o")])


@pytest.mark.parametrize("command", ["evaluate", "fusion-demo"])
def test_each_line_is_printed_once(command, pred_csv, tmp_path, forked_writes, monkeypatch, capfd):
    """A block-buffered stdout, as when output goes to a pipe, holds its
    unwritten text when the child is forked; the child must not write it
    again. ``fusion-demo --grad-check`` prints its line before the fork."""
    stdout = io.TextIOWrapper(io.BufferedWriter(io.FileIO(1, "w", closefd=False), 1 << 16), encoding="utf-8")
    monkeypatch.setattr(sys, "stdout", stdout)
    out = tmp_path / "o"
    argv = {
        "evaluate": ["evaluate", "--pred", str(pred_csv)],
        "fusion-demo": ["fusion-demo", "--dim", "8", "--hidden", "3", "--epochs", "1", "--batch", "64",
                        "--grad-check"],
    }[command]
    assert main([*argv, "--out", str(out)]) == 0
    stdout.flush()
    lines = capfd.readouterr().out.splitlines()
    assert len(forked_writes) == 1
    assert len(lines) == len(set(lines))
    assert {f"wrote {out / name}" for name in CURVE_FILES} <= set(lines)
    assert sum(line.startswith("gradient check: ") for line in lines) == (command == "fusion-demo")


PRED_HEADER = "image_id,patient_id,true_label,p_aegja,p_eegja,p_control"
# twelve rows, two images per patient; the first six lie in the first half
ROWS = [f"i{k:02d},p{k // 2},{('A-EGJA', 'control')[k // 2 % 2]},0.5,0.25,0.25" for k in range(12)]


def pred_text(rows, blanks_at=()) -> str:
    """A predictions text of ``rows``, with a blank line before each row index in ``blanks_at``."""
    lines = [PRED_HEADER]
    for k, row in enumerate(rows):
        lines += [" "] * (k in blanks_at) + [row]
    return "\n".join(lines) + "\n"


def serial_outcome(text: str, monkeypatch):
    monkeypatch.setattr(gjeval.data, "FORK_MIN_CHARS", math.inf)
    try:
        return dataset_columns(parse_predictions(text))
    except ParseError as exc:
        return str(exc), exc.row
    finally:
        monkeypatch.setattr(gjeval.data, "FORK_MIN_CHARS", 0)


def test_parse_fork_needs_the_size_and_two_cpus(monkeypatch):
    forks = []

    def fork():
        forks.append(1)
        raise OSError("counted, not forked")

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(gjeval.data, "_BLOCK_ROWS", 3)
    text = pred_text(ROWS)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    parse_predictions(text)
    assert forks == []  # far below FORK_MIN_CHARS
    monkeypatch.setattr(gjeval.data, "FORK_MIN_CHARS", len(text))
    parse_predictions(text)
    assert forks == [1]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    parse_predictions(text)
    assert forks == [1]


def test_first_half_fault_wins_and_the_child_is_killed(forked_parse, monkeypatch):
    """With a bad row in each half, the first half's is raised at once: the
    child, held up here, is killed and reaped, not waited for."""
    parent, rows_of = os.getpid(), gjeval.data._read_rows

    def slow_in_child(*args):
        if os.getpid() != parent:
            time.sleep(30)
        return rows_of(*args)

    monkeypatch.setattr(gjeval.data, "_read_rows", slow_in_child)
    rows = list(ROWS)
    rows[1] = rows[1].replace("A-EGJA", "nope")
    rows[10] = rows[10].replace("control", "bad")
    start = time.monotonic()
    with pytest.raises(ParseError, match=r"^row 3: unknown class label 'nope'$"):
        parse_predictions(pred_text(rows))
    assert time.monotonic() - start < 10
    assert len(forked_parse) == 1 and no_child()


@pytest.mark.parametrize("blanks_at", [(), (1, 2)], ids=["no_blanks", "blanks_in_first_half"])
def test_second_half_fault_keeps_its_row(blanks_at, forked_parse, monkeypatch):
    rows = list(ROWS)
    rows[11] = rows[11].replace("0.25,0.25", "0.25,x")
    text = pred_text(rows, blanks_at)
    line = 13 + len(blanks_at)
    with pytest.raises(ParseError, match=rf"^row {line}: non-numeric probability in column p_control: 'x'$") as exc:
        parse_predictions(text)
    assert exc.value.row == line
    assert len(forked_parse) == 1
    assert serial_outcome(text, monkeypatch) == (str(exc.value), line)


@pytest.mark.parametrize(("last", "message"), [
    ("i00,p9,control,0.5,0.25,0.25", "duplicate image_id 'i00'"),
    ("i99,p0,control,0.5,0.25,0.25", "conflicting true labels for patient 'p0'"),
], ids=["duplicate_id", "conflicting_label"])
def test_cross_row_fault_between_the_halves(last, message, forked_parse, monkeypatch):
    """A row of the second half that repeats an image id of the first, or
    gives one of its patients another label, is named at its file line."""
    text = pred_text([*ROWS, last], blanks_at=(2,))
    with pytest.raises(ParseError, match=rf"^row 15: {message}$"):
        parse_predictions(text)
    assert len(forked_parse) == 1
    assert serial_outcome(text, monkeypatch) == (f"row 15: {message}", 15)


def test_first_half_of_blank_lines(forked_parse, monkeypatch):
    """A first half that holds only blank lines leaves every row, and the
    row numbers, to the second."""
    text = PRED_HEADER + "\n" + (" " * 9 + "\n") * 200 + "\n".join(ROWS) + "\n"
    assert text.index(ROWS[0]) > 0.8 * len(text)  # far past the middle, where the halves meet
    assert dataset_columns(parse_predictions(text)) == serial_outcome(text, monkeypatch)
    text = text.replace("i11,p5", "i00,p9")
    with pytest.raises(ParseError, match=r"^row 213: duplicate image_id 'i00'$"):
        parse_predictions(text)
    assert len(forked_parse) == 2
    assert serial_outcome(text, monkeypatch) == ("row 213: duplicate image_id 'i00'", 213)


def test_parse_child_killed_by_a_signal_is_an_error(tmp_path, forked_parse, monkeypatch, capsys):
    parent, rows_of = os.getpid(), gjeval.data._read_rows

    def killed_in_child(*args):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return rows_of(*args)

    monkeypatch.setattr(gjeval.data, "_read_rows", killed_in_child)
    pred = tmp_path / "pred.csv"
    pred.write_text(pred_text(ROWS))
    assert main(["evaluate", "--pred", str(pred), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == "gjeval: input error: the forked child process ended with exit code -9\n"
    assert len(forked_parse) == 1 and no_child()
    assert not (tmp_path / "o").exists()


def test_parse_where_the_fork_fails_is_serial(forked_parse, monkeypatch):
    text = pred_text(ROWS, blanks_at=(3,))
    forks = []

    def fork():
        forks.append(1)
        raise OSError("no process to spare")

    monkeypatch.setattr(os, "fork", fork)
    assert dataset_columns(parse_predictions(text)) == serial_outcome(text, monkeypatch)
    assert forks == [1]


@pytest.mark.parametrize("text", [
    pred_text(['"i00",p0,A-EGJA,0.5,0.25,0.25', *ROWS[1:]]),
    pred_text(ROWS).replace("\n", "\r\n"),
], ids=["quoted", "crlf"])
def test_text_read_by_csv_never_forks(text, forked_parse, monkeypatch):
    """A quote or a CR sends the whole text to ``csv``, which is read in one
    process: a quoted field may hold a line end."""
    assert dataset_columns(parse_predictions(text)) == serial_outcome(text, monkeypatch)
    assert forked_parse == []
