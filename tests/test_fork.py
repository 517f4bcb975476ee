"""The forked child processes: a large report's micro curve set is written
by a child process while the CLI writes the other files, the second file of
a large ``compare`` or ``readers`` run is parsed by one while the CLI parses
the first, and the second half of a large plain predictions text parsed on
its own is read by one while the parser reads the first. There is one child
at a time, and where none can run, this process does the child's share
after its own. The fixtures ``forked_writes`` and ``forked_parse`` force these
paths on small inputs; the golden digests of the files the CLI writes on
them are checked in ``test_golden.py``, and the forked parse is fuzzed
against the serial one in ``test_parse_fuzz.py``."""

from __future__ import annotations

import errno
import io
import math
import os
import signal
import sys
import time
from functools import partial
from pathlib import Path

import pytest

import gjeval.cli
import gjeval.data
from conftest import dataset_columns
from gjeval import forking
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


def block_buffered_stdout(monkeypatch) -> io.TextIOWrapper:
    """A block-buffered stdout, as when output goes to a pipe: what is
    printed stays in its buffer until it is flushed."""
    stdout = io.TextIOWrapper(io.BufferedWriter(io.FileIO(1, "w", closefd=False), 1 << 16), encoding="utf-8")
    monkeypatch.setattr(sys, "stdout", stdout)
    return stdout


@pytest.mark.parametrize("command", ["evaluate"])
def test_each_line_is_printed_once(command, pred_csv, tmp_path, forked_writes, monkeypatch, capfd):
    """Every line the CLI prints around a forked write comes out once."""
    stdout = block_buffered_stdout(monkeypatch)
    out = tmp_path / "o"
    assert main([command, "--pred", str(pred_csv), "--out", str(out)]) == 0
    stdout.flush()
    lines = capfd.readouterr().out.splitlines()
    assert len(forked_writes) == 1
    assert len(lines) == len(set(lines))
    assert {f"wrote {out / name}" for name in CURVE_FILES} <= set(lines)


def test_line_pending_at_the_fork_is_printed_once(monkeypatch, capfd):
    """A line still in stdout's buffer when the child is forked is written
    by this process alone: the child leaves without flushing its copy."""
    stdout = block_buffered_stdout(monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    print("before the fork")
    here, there = forking.run_forked(os.getpid, os.getpid, kill_on_error=True)
    assert here == os.getpid() != there and no_child()
    stdout.flush()
    assert capfd.readouterr().out == "before the fork\n"


@pytest.mark.parametrize("host", ["one_cpu", "two_cpus", "no_affinity", "fork_fails"])
def test_first_error_on_any_host(host, pred_csv, tmp_path, monkeypatch, capsys):
    """With a class curve file and the micro set's both unwritable, the
    first error names the class file on every host: a child writes the micro
    set while this process writes the class curves, or this process writes
    it after them."""
    monkeypatch.setattr(gjeval.cli, "FORK_MIN_POINTS", 0)
    if host == "no_affinity":
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0} if host == "one_cpu" else {0, 1}, raising=False)
    forks, fork = [], os.fork

    def counted() -> int:
        forks.append(1)
        if host == "fork_fails":
            raise OSError(errno.EAGAIN, "no process to spare")
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    monkeypatch.chdir(tmp_path)
    for name in ("roc_micro.csv", "roc_aegja.csv"):
        (tmp_path / "o" / name).mkdir(parents=True)
    assert main(["evaluate", "--pred", str(pred_csv), "--out", "o"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "gjeval: input error: [Errno 21] Is a directory: 'o/roc_aegja.csv'\n"
    assert captured.out == ""
    assert len(forks) == (host in ("two_cpus", "fork_fails")) and no_child()


@pytest.fixture(params=["one_cpu", "no_affinity", "nested"])
def in_process(request, monkeypatch):
    """A host where ``run_forked`` runs both functions in this process: one
    CPU, no ``os.sched_getaffinity``, or a call inside a running ``here``.
    The fixture is a function that calls ``run_forked`` there."""
    if request.param == "no_affinity":
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0} if request.param == "one_cpu" else {0, 1},
                            raising=False)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    if request.param == "nested":
        monkeypatch.setattr(forking, "_forked", True)
    return partial(forking.run_forked, kill_on_error=True)


def test_in_process_plan_runs_here_first(in_process):
    calls = []
    assert in_process(lambda: calls.append("here") or 1, lambda: calls.append("there") or 2) == (1, 2)
    assert calls == ["here", "there"]


def test_in_process_fault_in_here_skips_there(in_process):
    calls = []

    def here():
        raise ParseError("a first-half fault", 2)

    with pytest.raises(ParseError, match="^row 2: a first-half fault$"):
        in_process(here, lambda: calls.append("there"))
    assert calls == []


def test_failed_fork_runs_both_here(monkeypatch):
    """Where ``os.fork`` fails, both functions run in this process, no child
    is left, the pipe's two ends are closed, and the next call forks."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    fork = os.fork

    def failing() -> int:
        raise OSError(errno.EAGAIN, "no process to spare")

    fds = set(os.listdir("/proc/self/fd"))
    monkeypatch.setattr(os, "fork", failing)
    assert forking.run_forked(os.getpid, os.getpid, kill_on_error=True) == (os.getpid(), os.getpid())
    assert no_child() and set(os.listdir("/proc/self/fd")) == fds
    monkeypatch.setattr(os, "fork", fork)
    here, there = forking.run_forked(os.getpid, os.getpid, kill_on_error=True)
    assert here == os.getpid() != there and no_child()


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


def test_one_child_at_a_time(fork_log, monkeypatch):
    """While ``run_forked``'s ``here`` runs, and in its child, ``run_forked``
    forks nothing and calls both functions in the process it runs in;
    afterwards it forks again. On one CPU it forks nothing either."""

    def nested():
        return forking.run_forked(os.getpid, os.getpid, kill_on_error=True)

    parent = os.getpid()
    (p1, p2), (c1, c2) = forking.run_forked(nested, nested, kill_on_error=True)
    assert p1 == p2 == parent != c1 == c2 and fork_log() == 1
    here, there = forking.run_forked(os.getpid, os.getpid, kill_on_error=True)
    assert here == parent != there and fork_log() == 2 and no_child()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert forking.run_forked(os.getpid, os.getpid, kill_on_error=True) == (parent, parent)
    assert fork_log() == 2


@pytest.fixture
def fork_log(tmp_path, monkeypatch):
    """Claim two usable CPUs and log every ``os.fork`` call, in this process
    or in a child, as a line of a file; the fixture is a function that counts
    the lines."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    log, fork = tmp_path / "forks.log", os.fork

    def logged() -> int:
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return fork()

    monkeypatch.setattr(os, "fork", logged)
    return lambda: len(log.read_text().splitlines()) if log.exists() else 0


@pytest.mark.parametrize("command", ["compare", "readers"])
def test_paper_scale_two_file_op_forks_nothing(command, pred_csv, tmp_path, fork_log, capsys):
    readers = tmp_path / "readers.csv"
    image_ids = [line.split(",")[0] for line in pred_csv.read_text().splitlines()[1:]]
    readers.write_text("reader_id,group,arm,image_id,pred_label\n" + "".join(f"r1,expert,A,{i},0\n" for i in image_ids))
    argv = {"compare": ["compare", "--pred-a", str(pred_csv), "--pred-b", str(pred_csv)],
            "readers": ["readers", "--pred", str(pred_csv), "--readers", str(readers)]}[command]
    assert len(pred_csv.read_text()) + len(readers.read_text()) < gjeval.data.FORK_MIN_CHARS
    assert main([*argv, "--out", str(tmp_path / "o")]) == 0
    assert fork_log() == 0
    capsys.readouterr()


READERS_HEADER = "reader_id,group,arm,image_id,pred_label"


def readers_text(rows, readers=1) -> str:
    """A reader file of ``readers`` readers, each over the images of ``rows``."""
    calls = (f"r{r + 1},expert,A,{row.split(',')[0]},0\n" for r in range(readers) for row in rows)
    return READERS_HEADER + "\n" + "".join(calls)


GOOD_READERS = readers_text(ROWS)
INPUTS = {
    "good.csv": pred_text(ROWS),
    "bad_a.csv": pred_text([ROWS[0].replace("0.5,", "x,"), *ROWS[1:]]),
    "bad_b.csv": pred_text([*ROWS[:3], ROWS[3].replace("control", "nope"), *ROWS[4:]]),
    "readers.csv": GOOD_READERS,
    "bad_readers.csv": GOOD_READERS.replace("r1,expert", "r1,novice", 1),
    # over twice as long as good.csv
    "long.csv": pred_text([*ROWS, *(f"i{k:02d},p{k // 2},control,0.2,0.2,0.6" for k in range(12, 40))]),
    "few_readers.csv": readers_text(ROWS[:5]),  # under a third of good.csv's length
    "some_readers.csv": readers_text(ROWS[:7]),  # over a third
    "many_readers.csv": readers_text(ROWS, readers=5),  # over twice
}
NOT_UTF8 = pred_text(ROWS).encode().replace(b"i07,", b"i\xff7,")  # on file line 9
# the first error of each run, as a run in one process reports it
PRECEDENCE = {
    "bad_a_then_missing": (["compare", "--pred-a", "bad_a.csv", "--pred-b", "missing.csv"],
                           "row 2: non-numeric probability in column p_aegja: 'x'"),
    "bad_a_then_bad_b": (["compare", "--pred-a", "bad_a.csv", "--pred-b", "bad_b.csv"],
                         "row 2: non-numeric probability in column p_aegja: 'x'"),
    "good_then_bad_b": (["compare", "--pred-a", "good.csv", "--pred-b", "bad_b.csv"],
                        "row 5: unknown class label 'nope'"),
    "good_then_missing": (["compare", "--pred-a", "good.csv", "--pred-b", "missing.csv"],
                          "[Errno 2] No such file or directory: 'missing.csv'"),
    "bad_a_then_not_utf8": (["compare", "--pred-a", "bad_a.csv", "--pred-b", "not_utf8.csv"],
                            "row 2: non-numeric probability in column p_aegja: 'x'"),
    "good_then_not_utf8": (["compare", "--pred-a", "good.csv", "--pred-b", "not_utf8.csv"],
                           "row 9: 'utf-8' codec can't decode byte 0xff in position 257: invalid start byte"),
    "bad_pred_then_bad_readers": (["readers", "--pred", "bad_a.csv", "--readers", "bad_readers.csv"],
                                  "row 2: non-numeric probability in column p_aegja: 'x'"),
    "good_pred_then_bad_readers": (["readers", "--pred", "good.csv", "--readers", "bad_readers.csv"],
                                   "row 2: unknown reader group 'novice'"),
    "good_pred_then_not_utf8": (["readers", "--pred", "good.csv", "--readers", "not_utf8.csv"],
                                "row 9: 'utf-8' codec can't decode byte 0xff in position 257: invalid start byte"),
}


@pytest.fixture
def error_inputs(tmp_path, monkeypatch):
    """The files ``PRECEDENCE`` names, in the working directory."""
    for name, text in INPUTS.items():
        (tmp_path / name).write_text(text)
    (tmp_path / "not_utf8.csv").write_bytes(NOT_UTF8)
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.mark.parametrize("host", ["one_cpu", "below_threshold", "forked"])
@pytest.mark.parametrize("case", sorted(PRECEDENCE))
def test_two_file_error_precedence(case, host, error_inputs, monkeypatch, capsys, request):
    """The first error in the order: read the first file, parse it, read the
    second, parse it; on one CPU, on two CPUs below the fork's size, and
    with the second read and parsed by a child."""
    argv, message = PRECEDENCE[case]
    if host == "forked":
        forks = request.getfixturevalue("forked_parse")
    else:
        forks = []
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0} if host == "one_cpu" else {0, 1}, raising=False)
    assert main([*argv, "--out", "o"]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"gjeval: input error: {message}\n"
    assert captured.out == ""
    assert not (error_inputs / "o").exists()
    # the second file's child, or where that file is not read, the first file's half-split parse
    assert len(forks) == (host == "forked")


def test_second_file_fault_comes_from_the_child(error_inputs, forked_parse, monkeypatch, capsys):
    """This process parses only the first file; the second file's fault is
    raised by the child that parsed it."""
    parsed, parse = [], gjeval.cli.parse_predictions

    def logged(text):
        parsed.append(len(text))  # in the child, into its own copy of the list
        return parse(text)

    monkeypatch.setattr(gjeval.cli, "parse_predictions", logged)
    assert main(["compare", "--pred-a", "good.csv", "--pred-b", "bad_b.csv", "--out", "o"]) == 1
    assert capsys.readouterr().err == "gjeval: input error: row 5: unknown class label 'nope'\n"
    assert parsed == [len(INPUTS["good.csv"])]
    assert len(forked_parse) == 1


def test_two_file_child_killed_by_a_signal_is_an_error(error_inputs, forked_parse, monkeypatch, capsys):
    parent, parse = os.getpid(), gjeval.cli.parse_readers

    def killed_in_child(text):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return parse(text)

    monkeypatch.setattr(gjeval.cli, "parse_readers", killed_in_child)
    assert main(["readers", "--pred", "good.csv", "--readers", "readers.csv", "--out", "o"]) == 1
    assert capsys.readouterr().err == "gjeval: input error: the forked child process ended with exit code -9\n"
    assert len(forked_parse) == 1 and no_child()
    assert not (error_inputs / "o").exists()


@pytest.mark.parametrize("argv", [
    ["compare", "--pred-a", "good.csv", "--pred-b", "good.csv"],
    ["readers", "--pred", "good.csv", "--readers", "readers.csv"],
], ids=["compare", "readers"])
def test_two_file_parse_where_the_fork_fails_is_serial(argv, error_inputs, forked_parse, monkeypatch, capsys):
    """Where no process can be forked, one process parses both files and
    writes the same bytes as a run that forks."""
    assert main([*argv, "--out", "forked"]) == 0
    assert len(forked_parse) == 1
    forks = []

    def fork():
        forks.append(1)
        raise OSError("no process to spare")

    monkeypatch.setattr(os, "fork", fork)
    assert main([*argv, "--out", "serial"]) == 0
    assert forks  # the two-file fork, then each predictions file's half-split one
    capsys.readouterr()
    for path in sorted((error_inputs / "forked").iterdir()):
        assert (error_inputs / "serial" / path.name).read_bytes() == path.read_bytes()


@pytest.mark.parametrize("argv, here", [
    (["compare", "--pred-a", "good.csv", "--pred-b", "good.csv"], ["good.csv"]),
    (["compare", "--pred-a", "good.csv", "--pred-b", "long.csv"], ["good.csv", "long.csv"]),
    (["compare", "--pred-a", "long.csv", "--pred-b", "good.csv"], ["long.csv", "good.csv"]),
    (["readers", "--pred", "good.csv", "--readers", "readers.csv"], ["good.csv"]),
    (["readers", "--pred", "good.csv", "--readers", "few_readers.csv"], ["good.csv", "few_readers.csv"]),
    (["readers", "--pred", "good.csv", "--readers", "some_readers.csv"], ["good.csv"]),
    (["readers", "--pred", "good.csv", "--readers", "many_readers.csv"], ["good.csv"]),
], ids=["compare_alike", "compare_long_b", "compare_long_a", "readers", "readers_few", "readers_some", "readers_many"])
def test_two_file_fork_only_where_it_pays(argv, here, error_inputs, forked_parse, fork_log, monkeypatch, capsys):
    """The second file goes to a child unless halving the longer text would
    save more: a predictions text over twice the other, or a reader file
    under a third of the predictions. The files this process parses are
    logged; a child logs into its own copy of the list. Each run forks once
    in all, a child never again, but where both predictions files are halved."""
    parsed = []

    def logged(parse):
        return lambda text: parsed.append(len(text)) or parse(text)

    monkeypatch.setattr(gjeval.cli, "parse_predictions", logged(gjeval.cli.parse_predictions))
    monkeypatch.setattr(gjeval.cli, "parse_readers", logged(gjeval.cli.parse_readers))
    assert main([*argv, "--out", "o"]) == 0
    capsys.readouterr()
    assert parsed == [len(INPUTS[name]) for name in here]
    assert fork_log() == len(forked_parse) == (2 if argv[0] == "compare" and len(here) == 2 else 1)


@pytest.mark.parametrize("argv", [
    ["compare", "--pred-a", "good.csv", "--pred-b", "copy.csv"],
    ["readers", "--pred", "good.csv", "--readers", "readers.csv"],
], ids=["compare", "readers"])
def test_each_process_reads_only_the_file_it_parses(argv, error_inputs, forked_parse, tmp_path, monkeypatch, capsys):
    """Where the second file is parsed by a child, that child reads it, and
    this process never reads it: each ``Path.read_bytes`` call, in either
    process, is logged with its pid."""
    (error_inputs / "copy.csv").write_text(INPUTS["good.csv"])
    log, read_bytes = tmp_path / "reads.log", Path.read_bytes

    def logged(path):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {path}\n")
        return read_bytes(path)

    monkeypatch.setattr(Path, "read_bytes", logged)
    assert main([*argv, "--out", "o"]) == 0
    capsys.readouterr()
    with open(log) as fh:
        reads = [line.split() for line in fh]
    first, second = argv[2], argv[4]
    assert [path for pid, path in reads if int(pid) == os.getpid()] == [first]
    assert [(int(pid), path) for pid, path in reads if int(pid) != os.getpid()] == [(forked_parse[0], second)]
