"""The forked curve writer: a large report's micro curve set is written by a
child process while the CLI writes the other files. The fixture
``forked_writes`` forces that path on small inputs; the golden digests of
the files it writes are checked in ``test_golden.py``."""

from __future__ import annotations

import io
import os
import signal
import sys

import pytest

import gjeval.cli
from gjeval.cli import main

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
    assert capsys.readouterr().err == "gjeval: input error: the curve writer process ended with exit code -9\n"
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
