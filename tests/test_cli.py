"""CLI behavior: exit codes, emitted files, byte-level determinism, and the
report JSON contract (validated against the packaged schema)."""

from __future__ import annotations

import argparse
import csv
import importlib.metadata
import importlib.resources
import json
import os
import re
import shutil
import subprocess
import sys
import time
import tomllib
import warnings
from datetime import datetime, timedelta
from pathlib import Path

import jsonschema
import pytest

from conftest import params_from_json, predictions_csv, reader_columns, row_patient_ids

from gjeval.cli import _write_outputs, build_parser, main
from gjeval.data import parse_predictions, parse_readers
from gjeval.report import dump_json


def test_readme_synopsis_names_every_option():
    """Each subcommand's lines of the README CLI block name each of its options."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```", 2)[1]
    synopsis: dict[str, str] = {}
    for line in block.splitlines():
        if line.startswith("gjeval "):
            command = line.split()[1]
        if line.strip():
            synopsis[command] = synopsis.get(command, "") + line + "\n"
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    assert set(commands) == set(synopsis)
    for command, sub in commands.items():
        for action in sub._actions:
            for option in action.option_strings:
                if option not in ("-h", "--help"):
                    assert re.search(rf"(?<![\w-]){option}(?![\w-])", synopsis[command]), (command, option)


def report_schema() -> dict:
    """The report schema shipped with the package."""
    schema = importlib.resources.files("gjeval").joinpath("schemas/report-v1.json")
    return json.loads(schema.read_text(encoding="utf-8"))


def run(*argv: str) -> int:
    return main(list(argv))


def tree(outdir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir()) if p.is_file()}


def declared_console_script() -> str:
    """The ``module:attr`` target of the ``gjeval`` script in pyproject.toml."""
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    return tomllib.loads(pyproject.read_text())["project"]["scripts"]["gjeval"]


@pytest.fixture(scope="module")
def pred_csv(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("inputs") / "pred.csv"
    code = run("synth", "--patients", "8,6,9", "--images-max", "4",
               "--sep", "2.0", "--seed", "11", "--out", str(path))
    assert code == 0
    return path


@pytest.fixture(scope="module")
def pred_csv_b(tmp_path_factory, pred_csv) -> Path:
    # second model on the same images: same truth, perturbed probabilities
    import numpy as np

    from gjeval.data import Dataset

    ds = parse_predictions(pred_csv.read_text())
    noisy = ds.probs + np.random.default_rng(5).uniform(0, 0.4, size=ds.probs.shape)
    noisy /= noisy.sum(axis=1, keepdims=True)
    ds_b = Dataset.from_columns(ds.image_ids, row_patient_ids(ds), ds.truth, noisy,
                                sex=[ds.sex[c] for c in ds.patient_codes.tolist()], age=ds.age[ds.patient_codes])
    path = tmp_path_factory.mktemp("inputs-b") / "pred_b.csv"
    path.write_text(predictions_csv(ds_b))
    return path


@pytest.fixture(scope="module")
def readers_csv(tmp_path_factory, pred_csv) -> Path:
    import numpy as np

    ds = parse_predictions(pred_csv.read_text())
    gen = np.random.default_rng(77)
    lines = ["reader_id,group,arm,image_id,pred_label,elapsed_s"]
    readers = [
        ("r1", "trainee", "A"), ("r2", "trainee", "B"),
        ("r3", "competent", "A"), ("r4", "expert", "B"),
    ]
    for rid, group, arm in readers:
        for image_id, truth in zip(ds.image_ids, ds.truth.tolist()):
            pred = truth if gen.random() < 0.75 else int(gen.integers(0, 3))
            lines.append(f"{rid},{group},{arm},{image_id},{pred},{gen.integers(5, 60)}")
    path = tmp_path_factory.mktemp("inputs-r") / "readers.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


class TestEvaluate:
    def test_outputs_and_schema(self, pred_csv, tmp_path):
        out = tmp_path / "ev"
        assert run("evaluate", "--pred", str(pred_csv), "--out", str(out)) == 0
        names = set(tree(out))
        assert "report.json" in names and "cm.csv" in names
        assert {"roc_micro.csv", "pr_micro.csv"} <= names
        doc = json.loads((out / "report.json").read_text())
        jsonschema.validate(doc, report_schema())
        assert doc["schema"] == "gjeval-report-v1"
        assert doc["kind"] == "evaluate"
        assert "config_sha256" in doc and "generated_at" not in doc
        assert doc["results"]["report"]["n"] > 0

    def test_rerun_byte_identical(self, pred_csv, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run("evaluate", "--pred", str(pred_csv), "--out", str(a))
        run("evaluate", "--pred", str(pred_csv), "--out", str(b))
        assert tree(a) == tree(b)

    def test_svg_adds_files_without_touching_report(self, pred_csv, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run("evaluate", "--pred", str(pred_csv), "--out", str(a))
        run("evaluate", "--pred", str(pred_csv), "--out", str(b), "--svg")
        ta, tb = tree(a), tree(b)
        assert {"roc.svg", "pr.svg"} <= set(tb) and "roc.svg" not in ta
        assert tb["roc.svg"].startswith(b"<svg")
        for name in ta:
            assert ta[name] == tb[name]

    def test_stamp_breaks_identity(self, pred_csv, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run("evaluate", "--pred", str(pred_csv), "--out", str(a), "--stamp")
        run("evaluate", "--pred", str(pred_csv), "--out", str(b), "--stamp")
        da = json.loads((a / "report.json").read_text())
        db = json.loads((b / "report.json").read_text())
        assert "generated_at" in da
        da.pop("generated_at"), db.pop("generated_at")
        assert da == db

    def test_levels(self, pred_csv, tmp_path):
        for level in ("image", "patient", "weighted"):
            out = tmp_path / level
            assert run("evaluate", "--pred", str(pred_csv), "--level", level,
                       "--out", str(out)) == 0
            doc = json.loads((out / "report.json").read_text())
            assert doc["results"]["report"]["level"] == level

    def test_input_hash_recorded(self, pred_csv, tmp_path):
        out = tmp_path / "ev"
        run("evaluate", "--pred", str(pred_csv), "--out", str(out))
        doc = json.loads((out / "report.json").read_text())
        import hashlib

        want = hashlib.sha256(pred_csv.read_bytes()).hexdigest()
        assert doc["inputs"]["pred"]["sha256"] == want

    @pytest.mark.parametrize("command, option", [
        ("evaluate", "--pred"), ("compare", "--pred-b"), ("readers", "--readers"),
    ], ids=["evaluate", "compare", "readers"])
    def test_fifo_input_is_read_and_hashed_once(self, command, option, pred_csv, pred_csv_b, readers_csv, tmp_path):
        # a FIFO yields its bytes to one reader only: a second open for the
        # digest would block for want of a writer. compare and readers parse
        # a FIFO second file in the calling process.
        import hashlib

        argv = [command, *report_argv(command, pred_csv, pred_csv_b, readers_csv)]
        data = Path(argv[argv.index(option) + 1]).read_bytes()
        fifo = tmp_path / "input.fifo"
        argv[argv.index(option) + 1] = str(fifo)
        os.mkfifo(fifo)
        proc = subprocess.Popen([sys.executable, "-m", "gjeval", *argv, "--out", str(tmp_path / "fifo")],
                                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        deadline = time.monotonic() + 30
        try:
            while True:  # opening to write without blocking fails until the CLI opens to read
                try:
                    fd = os.open(fifo, os.O_WRONLY | os.O_NONBLOCK)
                    break
                except OSError:
                    assert proc.poll() is None and time.monotonic() < deadline, "the CLI did not open the FIFO"
                    time.sleep(0.01)
            os.set_blocking(fd, True)
            with open(fd, "wb") as fh:
                fh.write(data)
            _, err = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, err
        doc = json.loads((tmp_path / "fifo" / "report.json").read_text())
        name = option[2:].replace("-", "_")
        assert doc["inputs"][name] == {"path": str(fifo), "sha256": hashlib.sha256(data).hexdigest()}
        # the same bytes from a regular file at the same path give the same files
        fifo.unlink()
        fifo.write_bytes(data)
        assert run(*argv, "--out", str(tmp_path / "file")) == 0
        assert tree(tmp_path / "fifo") == tree(tmp_path / "file")


def report_argv(command: str, pred_csv: Path, pred_csv_b: Path, readers_csv: Path) -> list[str]:
    """A small run of a report-writing subcommand, without ``--out``."""
    return {
        "evaluate": ["--pred", str(pred_csv)],
        "compare": ["--pred-a", str(pred_csv), "--pred-b", str(pred_csv_b)],
        "readers": ["--pred", str(pred_csv), "--readers", str(readers_csv)],
        "kfold": ["--pred", str(pred_csv), "--k", "3"],
        "fusion-demo": ["--dim", "8", "--hidden", "3", "--epochs", "1", "--batch", "64"],
    }[command]


@pytest.mark.parametrize("command", ["evaluate", "compare", "readers", "kfold", "fusion-demo"])
def test_config_holds_only_what_changes_results(command, pred_csv, pred_csv_b, readers_csv, tmp_path, capsys):
    """Each report's config holds every option that can change its results,
    in the order the subcommand declares them, and no other: not ``--out``,
    ``--stamp`` or ``--svg``. There is no ``--seed`` where nothing is random,
    and no ``--workers``, as the bytes do not depend on how work is spread."""
    keys = {
        "evaluate": ["subcommand", "pred", "level", "strict"],
        "compare": ["subcommand", "pred_a", "pred_b", "class"],
        "readers": ["subcommand", "pred", "readers"],
        "kfold": ["subcommand", "pred", "k", "by", "seed"],
        "fusion-demo": ["subcommand", "dim", "hidden", "epochs", "batch", "lr", "seed", "grad_check",
                        "n_samples", "separation", "holdout_frac"],
    }[command]
    argv = [command, *report_argv(command, pred_csv, pred_csv_b, readers_csv), "--out", str(tmp_path / "r")]
    assert run(*argv, "--stamp", *(["--svg"] if command == "evaluate" else [])) == 0
    assert list(json.loads((tmp_path / "r" / "report.json").read_text())["config"]) == keys
    capsys.readouterr()
    for flag in [f for f in ("--seed", "--workers") if f[2:] not in keys]:
        assert run(*argv[:-1], str(tmp_path / "x"), flag, "2") == 1
        assert capsys.readouterr().err == f"gjeval: unrecognized arguments: {flag} 2\n"
        assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", ["evaluate", "compare", "readers", "kfold", "fusion-demo"])
def test_stamp_adds_only_generated_at(command, pred_csv, pred_csv_b, readers_csv, tmp_path):
    """``--stamp`` on each report-writing subcommand puts an ISO-8601 UTC
    time right after ``inputs`` and changes no other byte of any file."""
    argv = report_argv(command, pred_csv, pred_csv_b, readers_csv)
    plain, stamped = tmp_path / "plain", tmp_path / "stamped"
    assert run(command, *argv, "--out", str(plain)) == 0
    assert run(command, *argv, "--out", str(stamped), "--stamp") == 0
    doc = json.loads((stamped / "report.json").read_text(encoding="utf-8"))
    keys = list(doc)
    assert keys[keys.index("inputs") + 1] == "generated_at"
    when = datetime.fromisoformat(doc.pop("generated_at"))
    assert when.tzinfo is not None and when.utcoffset() == timedelta(0)
    files, stamped_files = tree(plain), tree(stamped)
    assert dump_json(doc).encode() == files.pop("report.json")
    stamped_files.pop("report.json")
    assert stamped_files == files


class TestExitCodes:
    def test_missing_file_is_1(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run("evaluate", "--pred", str(tmp_path / "nope.csv"), "--out", str(out)) == 1
        assert not out.exists()
        assert "gjeval:" in capsys.readouterr().err

    def test_parse_error_is_1(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("image_id,patient_id\nx,y\n")
        out = tmp_path / "o"
        assert run("evaluate", "--pred", str(bad), "--out", str(out)) == 1
        assert not out.exists()

    def test_impossible_age_is_1(self, tmp_path, capsys):
        # an infinite age once gave exit 0 and "age_mean": Infinity in report.json
        pred = tmp_path / "age.csv"
        pred.write_text(
            "image_id,patient_id,true_label,p_aegja,p_eegja,p_control,center,modality,sex,age\n"
            "i1,p1,A-EGJA,0.8,0.15,0.05,C1,WLI,F,inf\n"
        )
        out = tmp_path / "o"
        assert run("evaluate", "--pred", str(pred), "--out", str(out)) == 1
        assert not out.exists()
        assert "row 2: age must be in [0, 150], got 'inf'" in capsys.readouterr().err

    def test_huge_age_is_1_with_its_row(self, tmp_path, capsys):
        # ages of 1e308 once passed the parser, overflowed the age mean and SD
        # with numpy warnings and failed the JSON dump without a row number
        pred = tmp_path / "age.csv"
        pred.write_text(
            "image_id,patient_id,true_label,p_aegja,p_eegja,p_control,sex,age\n"
            "i1,p1,A-EGJA,0.8,0.15,0.05,F,1e308\n"
            "i2,p2,control,0.1,0.2,0.7,M,1e308\n"
        )
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("evaluate", "--pred", str(pred), "--out", str(out)) == 1
        assert capsys.readouterr().err == "gjeval: input error: row 2: age must be in [0, 150], got '1e308'\n"
        assert not out.exists()

    def test_huge_elapsed_s_is_1_with_its_row(self, pred_csv, tmp_path, capsys):
        # times of 1e308 once overflowed the time cost the same way
        image_ids = parse_predictions(pred_csv.read_text()).image_ids[:2]
        readers = tmp_path / "readers.csv"
        readers.write_text("reader_id,group,arm,image_id,pred_label,elapsed_s\n" + "".join(
            f"{rid},trainee,{arm},{image},0,1e308\n" for rid, arm in (("r1", "A"), ("r2", "B")) for image in image_ids))
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("readers", "--pred", str(pred_csv), "--readers", str(readers), "--out", str(out)) == 1
        assert capsys.readouterr().err == (
            "gjeval: input error: row 2: elapsed_s must be in [0, 86400] seconds, got '1e308'\n")
        assert not out.exists()

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize("subcommand", ["evaluate", "readers"])
    def test_invalid_utf8_names_its_row(self, subcommand, newline, pred_csv, readers_csv, tmp_path, capsys):
        # the decoder's own message once came without a row
        bad = tmp_path / "bad.csv"
        good = (pred_csv if subcommand == "evaluate" else readers_csv).read_bytes()
        lines = good.decode("utf-8").splitlines(keepends=True)
        lines[2] = lines[2][:3] + "\udcff" + lines[2][3:]
        bad.write_bytes("".join(lines).replace("\n", newline).encode("utf-8", "surrogateescape"))
        argv = {"evaluate": ["--pred", str(bad)],
                "readers": ["--pred", str(pred_csv), "--readers", str(bad)]}[subcommand]
        out = tmp_path / "o"
        assert run(subcommand, *argv, "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("gjeval: input error: row 3: 'utf-8' codec can't decode byte 0xff")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_curve_check_runs_before_any_file_is_written(self, pred_csv, tmp_path, capsys, monkeypatch):
        # the curve files are formatted while they are written; their check is not
        import gjeval.report as report_mod

        monkeypatch.setattr(report_mod, "_same_bits", lambda a, b: False)
        out = tmp_path / "o"
        assert run("evaluate", "--pred", str(pred_csv), "--out", str(out)) == 1
        assert not out.exists()
        assert "micro PR recall and thresholds are not the ROC" in capsys.readouterr().err

    # synth --out names the file it writes, so only a path under a file fails
    @pytest.mark.parametrize("command, under_file", [
        ("evaluate", "afile"), ("evaluate", "afile/sub"),
        ("kfold", "afile"), ("kfold", "afile/sub"), ("synth", "afile/sub"),
    ])
    def test_out_at_or_under_a_regular_file_is_1(self, command, under_file, pred_csv, tmp_path, capsys):
        # a FileExistsError or NotADirectoryError from mkdir once escaped as a traceback
        afile = tmp_path / "afile"
        afile.write_text("keep\n")
        argv = {
            "evaluate": ["evaluate", "--pred", str(pred_csv)],
            "kfold": ["kfold", "--pred", str(pred_csv), "--k", "3"],
            "synth": ["synth", "--patients", "2,2,2"],
        }[command]
        assert run(*argv, "--out", str(tmp_path / under_file)) == 1
        err = capsys.readouterr().err
        assert err.startswith("gjeval: input error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert afile.read_text() == "keep\n"

    @pytest.mark.parametrize("command", ["evaluate", "compare", "readers", "kfold", "synth", "fusion-demo"])
    def test_empty_out_is_1(self, command, pred_csv, readers_csv, tmp_path, monkeypatch, capsys):
        # Path("") is the working directory, which evaluate once filled with its files
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        argv = {
            "evaluate": ["evaluate", "--pred", str(pred_csv)],
            "compare": ["compare", "--pred-a", str(pred_csv), "--pred-b", str(pred_csv)],
            "readers": ["readers", "--pred", str(pred_csv), "--readers", str(readers_csv)],
            "kfold": ["kfold", "--pred", str(pred_csv), "--k", "3"],
            "synth": ["synth", "--patients", "2,2,2"],
            "fusion-demo": ["fusion-demo", "--dim", "8", "--hidden", "3", "--epochs", "1"],
        }[command]
        assert run(*argv, "--out", "") == 1
        captured = capsys.readouterr()
        assert captured.err == f"gjeval {command}: argument --out: must not be empty\n"
        assert captured.out == ""
        assert list(cwd.iterdir()) == []

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_dump_json_rejects_non_finite(self, value):
        with pytest.raises(ValueError, match="not JSON compliant"):
            dump_json({"results": {"summary": {"age_mean": value}}})

    @pytest.mark.parametrize("subcommand, text, message", [
        ("evaluate", "", "empty file"),
        ("readers", "reader_id,group,arm,image_id,pred_label,elapsed_s\n", "no data rows"),
    ], ids=["empty-predictions", "header-only-readers"])
    def test_empty_input_is_1(self, subcommand, text, message, pred_csv, tmp_path, capsys):
        empty, out = tmp_path / "empty.csv", tmp_path / "o"
        empty.write_text(text)
        argv = {"evaluate": ["--pred", str(empty)], "readers": ["--pred", str(pred_csv), "--readers", str(empty)]}
        assert run(subcommand, *argv[subcommand], "--out", str(out)) == 1
        assert capsys.readouterr() == ("", f"gjeval: input error: {message}\n")
        assert not out.exists()

    def test_usage_error_is_1(self, tmp_path, capsys):
        assert run("evaluate", "--bogus-flag") == 1
        assert run("synth", "--patients", "1,2", "--out", str(tmp_path / "x.csv")) == 1
        capsys.readouterr()

    def test_no_subcommand_prints_help(self, capsys):
        assert run() == 1
        assert "usage:" in capsys.readouterr().out

    def test_strict_degeneracy_is_2(self, tmp_path, capsys):
        # no CONTROL truths and none predicted: specificity denominators fine,
        # but PPV for control is 0/0 -> degenerate under --strict
        lines = ["image_id,patient_id,true_label,p_aegja,p_eegja,p_control"]
        for i in range(6):
            truth = i % 2
            p = [0.1, 0.1, 0.1]
            p[truth] = 0.8
            lines.append(f"img{i},p{i},{truth},{p[0]},{p[1]},{p[2]}")
        pred = tmp_path / "two_class.csv"
        pred.write_text("\n".join(lines) + "\n")
        out = tmp_path / "o"
        assert run("evaluate", "--pred", str(pred), "--out", str(out), "--strict") == 2
        assert not out.exists()
        assert "degeneracy" in capsys.readouterr().err
        # without --strict the same input succeeds
        assert run("evaluate", "--pred", str(pred), "--out", str(out)) == 0

    def test_divergence_is_3(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = run("fusion-demo", "--dim", "8", "--hidden", "3", "--epochs", "2",
                   "--batch", "64", "--lr", "1e200", "--out", str(out))
        assert code == 3
        assert not out.exists()
        assert "diverged" in capsys.readouterr().err

    def test_failed_grad_check_is_4(self, tmp_path, capsys, monkeypatch):
        import gjeval.fusion as fusion_mod

        monkeypatch.setattr(fusion_mod, "grad_check", lambda *a, **k: 0.5)
        out = tmp_path / "o"
        code = run("fusion-demo", "--dim", "8", "--hidden", "3", "--epochs", "1",
                   "--batch", "64", "--out", str(out), "--grad-check")
        assert code == 4
        # diagnostics are still written so the failure can be inspected
        assert (out / "report.json").exists() and (out / "params.json").exists()
        assert "self-check failed" in capsys.readouterr().err

    def test_wrong_backward_is_4(self, tmp_path, monkeypatch):
        import gjeval.fusion as fusion_mod

        correct = fusion_mod.backward

        def skewed_backward(*args, **kwargs):
            loss, grads = correct(*args, **kwargs)
            grads["gate_w2"] = grads["gate_w2"] * 1.01
            return loss, grads

        args = ["fusion-demo", "--dim", "8", "--hidden", "3", "--epochs", "1",
                "--batch", "64", "--grad-check"]
        assert run(*args, "--out", str(tmp_path / "ok")) == 0
        monkeypatch.setattr(fusion_mod, "backward", skewed_backward)
        out = tmp_path / "o"
        assert run(*args, "--out", str(out)) == 4
        gc = json.loads((out / "report.json").read_text())["results"]["grad_check"]
        assert gc["max_relative_error"] >= gc["tolerance"]


class TestWriteOutputs:
    def test_chunked_files_are_written_in_lockstep(self, tmp_path, capsys):
        order = []

        def chunks(name, n):
            for k in range(n):
                order.append(f"{name}{k}")
                yield f"{name}{k}\n"

        out = tmp_path / "o"
        files = {"a.txt": "whole\n", "b.csv": chunks("b", 3), "c.csv": chunks("c", 1), "d.csv": chunks("d", 0)}
        _write_outputs(out, files)
        assert order == ["b0", "c0", "b1", "b2"]
        assert tree(out) == {"a.txt": b"whole\n", "b.csv": b"b0\nb1\nb2\n", "c.csv": b"c0\n", "d.csv": b""}
        assert capsys.readouterr().out.splitlines() == [f"wrote {out / name}" for name in files]

    def test_failed_chunk_leaves_a_truncated_file(self, tmp_path):
        def chunks():
            yield "first\n"
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            _write_outputs(tmp_path, {"a.csv": chunks()})
        assert (tmp_path / "a.csv").read_text() == "first\n"


class TestCompare:
    def test_outputs(self, pred_csv, pred_csv_b, tmp_path):
        out = tmp_path / "cmp"
        assert run("compare", "--pred-a", str(pred_csv), "--pred-b", str(pred_csv_b),
                   "--out", str(out)) == 0
        doc = json.loads((out / "report.json").read_text())
        jsonschema.validate(doc, report_schema())
        names = [t["name"] for t in doc["results"]["tests"]]
        assert names[:2] == ["bowker", "kappa"]
        assert {"delong:aegja", "delong:eegja", "delong:control"} <= set(names)
        for t in doc["results"]["tests"]:
            assert t["p"] is None or 0.0 <= t["p"] <= 1.0
        assert doc["results"]["join"]["n_common"] == doc["results"]["join"]["n_a"]

    def test_class_filter(self, pred_csv, pred_csv_b, tmp_path):
        out = tmp_path / "cmp"
        assert run("compare", "--pred-a", str(pred_csv), "--pred-b", str(pred_csv_b),
                   "--out", str(out), "--class", "eegja") == 0
        names = [t["name"] for t in json.loads((out / "report.json").read_text())["results"]["tests"]]
        assert "delong:eegja" in names and "delong:aegja" not in names

    def test_deterministic(self, pred_csv, pred_csv_b, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run("compare", "--pred-a", str(pred_csv), "--pred-b", str(pred_csv_b), "--out", str(a))
        run("compare", "--pred-a", str(pred_csv), "--pred-b", str(pred_csv_b), "--out", str(b))
        assert tree(a) == tree(b)


class TestReaders:
    def test_outputs(self, pred_csv, readers_csv, tmp_path):
        out = tmp_path / "rd"
        assert run("readers", "--pred", str(pred_csv), "--readers", str(readers_csv),
                   "--out", str(out)) == 0
        doc = json.loads((out / "report.json").read_text())
        jsonschema.validate(doc, report_schema())
        cells = {(g["group"], g["arm"]) for g in doc["results"]["groups"]}
        assert cells == {("trainee", "A"), ("trainee", "B"), ("competent", "A"), ("expert", "B")}
        assert set(doc["results"]["model_vs_group_kappa"]) == {
            "trainee:A", "trainee:B", "competent:A", "expert:B"
        }
        assert len(doc["results"]["group_vs_group_kappa"]) + len(doc["results"]["notes"]) == 6
        lines = (out / "reader_points.csv").read_text().splitlines()
        assert lines[0] == "reader_id,group,arm,class,sensitivity,specificity,ppv"
        assert len(lines) == 1 + 4 * 3  # 4 readers x 3 classes

    def test_deterministic(self, pred_csv, readers_csv, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run("readers", "--pred", str(pred_csv), "--readers", str(readers_csv), "--out", str(a))
        run("readers", "--pred", str(pred_csv), "--readers", str(readers_csv), "--out", str(b))
        assert tree(a) == tree(b)

    def test_no_elapsed_column_reads_as_blank_times(self, pred_csv, readers_csv, tmp_path):
        """A reader file without an ``elapsed_s`` column parses to the columns
        of the same file with that column left blank, and writes the same
        results block and reader points."""
        lines = readers_csv.read_text().splitlines()
        texts = {"none": "".join(line.rsplit(",", 1)[0] + "\n" for line in lines),
                 "blank": lines[0] + "\n" + "".join(line.rsplit(",", 1)[0] + ",\n" for line in lines[1:])}
        assert texts["none"].startswith("reader_id,group,arm,image_id,pred_label\n")
        assert reader_columns(parse_readers(texts["none"])) == reader_columns(parse_readers(texts["blank"]))
        outputs = {}
        for name, text in texts.items():
            path, out = tmp_path / f"{name}.csv", tmp_path / name
            path.write_text(text)
            assert run("readers", "--pred", str(pred_csv), "--readers", str(path), "--out", str(out)) == 0
            doc = json.loads((out / "report.json").read_text())
            outputs[name] = doc["results"], (out / "reader_points.csv").read_bytes()
        assert outputs["none"] == outputs["blank"]
        assert not any("time_cost_s" in g["report"] for g in outputs["none"][0]["groups"])

    def test_model_rows_looked_up_once(self, pred_csv, readers_csv, tmp_path, monkeypatch):
        from gjeval import aggregate

        calls = []
        rows_of = aggregate._rows_of
        monkeypatch.setattr(aggregate, "_rows_of", lambda *a: calls.append(1) or rows_of(*a))
        assert run("readers", "--pred", str(pred_csv), "--readers", str(readers_csv),
                   "--out", str(tmp_path / "rd")) == 0
        assert len(calls) == 1


class TestQuotedIds:
    """Ids holding a comma, a quote or a newline come back from the written
    CSV files under ``csv.reader``; plain ids keep the plain bytes. A lone
    CR cannot reach an id through the command line, which reads input files
    with CR and CRLF turned into LF; ``data.csv_text`` quotes one all the
    same (see ``tests/test_data.py``)."""

    IMAGES = ["img,1", 'img"2', "img\n3", "img4", "img5", "img6"]
    PATIENTS = ["p,1", 'p"2', "p\n3", "p4", "p5", "p6"]
    READERS = ["r,1", 'r"2', "r\n3"]

    @pytest.fixture()
    def inputs(self, tmp_path):
        probs = ["0.7,0.2,0.1", "0.2,0.7,0.1", "0.1,0.2,0.7", "0.6,0.3,0.1", "0.3,0.6,0.1", "0.1,0.3,0.6"]
        truths = ["A-EGJA", "E-EGJA", "control"] * 2
        pred = tmp_path / "pred.csv"
        with pred.open("w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["image_id", "patient_id", "true_label", "p_aegja", "p_eegja", "p_control"])
            for row in zip(self.IMAGES, self.PATIENTS, truths, probs):
                w.writerow([*row[:3], *row[3].split(",")])
        readers = tmp_path / "readers.csv"
        with readers.open("w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["reader_id", "group", "arm", "image_id", "pred_label", "elapsed_s"])
            for rid, group in zip(self.READERS, ("trainee", "competent", "expert")):
                for k, image_id in enumerate(self.IMAGES):
                    w.writerow([rid, group, "A", image_id, k % 3, 10 + k])
        return pred, readers

    @staticmethod
    def read_rows(path: Path) -> list[list[str]]:
        with path.open(newline="") as fh:
            return list(csv.reader(fh))

    @pytest.mark.parametrize("by", ["patient", "image"])
    def test_assignments_read_back(self, inputs, by, tmp_path):
        out = tmp_path / "kf"
        assert run("kfold", "--pred", str(inputs[0]), "--k", "2", "--by", by, "--out", str(out)) == 0
        rows = self.read_rows(out / "assignments.csv")
        assert rows[0] == ["unit_id", "fold"]
        assert [r[0] for r in rows[1:]] == (self.PATIENTS if by == "patient" else self.IMAGES)
        assert all(len(r) == 2 for r in rows)
        plain = (self.PATIENTS if by == "patient" else self.IMAGES)[3:]
        lines = (out / "assignments.csv").read_text().splitlines()
        assert lines[-3:] == [f"{u},{r[1]}" for u, r in zip(plain, rows[-3:])]

    def test_reader_points_read_back(self, inputs, tmp_path):
        out = tmp_path / "rd"
        assert run("readers", "--pred", str(inputs[0]), "--readers", str(inputs[1]), "--out", str(out)) == 0
        rows = self.read_rows(out / "reader_points.csv")
        assert rows[0] == ["reader_id", "group", "arm", "class", "sensitivity", "specificity", "ppv"]
        assert all(len(r) == 7 for r in rows)
        assert list(dict.fromkeys(r[0] for r in rows[1:])) == self.READERS


class TestKfold:
    def test_outputs_and_partition(self, pred_csv, tmp_path):
        out = tmp_path / "kf"
        assert run("kfold", "--pred", str(pred_csv), "--k", "5", "--out", str(out)) == 0
        doc = json.loads((out / "report.json").read_text())
        jsonschema.validate(doc, report_schema())
        assert doc["results"]["k"] == 5 and doc["results"]["unit"] == "patient"
        assert sum(doc["results"]["fold_sizes"]) == 23  # 8+6+9 patients
        lines = (out / "assignments.csv").read_text().splitlines()
        assert lines[0] == "unit_id,fold"
        assert len(lines) == 24
        folds = {int(l.split(",")[1]) for l in lines[1:]}
        assert folds == set(range(5))

    def test_seed_changes_assignment(self, pred_csv, tmp_path):
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        run("kfold", "--pred", str(pred_csv), "--k", "4", "--seed", "1", "--out", str(a))
        run("kfold", "--pred", str(pred_csv), "--k", "4", "--seed", "1", "--out", str(b))
        run("kfold", "--pred", str(pred_csv), "--k", "4", "--seed", "2", "--out", str(c))
        assert tree(a) == tree(b)
        assert (a / "assignments.csv").read_bytes() != (c / "assignments.csv").read_bytes()

    def test_image_unit(self, pred_csv, tmp_path):
        out = tmp_path / "kf"
        assert run("kfold", "--pred", str(pred_csv), "--k", "3", "--by", "image",
                   "--out", str(out)) == 0
        doc = json.loads((out / "report.json").read_text())
        n_images = sum(doc["results"]["fold_sizes"])
        assert n_images == len(parse_predictions(pred_csv.read_text()))

    def test_fold_sizes_counted_once(self, pred_csv, tmp_path):
        """Each fold's size is counted once: ``fold_sizes[i]`` is
        ``per_fold[i]["units"]``, and both are the number of units that
        ``assignments.csv`` puts in fold i."""
        for by in ("patient", "image"):
            out = tmp_path / by
            assert run("kfold", "--pred", str(pred_csv), "--k", "5", "--by", by, "--out", str(out)) == 0
            doc = json.loads((out / "report.json").read_text())["results"]
            folds = [int(row[1]) for row in TestQuotedIds.read_rows(out / "assignments.csv")[1:]]
            assert [f["units"] for f in doc["per_fold"]] == doc["fold_sizes"]
            assert doc["fold_sizes"] == [folds.count(fold) for fold in range(5)]


PATIENTS_RULE = "expects three comma-separated integers, none negative and not all 0, got "


class TestSynth:
    def test_round_trip_and_counts(self, tmp_path, capsys):
        path = tmp_path / "s.csv"
        assert run("synth", "--patients", "3,2,4", "--images-max", "2",
                   "--seed", "3", "--out", str(path)) == 0
        ds = parse_predictions(path.read_text())
        assert capsys.readouterr().out == f"wrote {path} (9 patients, {len(ds)} images)\n"
        from gjeval.data import summarize

        s = summarize(ds)
        assert s["patients"] == 9
        assert s["patients_by_class"] == {"A-EGJA": 3, "E-EGJA": 2, "control": 4}

    def test_nan_separation_is_1(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert run("synth", "--sep", "nan", "--out", str(out)) == 1
        assert not out.exists()
        assert "separation must be >= 0, got nan" in capsys.readouterr().err

    # text that is not of an option's type is a usage error; a value that the
    # spec rejects is an input error
    @pytest.mark.parametrize("argv, message", [
        (["--patients", "1,2,x"], "gjeval synth: argument --patients: " + PATIENTS_RULE + "'1,2,x'"),
        (["--patients", "1,2"], "gjeval synth: argument --patients: " + PATIENTS_RULE + "'1,2'"),
        (["--patients", "0,0,0"], "gjeval synth: argument --patients: " + PATIENTS_RULE + "'0,0,0'"),
        (["--sep", "abc"], "gjeval synth: argument --sep: invalid float value: 'abc'"),
        (["--images-min", "0"], "gjeval: input error: need 1 <= images_min <= images_max"),
        (["--images-min", "5", "--images-max", "2"], "gjeval: input error: need 1 <= images_min <= images_max"),
        # a value that starts with "-" and is not a plain number is taken for
        # an option unless "=" joins it to its own
        (["--sep", "-inf"], "gjeval synth: argument --sep: expected one argument"),
        (["--sep=-inf"], "gjeval: input error: separation must be >= 0, got -inf"),
    ], ids=["patients-not-int", "patients-two", "patients-zero", "sep-not-float", "images-min-0",
            "images-min-above-max", "sep-minus-inf-apart", "sep-minus-inf-joined"])
    def test_bad_option_is_1(self, argv, message, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert run("synth", *argv, "--out", str(out)) == 1
        assert capsys.readouterr() == ("", message + "\n")
        assert not out.exists()

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run("synth", "--patients", "3,3,3", "--seed", "9", "--out", str(a))
        run("synth", "--patients", "3,3,3", "--seed", "9", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestFusionDemo:
    def test_quick_run(self, tmp_path):
        out = tmp_path / "fd"
        code = run("fusion-demo", "--dim", "16", "--hidden", "4", "--epochs", "5",
                   "--batch", "64", "--lr", "1e-3", "--seed", "2",
                   "--grad-check", "--out", str(out))
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        jsonschema.validate(doc, report_schema())
        assert doc["results"]["train"]["epochs_run"] == 5
        gc = doc["results"]["grad_check"]
        assert gc["max_relative_error"] < gc["tolerance"]
        params = params_from_json((out / "params.json").read_text())
        assert params.config.c_dino == 16
        log_lines = (out / "training_log.csv").read_text().splitlines()
        assert log_lines[0] == "epoch,train_loss,train_acc,holdout_acc"
        assert len(log_lines) == 6

    def test_grad_check_across_relu_kink(self, tmp_path):
        # with the default shape and schedule, this seed's training-path probe
        # has an h2 pre-activation of 8.6e-6, inside the default step of 1e-5
        out = tmp_path / "fd"
        code = run("fusion-demo", "--grad-check", "--seed", "1130821894", "--out", str(out))
        assert code == 0
        gc = json.loads((out / "report.json").read_text())["results"]["grad_check"]
        assert gc["tolerance"] == 1e-4
        assert gc["training_path"] < gc["tolerance"]

    @pytest.mark.parametrize("option, value, message", [
        ("--batch", "0", "batch_size must be >= 1, got 0"),
        ("--epochs", "-1", "epochs must be >= 0, got -1"),
        ("--lr", "-1", "lr must be finite and positive, got -1.0"),
        ("--lr", "nan", "lr must be finite and positive, got nan"),
    ], ids=["batch-0", "epochs-negative", "lr-negative", "lr-nan"])
    def test_bad_training_option_is_1(self, tmp_path, capsys, option, value, message):
        out = tmp_path / "fd"
        assert run("fusion-demo", "--dim", "8", "--hidden", "3", option, value, "--out", str(out)) == 1
        assert not out.exists()
        assert message in capsys.readouterr().err

    # gates of more than 8 channels, and with C = 1 or a single hidden channel
    @pytest.mark.parametrize("dim, hidden", [("12", "3"), ("12", "16"), ("1", "3"), ("1", "1")],
                             ids=["dim12-hidden3", "dim12-hidden16", "dim1-hidden3", "dim1-hidden1"])
    def test_deterministic(self, tmp_path, dim, hidden):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["fusion-demo", "--dim", dim, "--hidden", hidden, "--epochs", "2",
                "--batch", "64", "--lr", "1e-3", "--seed", "4", "--grad-check"]
        assert run(*args, "--out", str(a)) == 0
        assert run(*args, "--out", str(b)) == 0
        assert tree(a) == tree(b)


class TestEntryPoints:
    def test_module_invocation(self, pred_csv, tmp_path):
        out = tmp_path / "o"
        proc = subprocess.run(
            [sys.executable, "-m", "gjeval", "evaluate", "--pred", str(pred_csv),
             "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (out / "report.json").exists()

    def test_console_script_matches_module(self, pred_csv, tmp_path):
        # run the declared entry point the way an installed wrapper script
        # does, so the check needs no install
        module, attr = declared_console_script().split(":")
        wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
        argv = ["evaluate", "--pred", str(pred_csv), "--out"]
        script, as_module, in_process = tmp_path / "script", tmp_path / "module", tmp_path / "run"
        for cmd, out in (([sys.executable, "-c", wrapper], script),
                         ([sys.executable, "-m", "gjeval"], as_module)):
            proc = subprocess.run([*cmd, *argv, str(out)], capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
        assert run(*argv, str(in_process)) == 0
        assert tree(script) == tree(in_process) == tree(as_module)

    @pytest.mark.parametrize("subcommand", ["evaluate", "compare", "readers", "kfold", "synth", "fusion-demo"])
    def test_files_read_and_written_as_utf8(self, subcommand, pred_csv, pred_csv_b, readers_csv, tmp_path):
        # EncodingWarning flags every file opened in the locale's encoding
        out = tmp_path / "out"
        ids = tmp_path / "ids.csv"  # non-ASCII patient ids, which kfold writes back out
        ids.write_text("image_id,patient_id,true_label,p_aegja,p_eegja,p_control\n" + "".join(
            f"é{k},pé{k},{k % 3},1,0,0\n" for k in range(6)), encoding="utf-8")
        argv = {
            "evaluate": ["--pred", str(pred_csv), "--out", str(out)],
            "compare": ["--pred-a", str(pred_csv), "--pred-b", str(pred_csv_b), "--out", str(out)],
            "readers": ["--pred", str(pred_csv), "--readers", str(readers_csv), "--out", str(out)],
            "kfold": ["--pred", str(ids), "--k", "3", "--out", str(out)],
            "synth": ["--patients", "2,2,2", "--out", str(out / "synth.csv")],
            "fusion-demo": ["--dim", "12", "--hidden", "3", "--epochs", "2", "--batch", "64", "--out", str(out)],
        }[subcommand]
        proc = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
             "-m", "gjeval", subcommand, *argv],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        if subcommand == "kfold":
            assert "pé0," in (out / "assignments.csv").read_bytes().decode("utf-8")

    @pytest.mark.skipif(shutil.which("gjeval") is None, reason="no gjeval console script on PATH")
    def test_installed_console_script_matches_module(self, pred_csv, tmp_path):
        declared = declared_console_script()
        try:
            dist = importlib.metadata.distribution("gjeval")
        except importlib.metadata.PackageNotFoundError:
            dist = None
        if dist is not None:
            installed = [ep.value for ep in dist.entry_points
                         if ep.group == "console_scripts" and ep.name == "gjeval"]
            assert installed == [declared], (
                f"installed gjeval entry point {installed} differs from "
                f"pyproject.toml's {declared!r}; reinstall the package"
            )
        argv = ["evaluate", "--pred", str(pred_csv), "--out"]
        script, in_process = tmp_path / "script", tmp_path / "run"
        proc = subprocess.run(["gjeval", *argv, str(script)], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert run(*argv, str(in_process)) == 0
        assert tree(script) == tree(in_process)
