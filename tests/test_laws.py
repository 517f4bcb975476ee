"""Metamorphic laws: a change to the input that must leave named outputs as
they are, checked end to end through the CLI on small synth inputs."""

from __future__ import annotations

import json

import pytest

from gjeval.cli import main


def synth(path, *argv: str):
    assert main(["synth", *argv, "--out", str(path)]) == 0
    return path


def evaluate(pred, out, level: str) -> dict:
    assert main(["evaluate", "--pred", str(pred), "--level", level, "--out", str(out)]) == 0
    return json.loads((out / "report.json").read_text(encoding="utf-8"))["results"]


def test_singleton_patients_make_the_levels_agree(tmp_path, capsys):
    """With one image per patient, ``image``, ``patient`` and ``weighted``
    write the same CSV files byte for byte, and reports that differ only in
    their level."""
    pred = synth(tmp_path / "pred.csv", "--patients", "44,18,50", "--images-min", "1", "--images-max", "1",
                 "--seed", "3")
    results = {level: evaluate(pred, tmp_path / level, level) for level in ("image", "patient", "weighted")}
    capsys.readouterr()
    csvs = sorted(path.name for path in (tmp_path / "image").glob("*.csv"))
    assert len(csvs) == 9
    for level in ("patient", "weighted"):
        for name in csvs:
            assert (tmp_path / level / name).read_bytes() == (tmp_path / "image" / name).read_bytes(), name
    for level, result in results.items():
        assert result["report"].pop("level") == level
    assert results["patient"] == results["image"] == results["weighted"]


def test_a_file_compared_with_itself(tmp_path, capsys):
    """Every test of a file against itself finds no difference; kappa is 1,
    and its z statistic still tests against zero agreement."""
    pred = synth(tmp_path / "pred.csv", "--patients", "8,6,9", "--images-max", "4", "--seed", "12")
    assert main(["compare", "--pred-a", str(pred), "--pred-b", str(pred), "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()
    tests = {t["name"]: t for t in json.loads((tmp_path / "o" / "report.json").read_text())["results"]["tests"]}
    assert sorted(tests) == ["bowker", "delong:aegja", "delong:control", "delong:eegja", "kappa"]
    for slug in ("aegja", "eegja", "control"):
        delong = tests[f"delong:{slug}"]
        assert (delong["statistic"], delong["p"], delong["detail"]["degenerate"]) == (0.0, 1.0, True)
        assert delong["detail"]["auc_a"] == delong["detail"]["auc_b"]
    assert (tests["bowker"]["statistic"], tests["bowker"]["p"]) == (0.0, 1.0)
    assert tests["kappa"]["detail"]["kappa"] == 1.0
    assert tests["kappa"]["statistic"] > 0


def rates(report: dict) -> dict:
    """The values of a report's rates, AUCs, APs and kappa: what a count
    scaled alike in every cell leaves unchanged (the CIs narrow)."""
    blocks = {**report["per_class"], "overall": report["overall"]}
    values = {(name, metric): stat["value"] for name, block in blocks.items()
              for metric, stat in block.items() if isinstance(stat, dict)}
    return {"rates": values, "auc": report["auc"], "ap": report["ap"], "kappa": report["kappa"]}


@pytest.mark.parametrize("level", ["image", "patient"])
def test_duplicated_patients_keep_every_rate(level, tmp_path, capsys):
    """Every patient copied under new ids, at unit weights, leaves each
    rate, AUC, AP and kappa bit-identical and doubles the counts."""
    pred = synth(tmp_path / "pred.csv", "--patients", "8,6,9", "--images-max", "4", "--seed", "12")
    header, *rows = pred.read_text().splitlines()
    copies = [",".join([f"{image}-copy", f"{patient}-copy", *rest])
              for image, patient, *rest in (row.split(",") for row in rows)]
    doubled = tmp_path / "doubled.csv"
    doubled.write_text("\n".join([header, *rows, *copies]) + "\n")
    once = evaluate(pred, tmp_path / "once", level)["report"]
    twice = evaluate(doubled, tmp_path / "twice", level)["report"]
    capsys.readouterr()
    assert rates(twice) == rates(once)
    assert twice["n"] == 2 * once["n"]
