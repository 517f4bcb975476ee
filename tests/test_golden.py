"""Golden output digests: the sha256 of every file each subcommand writes on
small seeded fixtures, pinned in ``golden_digests.json``.

A change that must not move output bytes (a refactor) leaves every digest
unchanged. A change that moves bytes on purpose regenerates the file with

    PYTHONPATH=src python tests/test_golden.py --write

which first prints each ``case/file`` whose digest moved, appeared or
vanished; the change says which digests moved and why. Every run uses
relative paths inside one working directory, because reports record their
input paths.
"""

from __future__ import annotations

import contextlib
import errno
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import gjeval.cli
from gjeval.cli import main

DIGESTS = Path(__file__).with_name("golden_digests.json")

# synthetic fixtures: name -> `gjeval synth` arguments
SYNTH = {
    "default": ["--seed", "1"],
    "sep0": ["--patients", "10,8,12", "--images-max", "6", "--sep", "0", "--seed", "2"],
    "onehot": ["--patients", "5,4,6", "--images-max", "4", "--sep", "inf", "--seed", "3"],
    "no_eegja": ["--patients", "6,0,7", "--images-max", "5", "--seed", "4"],
    "multi": ["--patients", "5,4,6", "--images-min", "8", "--images-max", "20", "--seed", "5"],
}
FIXTURES = (*SYNTH, "grid")

# run name -> argv; {f} is the fixture name
RUNS = {
    "evaluate_image": ["evaluate", "--pred", "{f}.csv", "--level", "image"],
    "evaluate_patient": ["evaluate", "--pred", "{f}.csv", "--level", "patient"],
    "evaluate_weighted": ["evaluate", "--pred", "{f}.csv", "--level", "weighted"],
    "evaluate_svg": ["evaluate", "--pred", "{f}.csv", "--level", "image", "--svg"],
    "compare": ["compare", "--pred-a", "{f}.csv", "--pred-b", "{f}_b.csv"],
    "readers": ["readers", "--pred", "{f}.csv", "--readers", "{f}_readers.csv"],
    "readers_sparse": ["readers", "--pred", "{f}.csv", "--readers", "{f}_readers_sparse.csv"],
    "readers_untimed": ["readers", "--pred", "{f}.csv", "--readers", "{f}_readers_untimed.csv"],
    "kfold_patient": ["kfold", "--pred", "{f}.csv", "--k", "4", "--by", "patient"],
    "kfold_image": ["kfold", "--pred", "{f}.csv", "--k", "4", "--by", "image"],
}
FUSION_DEMO = ["fusion-demo", "--dim", "12", "--hidden", "3", "--epochs", "2", "--batch", "64"]

CASES = (
    [f"{f}.synth" for f in SYNTH]
    + [f"{f}.{run}" for f in FIXTURES for run in RUNS]
    + ["fusion_demo"]
)


def grid_csv() -> str:
    """Probabilities on a 0.1 grid (exact ties inside rows, across rows and in
    patient means) plus rows that drift from 1 by up to 1.5e-4 and are
    renormalized at parse time."""
    gen = np.random.default_rng(6)
    triples = [(a, b, 10 - a - b) for a in range(11) for b in range(11 - a)]
    lines = ["image_id,patient_id,true_label,p_aegja,p_eegja,p_control"]
    image = 0
    for patient in range(30):
        truth = ("A-EGJA", "E-EGJA", "control")[patient % 3]
        for _ in range(int(gen.integers(1, 5))):
            image += 1
            if gen.random() < 0.2:
                probs = [f"{v:.4f}" for v in gen.dirichlet(np.ones(3))]
            else:
                probs = [repr(v / 10) for v in triples[int(gen.integers(len(triples)))]]
            lines.append(f"g{image:03d},q{patient:02d},{truth}," + ",".join(probs))
    return "\n".join(lines) + "\n"


def partner_csv(text: str, seed: int) -> str:
    """A second model on the same images: probabilities mixed with seeded noise."""
    gen = np.random.default_rng(seed)
    head, *rows = text.splitlines()
    out = [head]
    for row in rows:
        f = row.split(",")
        p = np.array([float(v) for v in f[3:6]]) + gen.uniform(0, 0.4, 3)
        p /= p.sum()
        out.append(",".join(f[:3] + [repr(float(v)) for v in p] + f[6:]))
    return "\n".join(out) + "\n"


def readers_csv(text: str, seed: int) -> str:
    """Five readers over every image: right three times in four, with timings."""
    gen = np.random.default_rng(seed)
    rows = [row.split(",") for row in text.splitlines()[1:]]
    lines = ["reader_id,group,arm,image_id,pred_label,elapsed_s"]
    for rid, group, arm in (("r1", "trainee", "A"), ("r2", "trainee", "B"),
                            ("r3", "competent", "A"), ("r4", "expert", "B"),
                            ("r5", "expert", "B")):
        for f in rows:
            pred = f[2] if gen.random() < 0.75 else str(int(gen.integers(0, 3)))
            lines.append(f"{rid},{group},{arm},{f[0]},{pred},{int(gen.integers(5, 60))}")
    return "\n".join(lines) + "\n"


# label tokens a reader file may use for each class
TOKENS = (("0", "aegja", "A-EGJA"), ("1", "eegja", "E-EGJA"), ("control", "2", "Control"))


def sparse_readers_csv(text: str, seed: int) -> str:
    """All six cells, each reader on a seeded subset of the images, written
    the way people write them: mixed-case groups and arms, labels as indices,
    slugs or names. Reader r1 reads in two cells (trainee:A on the first half
    of the images, trainee:B on the second), expert:A reads the second half,
    so trainee:A shares no image with either; competent:B has no timings."""
    gen = np.random.default_rng(seed + 100)
    rows = [row.split(",") for row in text.splitlines()[1:]]
    half = len(rows) // 2
    lines = ["reader_id,group,arm,image_id,pred_label,elapsed_s"]
    for rid, group, arm, pool in (("r1", "trainee", "A", rows[:half]), ("r1", "Trainee", "b", rows[half:]),
                                  ("r2", "competent", "A", rows), ("r3", "COMPETENT", "B", rows),
                                  ("r4", "Expert", "a", rows[half:]), ("r5", "expert", "B", rows),
                                  ("r6", "expert", "B", rows)):
        for i in gen.choice(len(pool), size=max(1, 2 * len(pool) // 3), replace=False).tolist():
            f = pool[i]
            truth = ("A-EGJA", "E-EGJA", "control").index(f[2])
            pred = truth if gen.random() < 0.7 else int(gen.integers(0, 3))
            token = str(gen.choice(TOKENS[pred]))
            elapsed = "" if group == "COMPETENT" else f"{gen.uniform(2, 60):.2f}"
            lines.append(f"{rid},{group},{arm},{f[0]},{token},{elapsed}")
    return "\n".join(lines) + "\n"


def untimed_readers_csv(text: str, seed: int) -> str:
    """Three readers over every image, in a file without an elapsed_s column."""
    gen = np.random.default_rng(seed + 200)
    rows = [row.split(",") for row in text.splitlines()[1:]]
    lines = ["reader_id,group,arm,image_id,pred_label"]
    for rid, group, arm in (("u1", "trainee", "A"), ("u2", "competent", "B"), ("u3", "expert", "A")):
        for f in rows:
            pred = f[2] if gen.random() < 0.8 else str(int(gen.integers(0, 3)))
            lines.append(f"{rid},{group},{arm},{f[0]},{pred}")
    return "\n".join(lines) + "\n"


@contextlib.contextmanager
def inside(workdir: Path):
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        yield
    finally:
        os.chdir(cwd)


def make_inputs(workdir: Path) -> None:
    with inside(workdir):
        for seed, name in enumerate(FIXTURES, start=1):
            path = Path(f"{name}.csv")
            if name == "grid":
                path.write_text(grid_csv())
            else:
                assert main(["synth", *SYNTH[name], "--out", str(path)]) == 0
            text = path.read_text()
            Path(f"{name}_b.csv").write_text(partner_csv(text, seed))
            Path(f"{name}_readers.csv").write_text(readers_csv(text, seed))
            Path(f"{name}_readers_sparse.csv").write_text(sparse_readers_csv(text, seed))
            Path(f"{name}_readers_untimed.csv").write_text(untimed_readers_csv(text, seed))


def argv_of(case: str, out: str) -> list[str]:
    if case == "fusion_demo":
        return [*FUSION_DEMO, "--out", out]
    fixture, run = case.split(".")
    if run == "synth":
        return ["synth", *SYNTH[fixture], "--out", f"{out}/pred.csv"]
    return [a.format(f=fixture) for a in RUNS[run]] + ["--out", out]


def run_case(workdir: Path, case: str, root: str = "out") -> dict[str, str]:
    """Exit status and sha256 of every file the case writes into ``root``."""
    out = f"{root}/{case}"
    with inside(workdir), contextlib.redirect_stdout(None):
        code = main(argv_of(case, out))
        files = sorted(Path(out).iterdir()) if Path(out).is_dir() else []
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}
    return {"exit": code, "files": digests}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("golden")
    make_inputs(path)
    return path


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(DIGESTS.read_text())


def test_digest_file_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_output_bytes_match_golden(workdir, golden, case):
    assert run_case(workdir, case) == golden[case]



# every evaluate run on two fixtures, and the one fusion-demo run
FORKED_CASES = [f"{f}.{run}" for f in ("default", "grid") for run in RUNS if run.startswith("evaluate")]
FORKED_CASES.append("fusion_demo")


@pytest.mark.parametrize("case", FORKED_CASES)
def test_forked_writer_matches_golden(workdir, golden, case, forked_writes):
    """The micro curve files a child process writes have the same bytes."""
    assert run_case(workdir, case, "out-forked") == golden[case]
    assert len(forked_writes) == 1


# every run that parses a predictions file, on two fixtures
PARSE_CASES = [f"{f}.{run}" for f in ("default", "grid") for run in RUNS]


@pytest.mark.parametrize("case", PARSE_CASES)
def test_forked_parse_matches_golden(workdir, golden, case, forked_parse):
    """Every file has the same bytes when each predictions file's second
    half is parsed by a child process."""
    assert run_case(workdir, case, "out-forked-parse") == golden[case]
    assert len(forked_parse) == (2 if case.endswith(".compare") else 1)


@pytest.mark.parametrize("host", ["one_cpu", "no_affinity", "fork_fails"])
@pytest.mark.parametrize("case", ["default.evaluate_image", "fusion_demo"])
def test_serial_writer_where_no_child_helps(workdir, golden, case, host, monkeypatch):
    """With the threshold at 0, one process still writes every file on one
    CPU, on a platform without ``os.sched_getaffinity`` and where the fork
    fails, and the bytes are the same."""
    monkeypatch.setattr(gjeval.cli, "FORK_MIN_POINTS", 0)
    forks = []

    def fork():
        forks.append(1)
        raise OSError(errno.EAGAIN, "no process to spare")

    monkeypatch.setattr(os, "fork", fork)
    if host == "no_affinity":
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        cpus = {0} if host == "one_cpu" else {0, 1}
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    assert run_case(workdir, case, f"out-{host}") == golden[case]
    assert len(forks) == (host == "fork_fails")


def digest_changes(old: dict, new: dict) -> list[str]:
    """One line per ``case/file`` whose digest moved, appeared or vanished
    from ``old`` to ``new``, and per case whose exit status changed."""
    lines = []
    for case in sorted(old.keys() | new.keys()):
        before, after = old.get(case, {}), new.get(case, {})
        if before.get("exit") != after.get("exit"):
            lines.append(f"exit {case}: {before.get('exit')} -> {after.get('exit')}")
        a, b = before.get("files", {}), after.get("files", {})
        for name in sorted(a.keys() | b.keys()):
            if name not in b:
                lines.append(f"vanished {case}/{name}")
            elif name not in a:
                lines.append(f"appeared {case}/{name}")
            elif a[name] != b[name]:
                lines.append(f"moved {case}/{name}")
    return lines


def test_digest_changes_name_each_file():
    old = {"a.x": {"exit": 0, "files": {"f": "1", "g": "2"}}, "b.y": {"exit": 0, "files": {}}}
    new = {"a.x": {"exit": 0, "files": {"f": "1", "g": "3", "h": "4"}}, "c.z": {"exit": 1, "files": {}}}
    assert digest_changes(old, new) == [
        "moved a.x/g", "appeared a.x/h", "exit b.y: 0 -> None", "exit c.z: None -> 1",
    ]
    assert digest_changes(new, new) == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    with tempfile.TemporaryDirectory() as tmp:
        make_inputs(Path(tmp))
        doc = {case: run_case(Path(tmp), case) for case in CASES}
    old = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    changes = digest_changes(old, doc)
    print("\n".join(changes) if changes else "no digest moved")
    DIGESTS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS} ({len(doc)} cases)")
