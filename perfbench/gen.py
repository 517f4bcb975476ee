"""Seeded input files for the benchmark, written without the package's code.

The distributions mirror ``gjeval synth``: per patient a class, 1-20 images
(with the total fixed at the mean, so every seed has the same image count),
sex, age and centre; per image a modality and logit-normal probabilities
with ``separation`` added on the true class. Model B shares every draw with
model A and differs only in separation, so both files carry the same image
ids and truths. The reader file has 3 groups x 2 arms x 4 readers, all of
whom read one common image subset, with an ``elapsed_s`` per call.

Generating the files here rather than through ``gjeval synth`` keeps the
inputs fixed when the program under test changes.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

DISPLAY = ("A-EGJA", "E-EGJA", "control")
GROUPS = ("trainee", "competent", "expert")
ARMS = ("A", "B")
READERS_PER_CELL = 4
# Reader accuracy per group; the assisted arm B adds ASSIST_GAIN.
READER_ACCURACY = {"trainee": 0.62, "competent": 0.74, "expert": 0.84}
ASSIST_GAIN = 0.06
SEP_A, SEP_B = 3.0, 2.0
IMAGES_MIN = 1
PRED_HEADER = "image_id,patient_id,true_label,p_aegja,p_eegja,p_control,center,modality,sex,age"


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _pred_csv(rows: list[str], probs: np.ndarray) -> str:
    lines = [PRED_HEADER]
    for (head, tail), (a, b, c) in zip(rows, probs.tolist()):
        lines.append(f"{head},{a!r},{b!r},{c!r},{tail}")
    return "\n".join(lines) + "\n"


def _image_counts(rng: np.random.Generator, n_pat: int, lo: int, hi: int) -> np.ndarray:
    """Images per patient, uniform on [lo, hi], then nudged by one image at a
    time on random patients until the total is n_pat * (lo + hi) / 2 (rounded).
    The work per op then depends on the seed only through what the images
    contain, not through how many there are."""
    counts = rng.integers(lo, hi + 1, size=n_pat)
    target = int(round(n_pat * (lo + hi) / 2))
    while (diff := target - int(counts.sum())) != 0:
        room = np.flatnonzero(counts < hi if diff > 0 else counts > lo)
        pick = rng.choice(room, size=min(abs(diff), room.size), replace=False)
        counts[pick] += 1 if diff > 0 else -1
    return counts


def generate(
    outdir: Path,
    seed: int,
    patients_per_class: tuple[int, int, int],
    images_max: int = 20,
) -> dict:
    """Write pred_a.csv, pred_b.csv, readers.csv and reference.npz into ``outdir``.

    Returns {file name: {"bytes": size, "sha256": digest}} for the three CSVs.
    ``reference.npz`` holds the ground truth the output checks compare against.
    """
    rng = np.random.default_rng(seed)
    outdir.mkdir(parents=True, exist_ok=True)

    pat_class = np.repeat(np.arange(3), patients_per_class)
    pat_class = pat_class[rng.permutation(pat_class.size)]
    n_pat = pat_class.size
    n_img_per = _image_counts(rng, n_pat, IMAGES_MIN, images_max)
    sex = rng.choice(np.array(["male", "female"]), size=n_pat).tolist()
    age = rng.integers(40, 86, size=n_pat).astype(np.float64).tolist()
    center = rng.choice(np.array(["C1", "C2", "C3"]), size=n_pat).tolist()

    pat_code = np.repeat(np.arange(n_pat), n_img_per)
    truth = pat_class[pat_code]
    n = truth.size
    modality = rng.choice(np.array(["WLI", "NBI"]), size=n).tolist()
    noise = rng.normal(0.0, 1.0, size=(n, 3))
    onehot = np.zeros((n, 3))
    onehot[np.arange(n), truth] = 1.0
    probs_a = _softmax(noise + SEP_A * onehot)
    probs_b = _softmax(noise + SEP_B * onehot)

    pids = [f"p{i + 1:05d}" for i in range(n_pat)]
    iids = [f"img{i + 1:06d}" for i in range(n)]
    pat_tail = [f"{center[p]},{{}},{sex[p]},{age[p]!r}" for p in range(n_pat)]
    rows = [
        (f"{iids[i]},{pids[p]},{DISPLAY[t]}", pat_tail[p].format(modality[i]))
        for i, (p, t) in enumerate(zip(pat_code.tolist(), truth.tolist()))
    ]
    (outdir / "pred_a.csv").write_text(_pred_csv(rows, probs_a))
    (outdir / "pred_b.csv").write_text(_pred_csv(rows, probs_b))

    # Reader study: every reader of every cell reads the same image subset,
    # about n/24 images, so the file has roughly one row per model image.
    n_read = max(12, int(round(n / (len(GROUPS) * len(ARMS) * READERS_PER_CELL))))
    read_set = np.sort(rng.choice(n, size=min(n_read, n), replace=False))
    lines = ["reader_id,group,arm,image_id,pred_label,elapsed_s"]
    cell_rows = []
    for group in GROUPS:
        for arm in ARMS:
            acc = READER_ACCURACY[group] + (ASSIST_GAIN if arm == "B" else 0.0)
            for k in range(READERS_PER_CELL):
                rid = f"{group}-{arm}{k + 1}"
                t = truth[read_set]
                wrong = rng.random(t.size) >= acc
                shift = rng.integers(1, 3, size=t.size)
                pred = np.where(wrong, (t + shift) % 3, t)
                elapsed = np.round(rng.lognormal(np.log(12.0), 0.4, size=t.size), 1)
                for i, p, e in zip(read_set.tolist(), pred.tolist(), elapsed.tolist()):
                    lines.append(f"{rid},{group},{arm},{iids[i]},{DISPLAY[p]},{e!r}")
            cell_rows.append(READERS_PER_CELL * read_set.size)
    (outdir / "readers.csv").write_text("\n".join(lines) + "\n")

    np.savez(
        outdir / "reference.npz",
        truth=truth.astype(np.int8),
        probs_a=probs_a,
        pat_code=pat_code.astype(np.int32),
        n_img_per=n_img_per.astype(np.int32),
        cell_rows=np.array(cell_rows, dtype=np.int64),
    )
    return {
        name: {"bytes": (outdir / name).stat().st_size, "sha256": sha256_file(outdir / name)}
        for name in ("pred_a.csv", "pred_b.csv", "readers.csv")
    }
