"""Acceptance gate: nine release criteria, one test and one printed verdict
line each.  Tolerances and runtime budgets are pinned in the assertions."""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.stats import rankdata

from gjeval import (
    HeadConfig,
    TrainSpec,
    backward,
    compute_report,
    confusion_matrix,
    delong_test,
    grad_check,
    head_forward,
    init_head,
    kappa_test,
    macro_stats,
    rate_ci,
    train_toy,
)
from gjeval.cli import main as cli_main
from gjeval.data import Dataset, ClassLabel, parse_predictions
from gjeval.fusion import make_synthetic_features, FeatureBundle
from gjeval.metrics import BinaryStats
from gjeval.stats import bowker_test, chi2_sf, std_normal_cdf

mpmath.mp.dps = 50


def verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def test_criterion_1_wald_interval_reproduction():
    t0 = time.perf_counter()
    cases = [
        ((0.9256, 914), (0.9086, 0.9426)),
        ((0.8462, 208), (0.7971, 0.8952)),
        ((0.9316, 497), (0.9094, 0.9538)),
    ]
    worst = 0.0
    for (p, n), (lo, hi) in cases:
        got = rate_ci(p * n, n)
        worst = max(worst, abs(got.lo - lo), abs(got.hi - hi))
    worst = max(worst, abs(rate_ci(0.9904 * 209, 209).hi - 1.0000))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and elapsed < 1.0
    verdict(1, "wald interval reproduction", ok,
            f"worst |err|={worst:.2e}, {elapsed:.3f}s")


def test_criterion_2_macro_interval_rule():
    t0 = time.perf_counter()
    # published per-class rates with the denominators that reproduce their
    # printed intervals; the macro rule averages unclipped bounds, then clips
    def ci(p: float, n: int):
        return rate_ci(p * n, n)

    sens = [ci(0.9316, 497), ci(0.8462, 208), ci(0.9904, 209)]
    ppv = [ci(0.9391, 489), ci(0.8502, 207), ci(0.9673, 214)]
    dummy = ci(0.5, 100)
    per_class = [
        BinaryStats(cls=c, tp=1, fp=1, fn=1, tn=1, accuracy=dummy,
                    sensitivity=s, specificity=dummy, ppv=q, npv=dummy)
        for c, s, q in zip(ClassLabel, sens, ppv)
    ]
    cm = confusion_matrix([0, 1, 2], [0, 1, 2])
    overall = macro_stats(per_class, cm)
    checks = [
        (overall.sensitivity.value, 0.9227),
        (overall.sensitivity.lo, 0.8946),
        (overall.sensitivity.hi, 0.9509),
        (overall.ppv.value, 0.9189),
        (overall.ppv.lo, 0.8877),
        (overall.ppv.hi, 0.9501),
    ]
    worst = max(abs(got - want) for got, want in checks)
    elapsed = time.perf_counter() - t0
    ok = worst <= 2e-4 and elapsed < 1.0
    verdict(2, "macro interval rule", ok, f"worst |err|={worst:.2e}, {elapsed:.3f}s")


def test_criterion_3_patient_level_accuracy():
    from gjeval import aggregate

    truths = np.arange(112) % 3
    hit = np.arange(112) < 106
    pred_cls = np.where(hit, truths, (truths + 1) % 3)
    probs = np.full((112, 3), 0.05)
    probs[np.arange(112), pred_cls] = 0.90
    ds = Dataset.from_columns(
        [f"img{i:04d}" for i in range(112)], [f"pat{i:04d}" for i in range(112)], truths, probs,
    )
    report = aggregate.evaluate(ds, level="patient")
    acc = report.overall.accuracy.value
    ok = round(acc, 4) == 0.9464 and report.n == 112
    verdict(3, "patient-level accuracy 106/112", ok, f"accuracy={acc:.6f}")


def brute_pair_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    diff = pos[:, None] - neg[None, :]
    return float((np.sum(diff > 0) + 0.5 * np.sum(diff == 0)) / diff.size)


def test_criterion_4_delong_vs_oracles():
    t0 = time.perf_counter()
    gen = np.random.default_rng(20240)
    worst = 0.0
    for _ in range(1000):
        n = int(gen.integers(6, 51))
        labels = (gen.random(n) < gen.uniform(0.2, 0.8)).astype(float)
        while labels.sum() < 2 or labels.sum() > n - 2:
            labels = (gen.random(n) < 0.5).astype(float)
        scores = np.round(gen.normal(size=n), 1)  # coarse grid forces ties
        auc = delong_test(scores, scores, labels).detail["auc_a"]
        worst = max(worst, abs(auc - brute_pair_auc(scores, labels)))

    n = 200
    labels = (gen.random(n) < 0.5).astype(float)
    scores = np.round(gen.normal(size=n) + 1.1 * labels, 1)
    var = delong_test(scores, scores, labels).detail["var_a"]
    boot = np.empty(10_000)
    draws = gen.integers(0, n, size=(10_000, n))
    for b in range(10_000):
        lb = labels[draws[b]]
        m = lb.sum()
        if m < 2 or m > n - 2:
            boot[b] = np.nan
            continue
        r = rankdata(scores[draws[b]])
        boot[b] = (r[lb == 1].mean() - (m + 1) / 2) / (n - m)
    bvar = float(np.nanvar(boot, ddof=1))
    rel = abs(var - bvar) / bvar
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and rel <= 0.15 and elapsed < 60.0
    verdict(4, "delong vs pair-counting and bootstrap", ok,
            f"worst auc |err|={worst:.1e}, var rel diff={rel:.3%}, {elapsed:.1f}s")


def test_criterion_5_symmetry_test_and_special_functions():
    t0 = time.perf_counter()
    sym = [(0, 0)] * 3 + [(0, 1), (1, 0)] * 3 + [(1, 2), (2, 1)] * 2 + [(0, 2), (2, 0)]
    res_sym = bowker_test(*zip(*sym))
    ok_sym = res_sym.statistic == 0.0 and res_sym.p_value == 1.0

    res_40 = bowker_test([0] * 4 + [0, 1], [1] * 4 + [0, 1])
    ok_40 = (
        res_40.statistic == 4.0
        and res_40.df == 1
        and abs(res_40.p_value - 0.0455) <= 1e-3
    )

    xs = np.linspace(0.05, 25.0, 100)
    err_df2 = max(abs(chi2_sf(x, 2) - math.exp(-x / 2)) for x in xs)

    err_chi2 = 0.0
    for x in np.linspace(0.1, 40.0, 60):
        for df in (1, 2, 3, 5, 10):
            want = float(mpmath.gammainc(df / 2, x / 2, mpmath.inf, regularized=True))
            err_chi2 = max(err_chi2, abs(chi2_sf(x, df) - want))
    # textbook critical values
    for x, df, p in [(3.841458820694124, 1, 0.05), (5.991464547107979, 2, 0.05),
                     (7.814727903251179, 3, 0.05), (6.634896601021213, 1, 0.01)]:
        err_chi2 = max(err_chi2, abs(chi2_sf(x, df) - p))

    err_norm = 0.0
    for x in np.linspace(-8.0, 8.0, 161):
        want = float(mpmath.ncdf(x))
        err_norm = max(err_norm, abs(std_normal_cdf(x) - want))
    # textbook quantiles
    for x, p in [(1.959963984540054, 0.975), (1.6448536269514722, 0.95),
                 (2.5758293035489004, 0.995), (0.0, 0.5)]:
        err_norm = max(err_norm, abs(std_normal_cdf(x) - p))

    elapsed = time.perf_counter() - t0
    ok = (ok_sym and ok_40 and err_df2 <= 1e-10
          and err_chi2 <= 1e-8 and err_norm <= 1e-8 and elapsed < 5.0)
    verdict(5, "symmetry test and special functions", ok,
            f"df2 err={err_df2:.1e}, chi2 err={err_chi2:.1e}, "
            f"normal err={err_norm:.1e}, {elapsed:.2f}s")


def test_criterion_6_metric_property_suite():
    from gjeval import curve_pair

    t0 = time.perf_counter()
    gen = np.random.default_rng(31)
    n_datasets = 10_000
    for i in range(n_datasets):
        n = int(gen.integers(6, 25))
        truths = gen.integers(0, 3, size=n)
        probs = gen.dirichlet((1.0, 1.0, 1.0), size=n)
        preds = probs.argmax(axis=1)
        report = compute_report(truths, preds, probs)

        # macro means are exactly the arithmetic mean of defined class values
        for name in ("sensitivity", "specificity", "ppv", "npv"):
            vals = [getattr(s, name).value for s in report.per_class
                    if getattr(s, name).value is not None]
            got = getattr(report.overall, name).value
            if vals:
                assert got == float(np.mean(vals)), (i, name)
            else:
                assert got is None

        # kappa within range when defined
        if report.kappa is not None and not math.isnan(report.kappa):
            assert -1.0 <= report.kappa <= 1.0

        # unit weights change nothing
        report_w = compute_report(truths, preds, probs, weights=np.ones(n))
        assert report.as_dict() == report_w.as_dict(), i

        # AUC invariances on the one-vs-rest score of class 0
        y = (truths == 0).astype(float)
        if 0 < y.sum() < n:
            scores = probs[:, 0]
            base = curve_pair(scores, y)[0].area
            mono = curve_pair(np.exp(3.0 * scores), y)[0].area
            assert abs(base - mono) <= 1e-12, i
            perm = gen.permutation(n)
            shuf = curve_pair(scores[perm], y[perm])[0].area
            assert abs(base - shuf) <= 1e-12, i

        # p-values from the paired tests stay in [0, 1]
        kt = kappa_test(truths, preds)
        if not math.isnan(kt.p_value):
            assert 0.0 <= kt.p_value <= 1.0
        bt = bowker_test(truths, preds)
        assert 0.0 <= bt.p_value <= 1.0

    elapsed = time.perf_counter() - t0
    ok = elapsed < 120.0
    verdict(6, "metric property suite", ok, f"{n_datasets} datasets, {elapsed:.1f}s")


def test_criterion_7_fusion_head_verification():
    t0 = time.perf_counter()
    gen = np.random.default_rng(7)

    # gating: convexity on 10,000 draws spread over 20 random shapes
    draws = 0
    worst_sum = 0.0
    for k in range(20):
        cfg = HeadConfig(
            c_dino=int(gen.integers(2, 12)), c_res=int(gen.integers(2, 12)),
            hidden=int(gen.integers(2, 8)), dropout=0.0,
        )
        params = init_head(cfg, seed=k)
        for _, arr in params.param_items():
            arr += gen.normal(scale=0.3, size=arr.shape)
        fb = FeatureBundle(
            f_cls=gen.normal(scale=2.0, size=(500, cfg.c_dino)),
            f_grid_dino=gen.normal(scale=2.0, size=(500, *cfg.grid_dino, cfg.c_dino)),
            f_grid_res=gen.normal(scale=2.0, size=(500, *cfg.grid_res, cfg.c_res)),
        )
        fp = head_forward(params, fb)
        worst_sum = max(worst_sum, float(np.max(np.abs(fp.a_dino + fp.a_res - 1.0))))
        lo, hi = np.minimum(fp.f_dino, fp.f_res), np.maximum(fp.f_dino, fp.f_res)
        assert np.all(fp.f_fus >= lo - 1e-12) and np.all(fp.f_fus <= hi + 1e-12)
        draws += 500
    ok_gate = worst_sum <= 1e-12 and draws >= 10_000

    # gradient check across 100 random configurations at generic points
    worst_grad = 0.0
    for trial in range(100):
        cfg = HeadConfig(
            c_dino=int(gen.integers(2, 7)), c_res=int(gen.integers(2, 7)),
            grid_dino=(int(gen.integers(1, 3)), int(gen.integers(1, 3))),
            grid_res=(int(gen.integers(1, 3)), int(gen.integers(1, 3))),
            hidden=int(gen.integers(2, 6)),
            dropout=float(gen.choice([0.0, 0.2, 0.4])),
        )
        params = init_head(cfg, seed=trial)
        for _, arr in params.param_items():
            arr += gen.normal(scale=0.05, size=arr.shape)
        fb, labels = make_synthetic_features(cfg, 1, separation=2.0, seed=trial)
        err = grad_check(params, fb, labels, rng_seed=trial, training=cfg.dropout > 0)
        worst_grad = max(worst_grad, err)
    ok_grad = worst_grad < 1e-4

    # softmax cross-entropy bias-gradient identity
    worst_bias = 0.0
    for trial in range(100):
        cfg = HeadConfig(c_dino=int(gen.integers(2, 10)), c_res=int(gen.integers(2, 10)),
                         hidden=4, dropout=0.0)
        params = init_head(cfg, seed=trial)
        nb = int(gen.integers(1, 9))
        fb, labels = make_synthetic_features(cfg, nb, separation=1.0, seed=trial)
        fp = head_forward(params, fb)
        _, grads = backward(fb, labels, params, reduction="sum")
        onehot = np.zeros((nb, 3))
        onehot[np.arange(nb), labels] = 1.0
        expect = (fp.probs - onehot).sum(axis=0)
        worst_bias = max(worst_bias, float(np.max(np.abs(grads["cls_b"] - expect))))
    ok_bias = worst_bias <= 1e-12

    elapsed = time.perf_counter() - t0
    ok = ok_gate and ok_grad and ok_bias and elapsed < 60.0
    verdict(7, "fusion head verification", ok,
            f"gate sum err={worst_sum:.1e}, grad err={worst_grad:.1e}, "
            f"bias err={worst_bias:.1e}, {elapsed:.1f}s")


def test_criterion_8_toy_training(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "demo"
    code = cli_main(["fusion-demo", "--out", str(out)])
    demo_elapsed = time.perf_counter() - t0
    doc = json.loads((out / "report.json").read_text())
    acc = doc["results"]["train"]["holdout_accuracy"]
    ok_demo = code == 0 and acc >= 0.95 and demo_elapsed < 60.0

    control = train_toy(TrainSpec(seed=20240, shuffle_labels=True)).report.overall.accuracy.value
    ok_ctrl = abs(control - 1 / 3) <= 0.06
    verdict(8, "toy training and shuffled control", ok_demo and ok_ctrl,
            f"holdout={acc:.4f} in {demo_elapsed:.1f}s, "
            f"control={control:.4f}")


def test_criterion_9_byte_determinism(tmp_path):
    def tree(d: Path) -> dict[str, bytes]:
        return {p.name: p.read_bytes() for p in sorted(d.iterdir())}

    pred = tmp_path / "pred.csv"
    pred2 = tmp_path / "pred2.csv"
    for target in (pred, pred2):
        assert cli_main(["synth", "--patients", "6,5,7", "--seed", "3",
                         "--out", str(target)]) == 0
    ok = pred.read_bytes() == pred2.read_bytes()

    runs = {}
    for name in ("a", "b"):
        out = tmp_path / f"ev_{name}"
        assert cli_main(["evaluate", "--pred", str(pred), "--out", str(out)]) == 0
        runs[name] = tree(out)
    ok = ok and runs["a"] == runs["b"]

    for name in ("k1", "k2"):
        out = tmp_path / name
        assert cli_main(["kfold", "--pred", str(pred), "--k", "4", "--out", str(out)]) == 0
    ok = ok and tree(tmp_path / "k1") == tree(tmp_path / "k2")

    for name in ("f1", "f2"):
        out = tmp_path / name
        assert cli_main(["fusion-demo", "--dim", "12", "--hidden", "3", "--epochs", "2",
                         "--batch", "64", "--lr", "1e-3", "--out", str(out)]) == 0
    ok = ok and tree(tmp_path / "f1") == tree(tmp_path / "f2")

    verdict(9, "byte-identical reruns", ok)
