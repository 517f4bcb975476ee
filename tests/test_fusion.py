"""Fusion head: forward identities, the matmul passes against an einsum
oracle, analytic gradients vs finite differences, Adam arithmetic,
serialization, and the synthetic training loop."""

from __future__ import annotations

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import params_from_json

from gjeval import (
    AdamState,
    DivergenceError,
    FeatureBundle,
    HeadConfig,
    HeadParams,
    TrainSpec,
    adam_step,
    backward,
    grad_check,
    head_forward,
    init_head,
    params_to_json,
    train_toy,
)
from gjeval.fusion import N_CLASSES, _accuracy, _pool, make_synthetic_features

TINY = HeadConfig(c_dino=6, c_res=5, grid_dino=(2, 2), grid_res=(3, 2), hidden=4, dropout=0.0)


def random_bundle(config: HeadConfig, n: int, seed: int) -> tuple[FeatureBundle, np.ndarray]:
    return make_synthetic_features(config, n, separation=2.0, seed=seed)


def jitter(params: HeadParams, seed: int) -> HeadParams:
    """Nudge every parameter (biases included) off its init value.

    Zero-initialized biases put ReLU pre-activations exactly on the kink
    whenever an upstream position is all-dead or fully dropped out; there
    ``grad_check`` can only fall back to a one-sided difference.  Gradient
    checks that exercise the central difference run at a generic point.
    """
    gen = np.random.default_rng(seed)
    for _, arr in params.param_items():
        arr += gen.normal(scale=0.05, size=arr.shape)
    return params


def single(fb: FeatureBundle, i: int) -> FeatureBundle:
    """Row ``i`` of ``fb`` as a batch of one."""
    rows = slice(i, i + 1)
    return FeatureBundle(fb.f_cls[rows], fb.f_grid_dino[rows], fb.f_grid_res[rows])


def central_difference(params: HeadParams, one: FeatureBundle, label: int,
                       arr: np.ndarray, ix, step: float = 1e-5) -> float:
    """Plain central difference of the loss of a one-sample batch in ``arr[ix]``."""
    orig = arr[ix]
    losses = []
    for value in (orig + step, orig - step):
        arr[ix] = value
        losses.append(-math.log(head_forward(params, one).probs[0, label]))
    arr[ix] = orig
    return (losses[0] - losses[1]) / (2.0 * step)


def oracle_masks(rng_seed: int, shape: tuple, rate: float):
    if rate == 0.0:
        return np.ones(shape), np.ones(shape)
    rng = np.random.default_rng(rng_seed)
    keep = 1.0 - rate
    m1 = (rng.random(shape) < keep).astype(np.float64) / keep
    m2 = (rng.random(shape) < keep).astype(np.float64) / keep
    return m1, m2


def oracle_forward(params: HeadParams, fb: FeatureBundle, training: bool, rng_seed: int) -> dict:
    """The forward pass written with np.einsum and out-of-place arithmetic,
    kept as an independent reference for the matmul passes."""
    fc, gd, gr = (np.asarray(a, dtype=np.float64) for a in (fb.f_cls, fb.f_grid_dino, fb.f_grid_res))
    pooled_r = gr.mean(axis=(1, 2))
    f_dino = fc + gd.mean(axis=(1, 2))
    f_res = pooled_r @ params.align_w + params.align_b
    x = np.stack([f_dino, f_res], axis=1)
    n, _, c = x.shape
    h1 = np.einsum("ac,ncx->nax", params.gate_w1, x) + params.gate_b1[None, :, None]
    m1, m2 = oracle_masks(rng_seed, (n, params.gate_b1.size, c), params.config.dropout) if training else (None, None)
    a1d = np.maximum(h1, 0.0) if m1 is None else np.maximum(h1, 0.0) * m1
    h2 = np.einsum("ab,nbx->nax", params.gate_w2, a1d) + params.gate_b2[None, :, None]
    a2d = np.maximum(h2, 0.0) if m2 is None else np.maximum(h2, 0.0) * m2
    z = np.einsum("ab,nbx->nax", params.gate_w3, a2d) + params.gate_b3[None, :, None]
    e = np.exp(z - z.max(axis=1, keepdims=True))
    s = e / e.sum(axis=1, keepdims=True)
    a_dino, a_res = s[:, 0, :], s[:, 1, :]
    f_fus = a_dino * f_dino + a_res * f_res
    logits = f_fus @ params.cls_w + params.cls_b
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    probs = e / e.sum(axis=-1, keepdims=True)
    return dict(x=x, h1=h1, a1d=a1d, m1=m1, h2=h2, a2d=a2d, m2=m2, s=s, pooled_r=pooled_r,
                f_dino=f_dino, f_res=f_res, a_dino=a_dino, a_res=a_res, f_fus=f_fus,
                logits=logits, probs=probs)


def oracle_backward(params: HeadParams, fb: FeatureBundle, labels: np.ndarray,
                    training: bool, rng_seed: int, reduction: str) -> dict:
    """Gradients with the einsum contractions, as a reference for ``backward``."""
    c = oracle_forward(params, fb, training, rng_seed)
    n = labels.size
    g_logits = c["probs"].copy()
    g_logits[np.arange(n), labels] -= 1.0
    if reduction == "mean":
        g_logits /= n
    g_ffus = g_logits @ params.cls_w.T
    g_s = np.stack([g_ffus * c["f_dino"], g_ffus * c["f_res"]], axis=1)
    g_z = c["s"] * (g_s - (g_s * c["s"]).sum(axis=1, keepdims=True))
    g_a2 = np.einsum("ab,nax->nbx", params.gate_w3, g_z)
    if c["m2"] is not None:
        g_a2 = g_a2 * c["m2"]
    g_h2 = g_a2 * (c["h2"] > 0)
    g_a1 = np.einsum("ab,nax->nbx", params.gate_w2, g_h2)
    if c["m1"] is not None:
        g_a1 = g_a1 * c["m1"]
    g_h1 = g_a1 * (c["h1"] > 0)
    g_x = np.einsum("ac,nax->ncx", params.gate_w1, g_h1)
    g_fres = g_ffus * c["a_res"] + g_x[:, 1, :]
    return {
        "align_w": c["pooled_r"].T @ g_fres,
        "align_b": g_fres.sum(axis=0),
        "gate_w1": np.einsum("nax,ncx->ac", g_h1, c["x"]),
        "gate_b1": g_h1.sum(axis=(0, 2)),
        "gate_w2": np.einsum("nax,nbx->ab", g_h2, c["a1d"]),
        "gate_b2": g_h2.sum(axis=(0, 2)),
        "gate_w3": np.einsum("nax,nbx->ab", g_z, c["a2d"]),
        "gate_b3": g_z.sum(axis=(0, 2)),
        "cls_w": c["f_fus"].T @ g_logits,
        "cls_b": g_logits.sum(axis=0),
    }


ORACLE_SHAPES = {
    "tiny": (TINY, 5),
    "batch1": (HeadConfig(c_dino=6, c_res=5, grid_dino=(2, 2), grid_res=(3, 2), hidden=4), 1),
    "hidden1": (HeadConfig(c_dino=5, c_res=4, hidden=1), 6),
    "c_dino1": (HeadConfig(c_dino=1, c_res=3, grid_dino=(1, 1), grid_res=(2, 1), hidden=3), 4),
    "default": (HeadConfig(), 33),
    # a gate wider than the default's 8 channels, at C = 12
    "hidden16": (HeadConfig(c_dino=12, c_res=5, hidden=16), 9),
}


def assert_close_to_oracle(actual: np.ndarray, desired: np.ndarray, name: str) -> None:
    """rtol 1e-12 per entry, with an absolute floor of 1e-12 times the array's
    largest entry: a reordered sum errs relative to the sum of its terms'
    magnitudes, not to its result, so an entry near zero by cancellation
    may differ relatively more."""
    floor = 1e-12 * float(np.max(np.abs(desired), initial=0.0))
    np.testing.assert_allclose(actual, desired, rtol=1e-12, atol=floor, err_msg=name)


class TestEinsumOracle:
    """head_forward and backward agree with the einsum formulas (the matmul
    contractions sum in another order, so bits may differ in the last place),
    with dropout off and on."""

    @pytest.mark.parametrize("shape", list(ORACLE_SHAPES))
    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    def test_forward_and_backward_match(self, shape, dropout):
        base, n = ORACLE_SHAPES[shape]
        cfg = replace(base, dropout=dropout)
        seed = list(ORACLE_SHAPES).index(shape)
        params = jitter(init_head(cfg, seed=seed), seed=700 + seed)
        fb, labels = random_bundle(cfg, n, seed=800 + seed)
        for training in (False, True):
            ref = oracle_forward(params, fb, training, rng_seed=seed)
            fp = head_forward(params, fb, training=training, rng_seed=seed)
            for name in ("f_dino", "f_res", "a_dino", "a_res", "f_fus", "logits", "probs"):
                assert getattr(fp, name).shape == ref[name].shape, name
                assert_close_to_oracle(getattr(fp, name), ref[name], name)
            for reduction in ("sum", "mean"):
                ref_g = oracle_backward(params, fb, labels, training, seed, reduction)
                loss, grads = backward(fb, labels, params, training=training, rng_seed=seed, reduction=reduction)
                ref_losses = -np.log(ref["probs"][np.arange(n), labels])
                ref_loss = ref_losses.mean() if reduction == "mean" else ref_losses.sum()
                assert loss == pytest.approx(ref_loss, rel=1e-12)
                assert list(grads) == [name for name, _ in params.param_items()]
                for name, arr in params.param_items():
                    assert grads[name].shape == arr.shape
                    assert_close_to_oracle(grads[name], ref_g[name], name)


class TestConfig:
    def test_defaults(self):
        cfg = HeadConfig()
        assert cfg.c_dino == 64 and cfg.c_res == 96
        assert cfg.hidden == 8 and cfg.dropout == 0.1 and N_CLASSES == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            HeadConfig(c_dino=0)
        with pytest.raises(ValueError):
            HeadConfig(dropout=1.0)

    @pytest.mark.parametrize("grids", [{"grid_dino": (0, 2)}, {"grid_dino": (2, 0)},
                                       {"grid_res": (-1, 2)}, {"grid_res": (3, 0)}])
    def test_grid_sides_must_be_positive(self, grids):
        # an empty grid has no spatial mean; a negative side is no shape
        with pytest.raises(ValueError, match="grid sides must be positive"):
            HeadConfig(**grids)
        assert HeadConfig(grid_dino=(1, 1), grid_res=(1, 3)).grid_res == (1, 3)

    @pytest.mark.parametrize("sizes", [{"n_samples": 1}, {"n_samples": 0}, {"n_samples": -5},
                                       {"n_samples": 10, "holdout_frac": 1.0},
                                       {"n_samples": 10, "holdout_frac": 1.5},
                                       {"n_samples": 10, "holdout_frac": -0.1}])
    def test_train_spec_splits_must_be_nonempty(self, sizes):
        with pytest.raises(ValueError, match="holdout_frac|no rows to train on"):
            TrainSpec(**sizes)

    def test_smallest_train_spec_trains(self):
        spec = TrainSpec(config=TINY, n_samples=2, holdout_frac=0.0, epochs=1, batch_size=1)
        assert spec.n_holdout == 1
        result = train_toy(spec)
        assert len(result.log) == 1 and result.report.n == 1


class TestInit:
    def test_deterministic(self):
        a = init_head(TINY, seed=4)
        b = init_head(TINY, seed=4)
        for (_, x), (_, y) in zip(a.param_items(), b.param_items()):
            assert np.array_equal(x, y)

    def test_bounds_and_zero_biases(self):
        params = init_head(TINY, seed=0)
        lim_align = math.sqrt(1.0 / TINY.c_res)
        assert np.all(np.abs(params.align_w) <= lim_align)
        assert np.all(params.align_b == 0)
        assert np.all(params.cls_b == 0)
        assert np.all(params.gate_b1 == 0)
        lim_g1 = math.sqrt(1.0 / 2)
        assert np.all(np.abs(params.gate_w1) <= lim_g1)

    def test_shapes(self):
        params = init_head(TINY, seed=0)
        assert params.align_w.shape == (5, 6)
        assert params.gate_w1.shape == (4, 2)
        assert params.gate_w2.shape == (4, 4)
        assert params.gate_w3.shape == (2, 4)
        assert params.cls_w.shape == (6, 3)


class TestForwardIdentities:
    def test_combine_dino_is_cls_plus_spatial_mean(self, rng):
        params = init_head(TINY, seed=1)
        fc = rng.normal(size=(7, 6))
        gd = rng.normal(size=(7, 2, 2, 6))
        gr = rng.normal(size=(7, 3, 2, 5))
        fp = head_forward(params, FeatureBundle(fc, gd, gr))
        assert np.allclose(fp.f_dino, fc + gd.mean(axis=(1, 2)))

    def test_align_res_projection(self, rng):
        params = jitter(init_head(TINY, seed=1), seed=11)
        fc = rng.normal(size=(4, 6))
        gd = rng.normal(size=(4, 2, 2, 6))
        gr = rng.normal(size=(4, 3, 2, 5))
        fp = head_forward(params, FeatureBundle(fc, gd, gr))
        pooled = gr.mean(axis=(1, 2))
        assert np.allclose(fp.f_res, pooled @ params.align_w + params.align_b)
        assert fp.f_res.shape == (4, 6)

    def test_gates_sum_to_one_and_fusion_between_inputs(self, rng):
        params = init_head(TINY, seed=2)
        for _ in range(200):
            fb = FeatureBundle(
                rng.normal(scale=3, size=(5, 6)),
                rng.normal(scale=3, size=(5, 2, 2, 6)),
                rng.normal(scale=3, size=(5, 3, 2, 5)),
            )
            fp = head_forward(params, fb)
            assert np.allclose(fp.a_dino + fp.a_res, 1.0, atol=1e-12)
            assert np.all(fp.a_dino >= 0) and np.all(fp.a_res >= 0)
            lo = np.minimum(fp.f_dino, fp.f_res)
            hi = np.maximum(fp.f_dino, fp.f_res)
            assert np.all(fp.f_fus >= lo - 1e-12) and np.all(fp.f_fus <= hi + 1e-12)

    def test_sample_without_batch_axis_rejected(self):
        params = init_head(TINY, seed=3)
        fb, labels = random_bundle(TINY, 1, seed=9)
        one = FeatureBundle(fb.f_cls[0], fb.f_grid_dino[0], fb.f_grid_res[0])
        for call in (
            lambda: head_forward(params, one),
            lambda: backward(one, labels, params),
            lambda: grad_check(params, one, labels),
        ):
            with pytest.raises(ValueError, match="f_cls"):
                call()

    def test_truths_need_one_label_per_row(self):
        params = init_head(TINY, seed=3)
        fb, labels = random_bundle(TINY, 5, seed=9)
        for truths in (labels[0], labels[:1], labels[:4], labels[:, None]):
            with pytest.raises(ValueError, match="one label per row"):
                backward(fb, truths, params)
            with pytest.raises(ValueError, match="one label per row"):
                grad_check(params, fb, truths)

    def test_probs_normalized(self, rng):
        params = init_head(TINY, seed=5)
        fb, _ = random_bundle(TINY, 10, seed=6)
        fp = head_forward(params, fb)
        assert np.allclose(fp.probs.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(fp.probs > 0)

    def test_classify_matches_manual_softmax(self):
        params = jitter(init_head(TINY, seed=5), seed=15)
        fb, _ = random_bundle(TINY, 3, seed=6)
        fp = head_forward(params, fb)
        ref = fp.f_fus @ params.cls_w + params.cls_b
        assert np.allclose(fp.logits, ref)
        e = np.exp(ref - ref.max(axis=1, keepdims=True))
        assert np.allclose(fp.probs, e / e.sum(axis=1, keepdims=True))

    @staticmethod
    def one_hot_head() -> tuple[HeadParams, FeatureBundle]:
        """A head whose fused vector is (1, 0, 0): both branches equal it, so
        any convex gate returns it, and the classifier is the identity."""
        cfg = HeadConfig(c_dino=3, c_res=3, grid_dino=(1, 1), grid_res=(1, 1), hidden=2, dropout=0.0)
        params = init_head(cfg, seed=0)
        params.align_w[:] = 0.0
        params.align_b[:] = [1.0, 0.0, 0.0]
        params.cls_w[:] = np.eye(3)
        params.cls_b[:] = 0.0
        one = FeatureBundle(np.array([[1.0, 0.0, 0.0]]), np.zeros((1, 1, 1, 3)), np.zeros((1, 1, 1, 3)))
        return params, one

    @staticmethod
    def loss(params: HeadParams, one: FeatureBundle, label: int) -> float:
        return backward(one, [label], params)[0]

    def test_softmax_hand_value(self):
        # softmax(1, 0, 0) and its cross entropy against class 1
        params, one = self.one_hot_head()
        fp = head_forward(params, one)
        assert fp.f_fus[0] == pytest.approx([1.0, 0.0, 0.0], abs=1e-12)
        assert fp.probs[0] == pytest.approx([0.5761, 0.2119, 0.2119], abs=1e-4)
        assert self.loss(params, one, 1) == pytest.approx(1.5514, abs=1e-4)

    def test_ce_loss_floor(self):
        # a true-class probability that underflows to 0 costs -log(1e-12)
        params, one = self.one_hot_head()
        params.cls_b[:] = [1000.0, 0.0, 0.0]
        assert head_forward(params, one).probs[0, 1] == 0.0
        assert self.loss(params, one, 1) == pytest.approx(-math.log(1e-12))

    def test_dropout_zero_training_equals_eval(self):
        params = init_head(TINY, seed=7)  # TINY has dropout 0
        fb, _ = random_bundle(TINY, 3, seed=8)
        a = head_forward(params, fb, training=True, rng_seed=11)
        b = head_forward(params, fb, training=False)
        assert np.allclose(a.probs, b.probs)

    def test_dropout_deterministic_per_seed(self):
        cfg = HeadConfig(c_dino=6, c_res=5, hidden=4, dropout=0.4)
        params = init_head(cfg, seed=7)
        fb, _ = random_bundle(cfg, 3, seed=8)
        a = head_forward(params, fb, training=True, rng_seed=11)
        b = head_forward(params, fb, training=True, rng_seed=11)
        c = head_forward(params, fb, training=True, rng_seed=12)
        assert np.allclose(a.probs, b.probs)
        assert not np.allclose(a.probs, c.probs)

    def test_eval_mode_ignores_dropout_seed(self):
        cfg = HeadConfig(c_dino=6, c_res=5, hidden=4, dropout=0.4)
        params = init_head(cfg, seed=7)
        fb, _ = random_bundle(cfg, 3, seed=8)
        a = head_forward(params, fb, rng_seed=1)
        b = head_forward(params, fb, rng_seed=2)
        assert np.allclose(a.probs, b.probs)


class TestGradients:
    def test_finite_difference_many_configs(self, rng):
        worst = 0.0
        for trial in range(12):
            cfg = HeadConfig(
                c_dino=int(rng.integers(2, 7)),
                c_res=int(rng.integers(2, 7)),
                grid_dino=(int(rng.integers(1, 3)), int(rng.integers(1, 3))),
                grid_res=(int(rng.integers(1, 3)), int(rng.integers(1, 3))),
                hidden=int(rng.integers(2, 5)),
                dropout=float(rng.choice([0.0, 0.3])),
            )
            params = jitter(init_head(cfg, seed=trial), seed=500 + trial)
            fb, labels = random_bundle(cfg, 1, seed=100 + trial)
            err = grad_check(params, fb, labels, rng_seed=trial, training=cfg.dropout > 0)
            worst = max(worst, err)
        assert worst < 1e-4

    def test_batch_gradients_match_finite_difference(self, rng):
        params = jitter(init_head(TINY, seed=1), seed=601)
        fb, labels = random_bundle(TINY, 5, seed=2)
        err = grad_check(params, fb, labels)
        assert err < 1e-4

    def test_bias_gradient_is_probs_minus_onehot(self):
        params = init_head(TINY, seed=3)
        fb, labels = random_bundle(TINY, 6, seed=4)
        fp = head_forward(params, fb)
        _, grads = backward(fb, labels, params, reduction="sum")
        onehot = np.zeros((6, 3))
        onehot[np.arange(6), labels] = 1.0
        expect = (fp.probs - onehot).sum(axis=0)
        assert np.allclose(grads["cls_b"], expect, atol=1e-12)

    def test_mean_reduction_scales(self):
        params = init_head(TINY, seed=3)
        fb, labels = random_bundle(TINY, 4, seed=4)
        loss_sum, g_sum = backward(fb, labels, params, reduction="sum")
        loss_mean, g_mean = backward(fb, labels, params, reduction="mean")
        assert loss_mean == pytest.approx(loss_sum / 4, rel=1e-12)
        for name, _ in params.param_items():
            assert np.allclose(g_mean[name], g_sum[name] / 4, atol=1e-12)

    def test_sum_over_singles_equals_batch(self):
        params = init_head(TINY, seed=6)
        fb, labels = random_bundle(TINY, 3, seed=7)
        _, batch = backward(fb, labels, params, reduction="sum")
        total = {name: np.zeros_like(arr) for name, arr in params.param_items()}
        for i in range(3):
            _, g = backward(single(fb, i), labels[i : i + 1], params, reduction="sum")
            for name in total:
                total[name] += g[name]
        for name in total:
            assert np.allclose(batch[name], total[name], atol=1e-10)

    def test_dropout_gradients_under_fixed_mask(self, rng):
        cfg = HeadConfig(c_dino=5, c_res=4, hidden=3, dropout=0.5)
        params = jitter(init_head(cfg, seed=8), seed=608)
        fb, labels = random_bundle(cfg, 1, seed=9)
        err = grad_check(params, fb, labels, rng_seed=21, training=True)
        assert err < 1e-4

    @pytest.mark.parametrize("bias", ["b1", "b2"])
    def test_step_straddling_relu_kink_is_shrunk(self, bias):
        params = jitter(init_head(TINY, seed=1), seed=601)
        fb, labels = random_bundle(TINY, 1, seed=2)
        # put pre-activation (unit 0, position 0) 4e-6 above its kink, so the
        # default step of 1e-5 on that unit's bias crosses it going down
        fp = head_forward(params, fb)
        h1 = params.gate_w1 @ np.stack([fp.f_dino, fp.f_res], axis=1) + params.gate_b1[:, None]
        h2 = params.gate_w2 @ np.maximum(h1, 0.0) + params.gate_b2[:, None]
        pre = h1 if bias == "b1" else h2
        arr = getattr(params, f"gate_{bias}")
        arr[0] += 4e-6 - pre[0, 0, 0]
        naive = central_difference(params, fb, int(labels[0]), arr, 0)
        analytic = backward(fb, labels, params)[1][f"gate_{bias}"][0]
        assert abs(naive - analytic) / (abs(naive) + abs(analytic)) > 1e-2
        assert grad_check(params, fb, labels) < 1e-4

    def test_point_on_relu_kink_takes_the_side_of_the_analytic_slope(self):
        params = jitter(init_head(TINY, seed=1), seed=601)
        fb, labels = random_bundle(TINY, 1, seed=2)
        # a dead hidden unit with a zero bias: h2[0] is exactly 0 everywhere,
        # so a step up in b2[0] switches it on at any step size
        params.gate_w2[0] = 0.0
        params.gate_b2[0] = 0.0
        assert backward(fb, labels, params)[1]["gate_b2"][0] == 0.0
        assert abs(central_difference(params, fb, int(labels[0]), params.gate_b2, 0)) > 1e-3
        assert grad_check(params, fb, labels) < 1e-4

    @pytest.mark.parametrize("name", [name for name, _ in init_head(TINY).param_items()])
    def test_wrong_gradient_exceeds_tolerance(self, name, monkeypatch):
        import gjeval.fusion as fusion_mod

        def skewed_backward(*args, **kwargs):
            loss, grads = backward(*args, **kwargs)
            grads[name] = grads[name] * 1.01
            return loss, grads

        params = jitter(init_head(TINY, seed=1), seed=601)
        fb, labels = random_bundle(TINY, 1, seed=2)
        monkeypatch.setattr(fusion_mod, "backward", skewed_backward)
        assert grad_check(params, fb, labels) > 1e-4


class TestAdam:
    def test_first_step_moves_by_lr(self):
        # with bias correction, |update| == lr wherever the gradient is nonzero
        params = init_head(TINY, seed=0)
        state = AdamState.for_params(params, lr=0.01)
        before = params.cls_w.copy()
        g = {name: np.zeros_like(arr) for name, arr in params.param_items()}
        g["cls_w"] = np.ones_like(params.cls_w)
        adam_step(params, g, state)
        delta = before - params.cls_w
        assert np.allclose(delta, 0.01, atol=1e-9)
        assert state.t == 1

    def test_hand_two_steps_scalar(self):
        # replicate the Adam recurrence by hand on a single weight entry
        params = init_head(TINY, seed=0)
        state = AdamState.for_params(params, lr=0.1)
        w0 = float(params.cls_b[0])
        zero = {name: np.zeros_like(arr) for name, arr in params.param_items()}
        g1 = {k: v.copy() for k, v in zero.items()}
        g1["cls_b"] = np.array([0.5, 0.0, 0.0])
        g2 = {k: v.copy() for k, v in zero.items()}
        g2["cls_b"] = np.array([-0.25, 0.0, 0.0])
        adam_step(params, g1, state)
        adam_step(params, g2, state)
        m = 0.9 * (0.1 * 0.5) + 0.1 * (-0.25)
        v = 0.999 * (0.001 * 0.25) + 0.001 * 0.0625
        m1 = 0.1 * 0.5
        v1 = 0.001 * 0.25
        w1 = w0 - 0.1 * (m1 / (1 - 0.9)) / (math.sqrt(v1 / (1 - 0.999)) + 1e-8)
        w2 = w1 - 0.1 * (m / (1 - 0.9**2)) / (math.sqrt(v / (1 - 0.999**2)) + 1e-8)
        assert params.cls_b[0] == pytest.approx(w2, abs=1e-12)

    def test_zero_grad_no_move(self):
        params = init_head(TINY, seed=0)
        state = AdamState.for_params(params)
        before = [arr.copy() for _, arr in params.param_items()]
        zero = {name: np.zeros_like(arr) for name, arr in params.param_items()}
        adam_step(params, zero, state)
        for (_, arr), prev in zip(params.param_items(), before):
            assert np.array_equal(arr, prev)


class TestSerialization:
    def test_params_round_trip_exact(self):
        params = init_head(TINY, seed=13)
        text = params_to_json(params)
        back = params_from_json(text)
        assert back.config == params.config
        for (_, a), (_, b) in zip(params.param_items(), back.param_items()):
            assert np.array_equal(a, b)

    def test_format_field(self):
        doc = json.loads(params_to_json(init_head(TINY, seed=0)))
        assert doc["format"] == "gjeval-head-v1"
        with pytest.raises(ValueError, match="format"):
            params_from_json(json.dumps({"format": "other"}))


class TestSyntheticFeatures:
    def test_balanced_labels(self):
        _, labels = make_synthetic_features(TINY, 99, separation=1.0, seed=0)
        counts = np.bincount(labels, minlength=3)
        assert counts.max() - counts.min() <= 1

    def test_separation_controls_distance(self):
        fb1, l1 = make_synthetic_features(TINY, 300, separation=0.0, seed=1)
        fb2, l2 = make_synthetic_features(TINY, 300, separation=5.0, seed=1)

        def center_gap(fb, labels):
            m0 = fb.f_cls[labels == 0].mean(axis=0)
            m1 = fb.f_cls[labels == 1].mean(axis=0)
            return float(np.linalg.norm(m0 - m1))

        assert center_gap(fb2, l2) > center_gap(fb1, l1) + 3.0

    def test_shuffle_destroys_association(self):
        fb, labels = make_synthetic_features(TINY, 300, separation=5.0, seed=2)
        fb_s, labels_s = make_synthetic_features(
            TINY, 300, separation=5.0, seed=2, shuffle_labels=True
        )
        assert np.array_equal(fb.f_cls, fb_s.f_cls)  # same features
        assert not np.array_equal(labels, labels_s)
        assert np.array_equal(np.bincount(labels), np.bincount(labels_s))


class TestTrainToy:
    def test_short_run_learns(self):
        spec = TrainSpec(
            config=HeadConfig(c_dino=16, c_res=12, hidden=4, dropout=0.1),
            n_samples=600, epochs=6, batch_size=64, lr=1e-3, seed=5,
        )
        result = train_toy(spec)
        assert len(result.log) == 6
        assert set(result.log[0]) == {"epoch", "train_loss", "train_acc", "holdout_acc"}
        assert result.log[-1]["train_loss"] < result.log[0]["train_loss"]
        assert result.report.overall.accuracy.value > 0.8
        assert result.report.n == 150  # holdout_frac 0.25

    def test_deterministic_per_seed(self):
        spec = TrainSpec(
            config=HeadConfig(c_dino=8, c_res=8, hidden=3, dropout=0.2),
            n_samples=200, epochs=2, batch_size=50, lr=1e-3, seed=9,
        )
        r1 = train_toy(spec)
        r2 = train_toy(spec)
        assert r1.log == r2.log
        for (_, a), (_, b) in zip(r1.params.param_items(), r2.params.param_items()):
            assert np.array_equal(a, b)

    def test_extreme_lr_survives_via_loss_floor(self):
        # max-subtracted softmax and the CE floor keep the loss finite even
        # when parameters blow up to ~1e80; training self-heals rather than
        # raising, so divergence detection only fires on genuine inf/nan
        spec = TrainSpec(
            config=HeadConfig(c_dino=8, c_res=8, hidden=3, dropout=0.0),
            n_samples=120, epochs=3, batch_size=40, lr=1e80, seed=0,
        )
        result = train_toy(spec)
        assert all(math.isfinite(e["train_loss"]) for e in result.log)

    def test_divergence_raises(self):
        spec = TrainSpec(
            config=HeadConfig(c_dino=8, c_res=8, hidden=3, dropout=0.0),
            n_samples=120, epochs=3, batch_size=40, lr=1e200, seed=0,
        )
        with pytest.raises(DivergenceError, match="step"):
            train_toy(spec)

    def test_pooling_all_rows_then_gathering_equals_pooling_the_gathered_rows(self):
        # train_toy pools every sample once and gathers its batches from the
        # pooled rows; a 14x14 grid is past numpy's 8-term unrolled sum
        cfg = HeadConfig(c_dino=6, c_res=5, grid_dino=(14, 14), grid_res=(14, 14), hidden=2)
        fb, _ = random_bundle(cfg, 40, seed=5)
        idx = np.random.default_rng(6).permutation(40)[:17]
        gathered = FeatureBundle(fb.f_cls[idx], fb.f_grid_dino[idx], fb.f_grid_res[idx])
        for whole, part in zip(_pool(fb), _pool(gathered)):
            assert whole[idx].tobytes() == part.tobytes()

    def test_chunked_accuracy_equals_full_batch(self):
        # 103 rows: no slice size below divides it, so the last slice is short
        for seed in range(4):
            params = jitter(init_head(TINY, seed=seed), seed=900 + seed)
            fb, labels = random_bundle(TINY, 103, seed=seed)
            full = float((head_forward(params, fb).probs.argmax(axis=1) == labels).mean())
            for batch_size in (1, 10, 64, 128):
                assert _accuracy(params, *_pool(fb), labels, batch_size) == full

    def test_shuffled_labels_stay_at_chance(self):
        spec = TrainSpec(
            config=HeadConfig(c_dino=16, c_res=12, hidden=4, dropout=0.1),
            n_samples=600, epochs=6, batch_size=64, lr=1e-3, seed=5,
            shuffle_labels=True,
        )
        result = train_toy(spec)
        assert abs(result.report.overall.accuracy.value - 1 / 3) < 0.15
