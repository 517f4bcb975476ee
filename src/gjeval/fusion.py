"""Two-branch gated fusion head with hand-derived backprop and Adam.

The head fuses a token-style branch (a class vector plus a spatial grid of
the same width) with a convolutional branch (a wider spatial grid):

1. ``f_dino`` = class vector + spatial mean of its grid (width C).
2. ``f_res``  = linear projection of the spatial mean of the conv grid
   (width C_res -> C), i.e. average pooling followed by a 1x1 convolution.
3. The two vectors are stacked as a 2-channel, length-C sequence and run
   through three pointwise 1-D convolutions (2->h, h->h, h->2); the first
   two are each followed by ReLU and dropout. A softmax across the two
   channels at every position yields per-element gates ``a_dino`` and
   ``a_res`` that sum to 1, and the fused vector is the elementwise convex
   combination ``a_dino * f_dino + a_res * f_res``.
4. A fully connected layer maps the fused vector to 3 logits; training
   minimizes cross-entropy on the stable softmax of those logits.

Everything is float64 numpy. ``head_forward`` is the one forward pass;
``backward`` recomputes it under the same dropout seed, so gradients always
belong to the forward pass they differentiate, and derives every parameter's
gradient analytically (no autodiff). Both take a batch (leading axis N); a
single sample is a batch of one. ``backward`` returns the loss with the
gradients, so training and the gradient check share one computation.

The gating network runs channels-first: a batch's two branches form one
(2, N*C) array, sample-major along each row, and the hidden layers are
(h, N*C). Each pointwise convolution is then one matrix product over all N*C
positions: ``w @ x`` forward, ``w.T @ g`` for input gradients, ``g @ a.T``
for weight gradients and a sum along each row for bias gradients. Bias adds,
dropout and ReLU masks work in place.

The spatial means are fixed per sample. ``head_forward`` and ``backward``
pool their bundle and run the same core as training. ``train_toy`` pools every
sample once and gathers each training batch, and each accuracy slice of
``batch_size`` rows, from the pooled rows; it calls ``head_forward`` once, for
the final hold-out report.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .metrics import MetricReport, compute_report

__all__ = [
    "HeadConfig",
    "HeadParams",
    "FeatureBundle",
    "ForwardPass",
    "AdamState",
    "DivergenceError",
    "TrainSpec",
    "TrainResult",
    "init_head",
    "head_forward",
    "backward",
    "adam_step",
    "grad_check",
    "make_synthetic_features",
    "train_toy",
    "params_to_json",
]

LOSS_FLOOR = 1e-12
# the head classifies into the three classes of CLASS_ORDER
N_CLASSES = 3
HEAD_FORMAT = "gjeval-head-v1"
# Adam moment decay rates and denominator guard (Kingma and Ba's defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# grad_check's finite-difference step, and how often it halves one that
# straddles a kink (1e-5 -> ~1e-8)
GRAD_CHECK_STEP = 1e-5
KINK_HALVINGS = 10


@dataclass(frozen=True)
class HeadConfig:
    """Dimensions and regularization of the head.

    Defaults are a compact shape for experimentation. At full scale the
    widths are those of a ViT-S/14 token (384, on a 32x32 grid) and a
    ResNet-50 stage-5 map (2048, on a 14x14 grid) at 448x448 input.
    """

    c_dino: int = 64
    c_res: int = 96
    grid_dino: tuple[int, int] = (2, 2)
    grid_res: tuple[int, int] = (2, 2)
    hidden: int = 8
    dropout: float = 0.1

    def __post_init__(self):
        if min(self.c_dino, self.c_res, self.hidden) < 1:
            raise ValueError("all widths must be positive")
        if min(*self.grid_dino, *self.grid_res) < 1:
            raise ValueError(f"grid sides must be positive, got {self.grid_dino} and {self.grid_res}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")


@dataclass
class HeadParams:
    """All trainable parameters of the head.

    ``align_w`` (C_res, C) and ``align_b`` (C) project the pooled conv branch;
    ``gate_w1`` .. ``gate_b3`` are the three pointwise conv layers of the
    gating network (2->h, h->h, h->2), whose dropout rate is
    ``HeadConfig.dropout``; ``cls_w`` (C, 3) and ``cls_b`` (3) classify.
    """

    config: HeadConfig
    align_w: np.ndarray
    align_b: np.ndarray
    gate_w1: np.ndarray
    gate_b1: np.ndarray
    gate_w2: np.ndarray
    gate_b2: np.ndarray
    gate_w3: np.ndarray
    gate_b3: np.ndarray
    cls_w: np.ndarray
    cls_b: np.ndarray

    def param_items(self) -> list[tuple[str, np.ndarray]]:
        """(name, array) of every field after ``config``, in field order;
        shared by Adam, the gradient check and ``params_to_json``."""
        return [(f.name, getattr(self, f.name)) for f in fields(self)[1:]]


@dataclass(frozen=True)
class FeatureBundle:
    """Input features for a batch of N samples (N = 1 for one sample).

    f_cls: (N, C); f_grid_dino: (N, H, W, C); f_grid_res: (N, H2, W2, C_res).
    """

    f_cls: np.ndarray
    f_grid_dino: np.ndarray
    f_grid_res: np.ndarray


@dataclass(frozen=True)
class ForwardPass:
    """Forward activations of interest, each with the batch axis first."""

    f_dino: np.ndarray
    f_res: np.ndarray
    a_dino: np.ndarray
    a_res: np.ndarray
    f_fus: np.ndarray
    logits: np.ndarray
    probs: np.ndarray


class DivergenceError(RuntimeError):
    """Raised when training hits a non-finite loss."""

    def __init__(self, step: int, value: float):
        self.step = step
        self.value = value
        super().__init__(f"non-finite loss {value!r} at optimization step {step}")


def _uniform_fan_in(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    lim = math.sqrt(1.0 / fan_in)
    return rng.uniform(-lim, lim, size=shape)


def init_head(config: HeadConfig, seed: int = 0) -> HeadParams:
    """Seeded initialization: weights uniform in +-sqrt(1/fan_in), biases zero."""
    rng = np.random.default_rng(seed)
    h = config.hidden
    # keyword arguments evaluate in order, so the weights draw in field order
    return HeadParams(
        config=config,
        align_w=_uniform_fan_in(rng, (config.c_res, config.c_dino), config.c_res),
        align_b=np.zeros(config.c_dino),
        gate_w1=_uniform_fan_in(rng, (h, 2), 2),
        gate_b1=np.zeros(h),
        gate_w2=_uniform_fan_in(rng, (h, h), h),
        gate_b2=np.zeros(h),
        gate_w3=_uniform_fan_in(rng, (2, h), h),
        gate_b3=np.zeros(2),
        cls_w=_uniform_fan_in(rng, (config.c_dino, N_CLASSES), config.c_dino),
        cls_b=np.zeros(N_CLASSES),
    )


def _dropout_masks(rng_seed: int, n: int, h: int, c: int, rate: float) -> tuple[np.ndarray, np.ndarray]:
    """Inverted-dropout masks for the two hidden layers, each (h, N*C): 0 or
    1/keep per element.

    The stream is drawn in (2, N, h, C) order, which fixes which units
    every seed drops; the boolean draw is laid out channels-first before it
    becomes float.
    """
    keep = 1.0 - rate
    kept = np.random.default_rng(rng_seed).random((2, n, h, c)) < keep
    masks = np.empty((2, h, n, c))
    # kept * (1.0 / keep) is 0.0 / keep or 1.0 / keep, bit for bit
    np.multiply(kept.transpose(0, 2, 1, 3), 1.0 / keep, out=masks)
    return masks[0].reshape(h, n * c), masks[1].reshape(h, n * c)


def _gate_core(x: np.ndarray, p: HeadParams, training: bool, rng_seed: int) -> dict:
    """Gating network on the 2-channel sequences of a batch, x of shape (2, N, C).

    Runs channels-first on (channels, N*C) arrays, sample-major along each row.
    """
    _, n, c = x.shape
    x = x.reshape(2, n * c)
    dropout = p.config.dropout
    if training and dropout > 0.0:
        m1, m2 = _dropout_masks(rng_seed, n, p.gate_b1.size, c, dropout)
    else:
        m1 = m2 = None
    h1 = p.gate_w1 @ x
    h1 += p.gate_b1[:, None]
    a1d = np.maximum(h1, 0.0)
    if m1 is not None:
        a1d *= m1
    h2 = p.gate_w2 @ a1d
    h2 += p.gate_b2[:, None]
    a2d = np.maximum(h2, 0.0)
    if m2 is not None:
        a2d *= m2
    s = p.gate_w3 @ a2d
    s += p.gate_b3[:, None]
    # softmax across the two channels: max and sum of the two rows
    s -= np.maximum(s[0], s[1])
    np.exp(s, out=s)
    s /= s[0] + s[1]
    return {"x": x, "h1": h1, "a1d": a1d, "m1": m1, "h2": h2, "a2d": a2d, "m2": m2, "s": s}


def _pool(bundle: FeatureBundle) -> tuple[np.ndarray, np.ndarray]:
    """``f_dino`` and the pooled conv grid of a batch: the spatial means, fixed per sample."""
    fc = np.asarray(bundle.f_cls, dtype=np.float64)
    if fc.ndim != 2:
        raise ValueError(f"f_cls must be an (N, C) batch, got shape {fc.shape}")
    f_dino = fc + np.asarray(bundle.f_grid_dino, dtype=np.float64).mean(axis=(1, 2))
    return f_dino, np.asarray(bundle.f_grid_res, dtype=np.float64).mean(axis=(1, 2))


def _forward(
    params: HeadParams, f_dino: np.ndarray, pooled_r: np.ndarray, training: bool, rng_seed: int
) -> dict:
    """Forward pass from the pooled features of a batch (see ``_pool``)."""
    n, c = f_dino.shape
    f_res = pooled_r @ params.align_w + params.align_b
    cache = _gate_core(np.stack([f_dino, f_res]), params, training, rng_seed)
    s = cache["s"]
    a_dino, a_res = s[0].reshape(n, c), s[1].reshape(n, c)
    f_fus = a_dino * f_dino + a_res * f_res
    logits = f_fus @ params.cls_w + params.cls_b
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    probs = e / e.sum(axis=-1, keepdims=True)
    cache.update(
        pooled_r=pooled_r, f_dino=f_dino, f_res=f_res,
        a_dino=a_dino, a_res=a_res, f_fus=f_fus, logits=logits, probs=probs,
    )
    return cache


def head_forward(
    params: HeadParams, bundle: FeatureBundle, training: bool = False, rng_seed: int = 0
) -> ForwardPass:
    """Full forward pass over a batch; raises ValueError unless ``f_cls`` is 2-D."""
    c = _forward(params, *_pool(bundle), training, rng_seed)
    return ForwardPass(
        f_dino=c["f_dino"], f_res=c["f_res"], a_dino=c["a_dino"], a_res=c["a_res"],
        f_fus=c["f_fus"], logits=c["logits"], probs=c["probs"],
    )


def _losses(probs: np.ndarray, truths: np.ndarray) -> np.ndarray:
    """Per-sample cross-entropy: -log of each row's probability of its label,
    floored at ``LOSS_FLOOR``."""
    return -np.log(np.maximum(probs[np.arange(truths.size), truths], LOSS_FLOOR))


def _loss_and_grads(
    f_dino: np.ndarray,
    pooled_r: np.ndarray,
    truths,
    params: HeadParams,
    training: bool,
    rng_seed: int,
    reduction: str,
) -> tuple[float, dict[str, np.ndarray]]:
    """``backward`` from the pooled features of a batch (see ``_pool``)."""
    truths = np.asarray(truths, dtype=np.int64)
    c = _forward(params, f_dino, pooled_r, training, rng_seed)
    probs = c["probs"]
    n, width = f_dino.shape
    if truths.shape != (n,):
        raise ValueError(f"truths must hold one label per row: {n} rows, truths of shape {truths.shape}")
    losses = _losses(probs, truths)
    loss = float(losses.mean() if reduction == "mean" else losses.sum())

    # Softmax + cross-entropy collapse to (probs - onehot) at the logits.
    g_logits = probs.copy()
    g_logits[np.arange(n), truths] -= 1.0
    if reduction == "mean":
        g_logits /= n

    g_cls_w = c["f_fus"].T @ g_logits
    g_cls_b = g_logits.sum(axis=0)
    g_ffus = g_logits @ params.cls_w.T

    # Fusion product: gradient reaches the gates and, directly, both branches.
    g_z = np.stack([g_ffus * c["f_dino"], g_ffus * c["f_res"]]).reshape(2, n * width)
    # Softmax across the 2-channel axis: dL/dz = s * (g - sum_c g_c s_c).
    s = c["s"]
    g_z -= (g_z * s).sum(axis=0)
    g_z *= s

    g_b3 = g_z.sum(axis=1)
    g_w3 = g_z @ c["a2d"].T
    g_h2 = params.gate_w3.T @ g_z
    if c["m2"] is not None:
        g_h2 *= c["m2"]
    g_h2 *= c["h2"] > 0
    g_b2 = g_h2.sum(axis=1)
    g_w2 = g_h2 @ c["a1d"].T
    g_h1 = params.gate_w2.T @ g_h2
    if c["m1"] is not None:
        g_h1 *= c["m1"]
    g_h1 *= c["h1"] > 0
    g_b1 = g_h1.sum(axis=1)
    g_w1 = g_h1 @ c["x"].T
    g_x = params.gate_w1.T @ g_h1

    # f_dino has no parameters upstream, so only the conv branch carries on
    g_fres = g_ffus * c["a_res"] + g_x[1].reshape(n, width)

    g_align_w = c["pooled_r"].T @ g_fres
    g_align_b = g_fres.sum(axis=0)

    grads = {
        "align_w": g_align_w,
        "align_b": g_align_b,
        "gate_w1": g_w1,
        "gate_b1": g_b1,
        "gate_w2": g_w2,
        "gate_b2": g_b2,
        "gate_w3": g_w3,
        "gate_b3": g_b3,
        "cls_w": g_cls_w,
        "cls_b": g_cls_b,
    }
    return loss, grads


def backward(
    bundle: FeatureBundle,
    truths,
    params: HeadParams,
    training: bool = False,
    rng_seed: int = 0,
    reduction: str = "sum",
) -> tuple[float, dict[str, np.ndarray]]:
    """Cross-entropy loss of a batch and its analytic gradient for every parameter.

    ``truths`` holds one label per row of ``bundle``; any other shape raises
    ValueError rather than broadcasting. ``reduction`` 'sum' or 'mean' sets how the per-sample losses and gradients
    combine. Recomputes the forward pass internally; with ``training=True``
    the same ``rng_seed`` reproduces the dropout masks, so gradients always
    match the forward pass they belong to.
    """
    return _loss_and_grads(*_pool(bundle), truths, params, training, rng_seed, reduction)


@dataclass
class AdamState:
    """Adam optimizer state: first/second moment buffers and the step counter."""

    lr: float = 1e-4
    t: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def for_params(cls, params: HeadParams, lr: float = 1e-4) -> "AdamState":
        state = cls(lr=lr)
        for name, arr in params.param_items():
            state.m[name] = np.zeros_like(arr)
            state.v[name] = np.zeros_like(arr)
        return state


def adam_step(
    params: HeadParams, grads: dict[str, np.ndarray], state: AdamState
) -> tuple[HeadParams, AdamState]:
    """One bias-corrected Adam update, in place on the parameter arrays."""
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bc1 = 1.0 - b1**state.t
    bc2 = 1.0 - b2**state.t
    for name, arr in params.param_items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        arr -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
    return params, state


def grad_check(
    params: HeadParams,
    bundle: FeatureBundle,
    truths,
    rng_seed: int = 0,
    training: bool = False,
) -> float:
    """Max relative error between analytic and central finite-difference
    gradients of the summed loss of a batch over every parameter entry.

    Relative error uses max(|analytic| + |numeric|, 1e-6) in the denominator
    so vanishing gradients compare on an absolute scale.

    The ReLUs of the gating network make the loss only piecewise smooth. When
    the +-step of an entry moves a pre-activation (``h1`` or ``h2``) across
    zero, the central difference averages the slopes on both sides of the kink
    and matches neither. For such an entry the step is halved until both
    perturbed points keep the ReLU pattern of the unperturbed point, and only
    then compared. A point that sits on the kink itself (a dead unit with a
    zero bias gives exactly 0) keeps the pattern on one side only, at every
    step; after ``KINK_HALVINGS`` halvings it is compared with the one-sided
    difference on that side (at the largest step that side kept), the side
    whose slope the analytic gradient (ReLU'(0) = 0) takes; if neither side
    ever kept it, with the central difference at the smallest step. Entries
    whose step crosses no kink use the central difference at
    ``GRAD_CHECK_STEP`` unchanged.
    """
    truths = np.asarray(truths, dtype=np.int64)
    pooled = _pool(bundle)

    def probe() -> tuple[float, tuple[np.ndarray, np.ndarray]]:
        """Loss at the current params and the ReLU pattern of h1 and h2."""
        c = _forward(params, *pooled, training, rng_seed)
        return float(_losses(c["probs"], truths).sum()), (c["h1"] > 0, c["h2"] > 0)

    def keeps(pattern: tuple[np.ndarray, np.ndarray]) -> bool:
        return all(map(np.array_equal, pattern, base))

    def numeric_at(arr: np.ndarray, ix: tuple) -> float:
        orig = arr[ix]
        delta = GRAD_CHECK_STEP
        one_sided = None
        try:
            while True:
                arr[ix] = orig + delta
                up, up_pattern = probe()
                arr[ix] = orig - delta
                down, down_pattern = probe()
                up_keeps, down_keeps = keeps(up_pattern), keeps(down_pattern)
                if up_keeps and down_keeps:
                    return (up - down) / (2.0 * delta)
                if one_sided is None and (up_keeps or down_keeps):
                    one_sided = (up - loss0) / delta if up_keeps else (loss0 - down) / delta
                if delta <= GRAD_CHECK_STEP / 2.0**KINK_HALVINGS:
                    return one_sided if one_sided is not None else (up - down) / (2.0 * delta)
                delta /= 2.0
        finally:
            arr[ix] = orig

    _, grads = backward(bundle, truths, params, training=training, rng_seed=rng_seed, reduction="sum")
    loss0, base = probe()
    worst = 0.0
    for name, arr in params.param_items():
        g = grads[name]
        for ix in np.ndindex(arr.shape):
            numeric = numeric_at(arr, ix)
            analytic = g[ix]
            rel = abs(analytic - numeric) / max(abs(analytic) + abs(numeric), 1e-6)
            worst = max(worst, rel)
    return worst


@dataclass(frozen=True)
class TrainSpec:
    """Configuration of the synthetic training demonstration."""

    config: HeadConfig = HeadConfig()
    n_samples: int = 2000
    separation: float = 3.0
    epochs: int = 40
    batch_size: int = 128
    lr: float = 1e-4
    seed: int = 0
    holdout_frac: float = 0.25
    shuffle_labels: bool = False

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and positive, got {self.lr!r}")
        if not 0.0 <= self.holdout_frac < 1.0:
            raise ValueError(f"holdout_frac must be in [0, 1), got {self.holdout_frac!r}")
        if self.n_holdout >= self.n_samples:
            raise ValueError(
                f"n_samples={self.n_samples} with holdout_frac={self.holdout_frac} "
                f"leaves no rows to train on"
            )

    @property
    def n_holdout(self) -> int:
        """Rows held out for evaluation: at least one."""
        return max(1, int(round(self.n_samples * self.holdout_frac)))


@dataclass(frozen=True)
class TrainResult:
    params: HeadParams
    log: tuple[dict, ...]
    report: MetricReport


def make_synthetic_features(
    config: HeadConfig, n: int, separation: float, seed: int, shuffle_labels: bool = False
) -> tuple[FeatureBundle, np.ndarray]:
    """Class-clustered synthetic features for the three input tensors.

    Each class gets its own center along a random orthonormal direction,
    scaled by ``separation``, in each tensor's space; unit-variance Gaussian
    noise is added per element. ``shuffle_labels`` keeps the features but
    permutes the labels, destroying all class signal (a chance-level control).
    """
    rng = np.random.default_rng(seed)
    labels = np.arange(n, dtype=np.int64) % 3
    labels = labels[rng.permutation(n)]

    def centers(dim: int) -> np.ndarray:
        a = rng.normal(size=(dim, 3))
        if dim >= 3:
            dirs = np.linalg.qr(a)[0].T  # 3 orthonormal rows
        else:
            # fewer dimensions than classes: settle for unit-norm directions
            dirs = (a / np.linalg.norm(a, axis=0, keepdims=True)).T
        return separation * dirs  # (3, dim)

    c_cls = centers(config.c_dino)
    c_gd = centers(config.c_dino)
    c_gr = centers(config.c_res)
    hd, wd = config.grid_dino
    hr, wr = config.grid_res
    f_cls = c_cls[labels] + rng.normal(size=(n, config.c_dino))
    gd = c_gd[labels][:, None, None, :] + rng.normal(size=(n, hd, wd, config.c_dino))
    gr = c_gr[labels][:, None, None, :] + rng.normal(size=(n, hr, wr, config.c_res))
    if shuffle_labels:
        labels = labels[rng.permutation(n)]
    return FeatureBundle(f_cls=f_cls, f_grid_dino=gd, f_grid_res=gr), labels


def _accuracy(params: HeadParams, f_dino: np.ndarray, pooled_r: np.ndarray, labels: np.ndarray,
              batch_size: int) -> float:
    """Argmax accuracy on pooled features, evaluated ``batch_size`` rows at a time."""
    hits = 0
    for start in range(0, labels.size, batch_size):
        rows = slice(start, start + batch_size)
        probs = _forward(params, f_dino[rows], pooled_r[rows], False, 0)["probs"]
        hits += int(np.count_nonzero(probs.argmax(axis=1) == labels[rows]))
    return hits / labels.size


def train_toy(spec: TrainSpec) -> TrainResult:
    """Train the head on synthetic clustered features; fully deterministic per seed.

    Raises DivergenceError on a non-finite batch loss. The returned report
    evaluates the held-out split through the standard metrics pipeline.
    """
    seeds = np.random.SeedSequence(spec.seed).generate_state(4)
    data_seed, init_seed, shuffle_seed, dropout_seed = (int(s) for s in seeds)
    fb, labels = make_synthetic_features(
        spec.config, spec.n_samples, spec.separation, data_seed, spec.shuffle_labels
    )
    n_train = spec.n_samples - spec.n_holdout
    # The spatial means are fixed per sample: pool every row once and drop
    # the grids, but a copy of the hold-out's for the final head_forward.
    f_dino, pooled_r = _pool(fb)
    hold_fb = FeatureBundle(*(a[n_train:].copy() for a in (fb.f_cls, fb.f_grid_dino, fb.f_grid_res)))
    del fb
    train_rows, hold_rows = slice(None, n_train), slice(n_train, None)
    y_train, y_hold = labels[train_rows], labels[hold_rows]

    params = init_head(spec.config, init_seed)
    state = AdamState.for_params(params, lr=spec.lr)
    shuffle_rng = np.random.default_rng(shuffle_seed)
    log: list[dict] = []
    global_step = 0
    for epoch in range(spec.epochs):
        order = shuffle_rng.permutation(n_train)
        epoch_loss = 0.0
        for start in range(0, n_train, spec.batch_size):
            idx = order[start : start + spec.batch_size]
            step_seed = (dropout_seed + 1000003 * global_step) % (2**63)
            # Divergence is detected by the explicit finiteness check below;
            # silence numpy's intermediate warnings from non-finite arithmetic.
            with np.errstate(over="ignore", invalid="ignore"):
                loss, grads = _loss_and_grads(
                    f_dino[idx], pooled_r[idx], y_train[idx], params,
                    training=params.config.dropout > 0, rng_seed=step_seed, reduction="mean",
                )
            if not math.isfinite(loss):
                raise DivergenceError(global_step, loss)
            adam_step(params, grads, state)
            epoch_loss += loss * idx.size
            global_step += 1
        log.append(
            {
                "epoch": epoch + 1,
                "train_loss": epoch_loss / n_train,
                "train_acc": _accuracy(params, f_dino[train_rows], pooled_r[train_rows], y_train, spec.batch_size),
                "holdout_acc": _accuracy(params, f_dino[hold_rows], pooled_r[hold_rows], y_hold, spec.batch_size),
            }
        )

    fp = head_forward(params, hold_fb)
    pred = fp.probs.argmax(axis=1)
    report = compute_report(y_hold, pred, fp.probs, level="image")
    return TrainResult(params=params, log=tuple(log), report=report)


def params_to_json(params: HeadParams) -> str:
    """Versioned JSON serialization; floats round-trip exactly."""
    doc = {
        "format": HEAD_FORMAT,
        "config": {**asdict(params.config), "n_classes": N_CLASSES},
        "params": {
            name: {"shape": list(arr.shape), "data": [float(v) for v in arr.reshape(-1)]}
            for name, arr in params.param_items()
        },
    }
    return json.dumps(doc, indent=2)
