"""``metrics.repr_bytes`` against ``repr``, value by value.

The curve CSVs must hold exactly the text ``repr`` gives each value.
``repr_bytes`` computes the shortest round-trip digits of the values in
[1e-4, 10) in numpy (``metrics._shortest_fixed``), so it is checked here on
more than a million values from the families a curve holds and from the
families where shortest-digit methods go wrong: every value must format
as ``repr`` formats it. Each exactness rule of the method that can act in
[1e-4, 10) has a named witness below, a value that formats wrongly without
that rule; the rules that cannot act there have a test of the reason.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from gjeval.metrics import curve_pair, repr_bytes


def assert_same_as_repr(values) -> None:
    values = np.asarray(values, dtype=np.float64).ravel()
    rows = repr_bytes(values)
    assert rows.dtype == np.uint8 and rows.shape[0] == values.size
    got = np.ascontiguousarray(rows).view(f"S{rows.shape[1]}").ravel()
    want = np.array(list(map(repr, values.tolist())), dtype=np.bytes_)
    bad = np.flatnonzero(got != want)
    assert bad.size == 0, [(repr(values[i]), got[i]) for i in bad[:5].tolist()]


def bit_patterns(rng, lo: float, hi: float, n: int) -> np.ndarray:
    """Doubles drawn uniformly by bit pattern from [lo, hi)."""
    a, b = np.array([lo, hi]).view(np.int64)
    return rng.integers(a, b, n).view(np.float64)


def test_random_bit_patterns(rng):
    assert_same_as_repr(bit_patterns(rng, 1e-4, 1.0, 200_000))
    assert_same_as_repr(bit_patterns(rng, 1.0, 10.0, 200_000))


def test_fractions_and_rounded_values(rng):
    k, n = np.triu_indices(700, 1)
    assert_same_as_repr(k / n)  # every k/n with 0 <= k < n < 700: rates and precisions
    x = rng.random(100_000)
    assert_same_as_repr(np.round(x, 4))
    assert_same_as_repr(np.round(x, 7))
    assert_same_as_repr(10 ** rng.uniform(-4.5, 1.5, 100_000))  # log-uniform, both edges


def test_dyadic_values_with_exact_ties():
    """n / 2**j for odd n: the exact decimal of many of these ends in 5 at
    the 17th or 18th digit, a tie between two nearest candidates."""
    n = np.arange(1, 1 << 12, 2, dtype=np.float64)
    j = np.arange(1, 67)
    assert_same_as_repr((n[:, None] / 2.0 ** j).ravel())
    assert_same_as_repr(8 + n[:, None] / 2.0 ** np.arange(12, 20))


def test_neighbours_of_decimal_boundaries():
    decimals = np.array([float(f"{d}e{p}") for p in range(-8, 2) for d in range(1, 3000)])
    steps = [decimals]
    for _ in range(2):
        steps = [np.nextafter(steps[0], 0.0), *steps, np.nextafter(steps[-1], np.inf)]
    assert_same_as_repr(np.concatenate(steps))


def test_masses_just_above_and_below_one(rng):
    """Weighted rates end a few ulps off 1.0 (1.0000000000000053 at paper
    scale), as do sums of weights divided by their pairwise total."""
    assert_same_as_repr(1.0 + np.arange(-5000, 5000) * 2.0**-52)
    w = rng.random((100, 1000))
    assert_same_as_repr(np.cumsum(w, axis=1) / w.sum(axis=1, keepdims=True))
    assert repr(1.0000000000000053) == "1.0000000000000053"
    assert_same_as_repr([1.0000000000000053, 0.9999999999999866])


def test_values_outside_the_fast_range(rng):
    """Zeros, infinities, NaN, negatives, tiny and large values, and a curve
    whose thresholds all lie below 1e-4."""
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, -0.5, 5e-324, 9.999999999999999e-05, 10.0, 1e16, 1e300]
    assert_same_as_repr(special)
    assert_same_as_repr(rng.permutation(np.repeat(special, 50)))
    scores = rng.random(3000) * 1e-5
    roc, pr = curve_pair(scores, rng.random(3000) < 0.3)
    assert (roc.thresholds[1:] < 1e-4).all()
    assert_same_as_repr(np.concatenate([roc.x, roc.y, roc.thresholds, pr.y]))


def test_widths_and_padding():
    rows = repr_bytes(np.array([0.5, 1.0, 0.00012345678901234567]))
    assert rows.shape == (3, 22)
    assert [r.tobytes() for r in rows] == [b"0.5" + bytes(19), b"1.0" + bytes(19), b"0.00012345678901234567"]
    assert repr_bytes(np.array([-0.0, np.inf])).shape == (2, 4)
    assert repr_bytes(np.array([1e-300])).tobytes() == b"1e-300"


# witness values: each formats wrongly when its rule is left out


POWERS_OF_TEN = np.array([1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0])


@pytest.mark.parametrize("shift", [-1e-12, 1e-12])
def test_log10_off_by_one_is_corrected(shift, monkeypatch):
    """``np.log10`` is not correctly rounded, so ``floor(log10 v)`` can be
    one off next to a power of ten; on some hosts it already is: ``log10``
    of the double below 0.001 can round to -3.0. Here ``log10`` reads its
    argument ``shift`` too far off, which puts the first guess one too low just above each power
    of ten (1.0 would come out as ``0.``...) and one too high just below it
    (the double below 10 would index past the tables)."""
    near = np.concatenate([np.nextafter(POWERS_OF_TEN, 0.0), POWERS_OF_TEN[:-1], np.nextafter(POWERS_OF_TEN[:-1], 1.0)])
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda v: log10(v * (1 + shift)))
    exponent = [max(j for j in range(-5, 2) if Fraction(v) >= Fraction(10) ** j) for v in near.tolist()]
    assert (np.floor(np.log10(near)) != exponent).sum() >= 5
    assert_same_as_repr(near)


@pytest.mark.parametrize(
    "value, text",
    [
        (1 + 2.0**-17, "1.0000076293945312"),  # 1.00000762939453125: 17 digits, ...12|5
        (8 + 2.0**-16, "8.000015258789062"),  # 8.0000152587890625: 16 digits, ...062|5
    ],
)
def test_a_tie_goes_to_the_even_digit(value, text):
    """Both nearest candidates lie inside the rounding interval, at the same
    distance: ``repr`` keeps the even last digit."""
    assert Fraction(value) == Fraction(text) + Fraction(5, 10 ** (len(text) - 1))
    assert repr(value) == text
    assert_same_as_repr([value])


def test_no_candidate_rounds_up_to_a_power_of_ten():
    """A candidate carries to 10**d only if a power of ten lies in the
    rounding interval of a smaller double. The double nearest each power of
    ten from 1e-3 to 10 is at or above it, so none does, and the doubles
    just below each power format as 0.0999..., 0.999... and 9.999..."""
    for j in range(-3, 2):
        assert Fraction(float(f"1e{j}")) >= Fraction(10) ** j
    below = np.nextafter([1e-3, 1e-2, 1e-1, 1.0, 10.0], 0.0)
    assert all("99999" in t for t in map(repr, below.tolist()))
    assert_same_as_repr(below)


def test_no_value_depends_on_an_interval_endpoint():
    """An interval end is an odd multiple of a half ulp, at least 2**-50 in
    [1e-4, 10), so its exact decimal has 50 digits or more after the point;
    a candidate of at most 17 significant digits has at most 21. So no
    candidate lies on an end, and whether the ends belong to the interval
    (they do when the mantissa is even) never decides."""
    assert np.spacing(np.nextafter(10.0, 0.0)) == 2.0**-49


def test_powers_of_two_are_exact_with_at_most_15_digits():
    """Below a power of two the interval is half as wide. Each power of two
    in [1e-4, 10) has at most 15 significant digits, so its 15-digit floor
    is the value itself and the narrower side never decides."""
    powers = 2.0 ** np.arange(-13, 4)
    assert powers.size == 17 and powers[0] >= 1e-4 and powers[-1] < 10
    for p in powers.tolist():
        assert len(repr(p).replace(".", "").strip("0")) <= 15
        assert Fraction(repr(p)) == Fraction(p)
    assert_same_as_repr(powers)
