"""Unit tests for the shared numeric helpers."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from edgeprovision.errors import BracketError, ModelDomainError
from edgeprovision.numerics import (
    EmpiricalCdf,
    RngStream,
    bisect_root,
    exponential_variate,
)


# ---------------------------------------------------------------------------
# bisect_root
# ---------------------------------------------------------------------------


def test_bisect_linear_root():
    root = bisect_root(lambda x: x - 2.0, 0.0, 10.0, tol=1e-12)
    assert root == pytest.approx(2.0, abs=1e-12)


def test_bisect_transcendental_root():
    # root of u*atan(u) = 0.916291, frozen from a 40-digit evaluation
    f = lambda u: u * math.atan(u) - 0.916291
    root = bisect_root(f, 0.0, 10.0, tol=1e-12)
    assert root == pytest.approx(1.1000087220848962, abs=1e-9)


def test_bisect_exact_endpoint_root():
    assert bisect_root(lambda x: x, 0.0, 1.0, tol=1e-12) == 0.0
    assert bisect_root(lambda x: x - 1.0, 0.0, 1.0, tol=1e-12) == 1.0


def test_bisect_rejects_unbracketed():
    with pytest.raises(BracketError):
        bisect_root(lambda x: x + 5.0, 0.0, 1.0, tol=1e-6)


def test_bisect_iteration_bound():
    calls = 0

    def f(x):
        nonlocal calls
        calls += 1
        return x - math.pi

    tol = 1e-10
    bisect_root(f, 0.0, 8.0, tol=tol)
    # two endpoint evaluations plus at most ceil(log2(span/tol)) + 2 midpoints
    assert calls <= 2 + math.ceil(math.log2(8.0 / tol)) + 2


@pytest.mark.parametrize(
    "lo, hi, tol", [(0.0, 1e300, 1e-10), (-1e308, 1e308, 1.0)], ids=["ratio", "width"]
)
def test_bisect_bound_does_not_overflow(lo, hi, tol):
    # (hi - lo) / tol overflows in the first case, hi - lo in the second
    assert bisect_root(lambda x: x - 1.0, lo, hi, tol=tol) == pytest.approx(1.0, abs=tol)


@pytest.mark.parametrize("lo, hi", [(-math.inf, 1.0), (0.0, math.inf), (0.0, math.nan)])
def test_bisect_rejects_non_finite_bounds(lo, hi):
    with pytest.raises(ModelDomainError, match="need finite lo and hi"):
        bisect_root(lambda x: x, lo, hi, tol=1e-6)


def test_bisect_interval_shrinks_to_tol():
    root = bisect_root(lambda x: math.cos(x), 0.0, 3.0, tol=1e-11)
    assert abs(root - math.pi / 2) <= 1e-10


# ---------------------------------------------------------------------------
# EmpiricalCdf
# ---------------------------------------------------------------------------


def test_empirical_cdf_step_values():
    ecdf = EmpiricalCdf.from_samples([3.0, 1.0, 2.0])
    assert ecdf.count == 3
    assert ecdf.evaluate(0.5) == 0.0
    assert ecdf.evaluate(1.0) == pytest.approx(1 / 3)
    assert ecdf.evaluate(2.5) == pytest.approx(2 / 3)
    assert ecdf.evaluate(3.0) == 1.0
    np.testing.assert_allclose(
        ecdf.evaluate(np.array([0.0, 1.5, 10.0])), [0.0, 1 / 3, 1.0]
    )


def test_empirical_cdf_rejects_nan():
    ecdf = EmpiricalCdf.from_samples([3.0, 1.0, 2.0])
    with pytest.raises(ModelDomainError, match=r"^x must not be NaN \(got nan\)$"):
        ecdf.evaluate(math.nan)
    with pytest.raises(ModelDomainError, match="x must not be NaN"):
        ecdf.evaluate(np.array([0.0, math.nan]))


def test_empirical_cdf_rejects_bad_input():
    with pytest.raises(ModelDomainError):
        EmpiricalCdf(np.array([2.0, 1.0]))  # unsorted
    with pytest.raises(ModelDomainError):
        EmpiricalCdf(np.array([]))
    with pytest.raises(ModelDomainError):
        EmpiricalCdf(np.array([0.0, math.nan]))


def test_empirical_cdf_equality():
    a = EmpiricalCdf.from_samples([1.0, 2.0])
    b = EmpiricalCdf.from_samples([2.0, 1.0])
    c = EmpiricalCdf.from_samples([1.0, 3.0])
    assert a == b
    assert a != c


# ---------------------------------------------------------------------------
# exponential sampling helpers
# ---------------------------------------------------------------------------


def test_exponential_variate_fixed_points():
    fixed = np.array([0.0, 1.0 - math.exp(-1.0), 0.5])
    stream = SimpleNamespace(uniform=lambda size: fixed[:size])
    x = exponential_variate(stream, 3)
    assert x[0] == 0.0
    assert x[1] == pytest.approx(1.0, rel=1e-12)
    assert x[2] == pytest.approx(math.log(2.0), rel=1e-12)


def test_exponential_variate_moments():
    stream = RngStream(11, 0)
    x = exponential_variate(stream, 1_000_000)
    # mean of n unit exponentials has sd 1/sqrt(n); 4 sigma = 0.004
    assert abs(float(np.mean(x)) - 1.0) < 0.004
    assert float(np.min(x)) >= 0.0


# ---------------------------------------------------------------------------
# RngStream
# ---------------------------------------------------------------------------


def test_stream_determinism():
    a = RngStream(123, 7).uniform(5)
    b = RngStream(123, 7).uniform(5)
    np.testing.assert_array_equal(a, b)


def test_stream_independence_across_ids():
    a = RngStream(123, 0).uniform(5)
    b = RngStream(123, 1).uniform(5)
    assert not np.array_equal(a, b)


def test_stream_independence_across_seeds():
    a = RngStream(123, 0).uniform(5)
    b = RngStream(124, 0).uniform(5)
    assert not np.array_equal(a, b)


def test_stream_poisson_returns_int():
    v = RngStream(5, 0).poisson(4.0)
    assert isinstance(v, int)
    assert v >= 0


def test_stream_integers_respects_array_bounds():
    highs = np.array([1, 2, 5, 100])
    draws = RngStream(9, 3).integers(0, highs, size=4)
    assert np.all(draws >= 0)
    assert np.all(draws < highs)


@pytest.mark.parametrize("key", [-1, 2**64, 2**64 + 3, 2.5, True])
def test_stream_rejects_key_outside_one_uint64_word(key):
    # reduced modulo 2**64, -1 would replay 2**64 - 1 and 2**64 + 3 replay 3
    with pytest.raises(ModelDomainError):
        RngStream(key, 0)
    with pytest.raises(ModelDomainError):
        RngStream(0, key)


@pytest.mark.parametrize(
    "seed, stream_id, first_two",
    [
        (0, 0, [0.011546754286331562, 0.24154919656271812]),
        (2**64 - 1, 0, [0.23494158814525556, 0.7173107484541781]),
        (0, 2**64 - 1, [0.44858458875223994, 0.8035864253312377]),
        (np.uint64(2**64 - 1), np.uint64(5), [0.05541565898515444, 0.5121345734389258]),
    ],
)
def test_stream_accepts_every_uint64_key_with_unchanged_draws(seed, stream_id, first_two):
    stream = RngStream(seed, stream_id)
    assert stream.uniform(2).tolist() == first_two
    assert (stream.master_seed, stream.stream_id) == (int(seed), int(stream_id))
    assert type(stream.master_seed) is int


def test_stream_repr_names_its_key():
    stream = RngStream(np.uint64(2**64 - 1), 5)
    assert repr(stream) == "RngStream(master_seed=18446744073709551615, stream_id=5)"


@pytest.mark.parametrize("seed, stream_id", [(123, 7), (0, 0), (2**64 - 1, 2**64 - 1)])
def test_substream_is_fixed_by_the_key_and_leaves_the_stream_unchanged(seed, stream_id):
    # the substream is Philox on the stream's key with the counter's top
    # word at 1, whatever the stream has drawn before
    want = np.random.Generator(
        np.random.Philox(key=np.array([seed, stream_id], dtype=np.uint64), counter=[0, 0, 0, 1])
    ).random(6)
    stream, fresh = RngStream(seed, stream_id), RngStream(seed, stream_id)
    assert np.array_equal(stream.substream().uniform(6), want)
    head = stream.uniform(3)
    sub = stream.substream()
    assert np.array_equal(sub.uniform(6), want)
    sub.normal(50)
    sub.integers(0, 9, size=5)
    # making and drawing from it leave the stream's own draws as they are
    assert np.array_equal(np.concatenate([head, stream.uniform(5)]), fresh.uniform(8))
    assert not np.isin(want, RngStream(seed, stream_id).uniform(1000)).any()


def test_substreams_of_other_keys_differ():
    a = RngStream(123, 7).substream().uniform(5)
    assert not np.array_equal(a, RngStream(123, 8).substream().uniform(5))
    assert not np.array_equal(a, RngStream(124, 7).substream().uniform(5))


def _philox_at(seed, stream_id, part):
    """A fresh generator on the key ``(seed, stream_id)`` with its counter at
    the start of part ``part``."""
    key = np.array([seed, stream_id], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=[0, 0, 0, part]))


@pytest.mark.parametrize("part", [0, 1, 2, 5])
@pytest.mark.parametrize("drawn", ["nothing", "poisson", "partial_buffer", "uint32"])
def test_seek_starts_the_part_whatever_the_stream_drew(drawn, part):
    # Philox draws 64-bit words four to a block and may keep half a word for
    # a 32-bit draw; seek drops both, so the stream draws what a fresh
    # Philox at counter (0, 0, 0, part) draws
    stream = RngStream(123, 7)
    if drawn == "poisson":
        stream.poisson(4.0)
    elif drawn == "partial_buffer":
        stream.uniform(1)
    elif drawn == "uint32":
        stream.integers(0, 5)
        assert stream._gen.bit_generator.state["has_uint32"] == 1
    stream.seek(part)
    want = _philox_at(123, 7, part)
    assert stream.uniform(3).tolist() == want.random(3).tolist()
    assert stream.integers(0, 5, size=3).tolist() == want.integers(0, 5, size=3).tolist()
    assert stream.normal(3).tolist() == want.standard_normal(3).tolist()
    assert stream.poisson(4.0) == int(want.poisson(4.0))


def test_seek_to_part_one_draws_the_substream():
    stream = RngStream(2**64 - 1, 3)
    want = stream.substream().uniform(4)
    stream.normal(7)
    stream.seek(1)
    assert np.array_equal(stream.uniform(4), want)

