"""Shared numerical utilities: deterministic counter-based random streams,
the stream-key rule, exponential variates, the empirical CDF, and a
bracketed bisection root finder.

The random-stream contract is the backbone of reproducible parallel Monte
Carlo: a stream is keyed by ``(master_seed, stream_id)`` and always yields
the same variate sequence for the same key, so trial ``i`` can consume
stream ``i`` regardless of which worker executes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .analytic import _as_index, _require_finite
from .errors import BracketError, ModelDomainError


class RngStream:
    """Deterministic random stream keyed by ``(master_seed, stream_id)``.

    Backed by the counter-based Philox generator, so identical keys give
    bit-identical sequences across runs and platforms, and distinct
    stream ids give statistically independent streams. Both key words must
    be integers in [0, 2**64): outside it a key would wrap onto another stream.
    """

    def __init__(self, master_seed: int, stream_id: int):
        seed, sid = _as_index(master_seed, 0, 2**64), _as_index(stream_id, 0, 2**64)
        if seed is None or sid is None:
            raise ModelDomainError(
                "master_seed and stream_id must be integers in [0, 2**64) "
                f"(got {master_seed!r}, {stream_id!r})"
            )
        self.master_seed, self.stream_id = seed, sid
        key = np.array([seed, sid], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def uniform(self, size=None):
        """Uniform draws on [0, 1)."""
        return self._gen.random(size)

    def poisson(self, mean: float) -> int:
        return int(self._gen.poisson(mean))

    def integers(self, low, high, size=None):
        """Integer draws on [low, high); accepts array bounds."""
        return self._gen.integers(low, high, size=size)

    def normal(self, size=None):
        return self._gen.standard_normal(size)

    def __repr__(self) -> str:
        return f"RngStream(master_seed={self.master_seed}, stream_id={self.stream_id})"


def bisect_root(
    f: Callable[[float], float], lo: float, hi: float, tol: float
) -> float:
    """Find a root of monotone ``f`` on [lo, hi] by bracketed bisection.

    Returns the bracket midpoint once the bracket width is <= tol. Raises
    BracketError when f(lo) and f(hi) have the same (nonzero) sign, and
    ModelDomainError unless tol > 0 and lo < hi are finite. Never exceeds
    ceil(log2((hi-lo)/tol)) + 2 iterations; that bound is taken without
    forming hi - lo or its ratio to tol, either of which can overflow.
    """
    _require_finite("tol", tol)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ModelDomainError(f"need finite lo and hi (got {lo!r}, {hi!r})")
    if not (lo < hi):
        raise ModelDomainError(f"need lo < hi (got {lo!r}, {hi!r})")
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0) == (fhi > 0):
        raise BracketError(
            f"f({lo!r})={flo!r} and f({hi!r})={fhi!r} do not bracket a root"
        )
    width = hi - lo
    log_width = math.log2(width) if math.isfinite(width) else math.log2(0.5 * hi - 0.5 * lo) + 1.0
    max_iter = math.ceil(max(log_width - math.log2(tol), 0.0)) + 2
    for _ in range(max_iter):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def exponential_variate(stream: RngStream, size: int) -> np.ndarray:
    """``size`` unit-mean exponential draws (Rayleigh fade power gains) from
    ``stream``, by inverse CDF -ln(1 - u): unlike rejection, it takes a fixed
    count of uniforms per variate, which keeps counter-based streams
    reproducible."""
    return -np.log1p(-stream.uniform(size))


@dataclass(frozen=True, eq=False)
class EmpiricalCdf:
    """Empirical CDF over a sorted sample; evaluation at x is (#samples <= x)/count."""

    sorted_samples: np.ndarray
    count: int = field(init=False)

    def __eq__(self, other):
        if not isinstance(other, EmpiricalCdf):
            return NotImplemented
        return self.count == other.count and bool(
            np.array_equal(self.sorted_samples, other.sorted_samples)
        )

    def __post_init__(self):
        samples = np.asarray(self.sorted_samples, dtype=float)
        if samples.ndim != 1 or samples.size == 0:
            raise ModelDomainError("need a non-empty 1-D sample")
        if np.any(np.isnan(samples)):
            raise ModelDomainError("samples must not contain NaN")
        if np.any(samples[1:] < samples[:-1]):
            raise ModelDomainError("samples must be sorted ascending")
        object.__setattr__(self, "sorted_samples", samples)
        object.__setattr__(self, "count", int(samples.size))

    @classmethod
    def from_samples(cls, samples) -> "EmpiricalCdf":
        return cls(np.sort(np.asarray(samples, dtype=float)))

    def evaluate(self, x):
        """CDF value(s) at x; accepts scalars or arrays. Raises
        ModelDomainError where x is NaN, at which no CDF has a value."""
        if np.isnan(x).any():
            raise ModelDomainError(f"x must not be NaN (got {x!r})")
        idx = np.searchsorted(self.sorted_samples, x, side="right")
        out = idx / self.count
        return float(out) if np.ndim(x) == 0 else out

