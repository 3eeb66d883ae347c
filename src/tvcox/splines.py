"""B-spline basis for time-varying coefficient curves.

The basis is an open (clamped) B-spline family of a given degree on
``[0, max event time]``.  With ``K`` basis functions and degree ``d`` there
are ``K - d - 1`` interior knots, placed at empirical quantiles of the
distinct event times so each basis function sees a comparable share of the
events.  Evaluation outside the domain clamps to the nearest endpoint, so
late censoring times reuse the boundary basis values.

Values come from the Cox–de Boor recursion, run for all times at once.
Each time falls in one knot interval ``[knots[i], knots[i+1])``, with ``i``
clipped to ``[degree, K-1]``: the basis is right-continuous at interior
knots, and the right end of the domain belongs to the last interval.  Only
the ``degree + 1`` functions ``i - degree .. i`` are non-zero there.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidSpecError, KnotCollisionError

__all__ = ["SplineSpec", "BasisMatrix", "make_spec", "evaluate", "evaluate_batch"]


@dataclass(frozen=True, eq=False)
class SplineSpec:
    """Degree, interior knots and domain of a clamped B-spline basis.

    Attributes
    ----------
    degree : int
        Polynomial degree, >= 0.  Default elsewhere in the package is cubic.
    interior : ndarray
        Strictly increasing interior knots, all inside the open domain.
    domain : tuple of float
        Closed evaluation interval ``(t_min, t_max)``.
    """

    degree: int
    interior: np.ndarray
    domain: tuple[float, float]

    def __post_init__(self):
        interior = np.asarray(self.interior, dtype=float)
        object.__setattr__(self, "interior", interior)
        lo, hi = self.domain
        if self.degree < 0:
            raise InvalidSpecError(f"degree must be >= 0, got {self.degree}")
        if not hi > lo:
            raise InvalidSpecError(f"empty domain [{lo}, {hi}]")
        if interior.size:
            if np.any(np.diff(interior) <= 0):
                raise KnotCollisionError("interior knots must be strictly increasing")
            if interior[0] <= lo or interior[-1] >= hi:
                raise KnotCollisionError("interior knots must lie strictly inside the domain")

    @property
    def K(self) -> int:
        """Number of basis functions: #interior + degree + 1."""
        return self.interior.size + self.degree + 1

    @property
    def knots(self) -> np.ndarray:
        """Full clamped knot vector with degree+1 copies of each endpoint."""
        lo, hi = self.domain
        return np.concatenate([
            np.full(self.degree + 1, lo), self.interior, np.full(self.degree + 1, hi),
        ])

    def __eq__(self, other):
        if not isinstance(other, SplineSpec):
            return NotImplemented
        return (self.degree == other.degree
                and tuple(self.domain) == tuple(other.domain)
                and np.array_equal(self.interior, other.interior))

    def __hash__(self):
        return hash((self.degree, tuple(self.domain), tuple(self.interior)))

    def to_dict(self) -> dict:
        return {
            "degree": self.degree,
            "interior": [float(v) for v in self.interior],
            "domain": [float(self.domain[0]), float(self.domain[1])],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SplineSpec":
        return cls(int(d["degree"]), np.asarray(d["interior"], dtype=float),
                   (float(d["domain"][0]), float(d["domain"][1])))


@dataclass(frozen=True)
class BasisMatrix:
    """Basis values at a batch of times; row i is B(times[i])."""

    times: np.ndarray
    values: np.ndarray  # shape (len(times), K)

    def __post_init__(self):
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))


def make_spec(degree: int, K: int, event_times) -> SplineSpec:
    """Build a spec with quantile-placed interior knots.

    The ``j / (K - degree)`` empirical quantiles of the *distinct* event
    times, ``j = 1 .. K - degree - 1``, become the interior knots.  The
    domain is ``[0, max(event_times)]``.

    Raises
    ------
    InvalidSpecError
        If ``K < degree + 1`` or the event times have no positive spread.
    KnotCollisionError
        If there are fewer distinct event times than interior knots, or the
        quantiles fail to be strictly increasing inside the domain.
    """
    times = np.asarray(event_times, dtype=float)
    if times.size == 0:
        raise InvalidSpecError("event_times must be non-empty")
    if K < degree + 1:
        raise InvalidSpecError(f"K={K} is below the minimum degree+1={degree + 1}")
    hi = float(times.max())
    if not hi > 0.0:
        raise InvalidSpecError("event times must have positive spread above 0")
    n_interior = K - degree - 1
    distinct = np.unique(times)
    if distinct.size < n_interior:
        raise KnotCollisionError(
            f"{distinct.size} distinct event times cannot support {n_interior} interior knots")
    if n_interior > 0:
        levels = np.arange(1, n_interior + 1) / (K - degree)
        interior = np.quantile(distinct, levels)
    else:
        interior = np.empty(0)
    return SplineSpec(degree=degree, interior=interior, domain=(0.0, hi))


def evaluate(spec: SplineSpec, t: float) -> np.ndarray:
    """Basis vector B(t), clamped to the domain; sums to 1."""
    return evaluate_batch(spec, np.array([float(t)])).values[0]


def evaluate_batch(spec: SplineSpec, times) -> BasisMatrix:
    """Evaluate the basis at many times at once.

    Times outside the domain, infinite ones included, are clamped to the
    nearest endpoint before evaluation, so every row is a valid
    partition-of-unity basis vector.  No times give a 0 x K matrix.

    Raises
    ------
    InvalidSpecError
        If ``times`` is not one-dimensional or holds a NaN.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise InvalidSpecError("times must be one-dimensional")
    if np.isnan(times).any():
        raise InvalidSpecError("times must not be NaN")
    lo, hi = spec.domain
    t = np.clip(times, lo, hi)
    knots, d = spec.knots, spec.degree
    i = np.clip(np.searchsorted(knots, t, side="right") - 1, d, spec.K - 1)
    r = np.arange(d)[:, None]
    left = t - knots[i - r]         # row r: t - knots[i - r]
    right = knots[i + 1 + r] - t    # row r: knots[i + 1 + r] - t
    # after step j, row r of N holds function i - j + r of degree j: each
    # degree-(j-1) value is split between the two degree-j functions it feeds
    N = np.zeros((d + 1, t.size))
    N[0] = 1.0
    for j in range(1, d + 1):
        back = left[j - 1::-1]
        share = N[:j] / (right[:j] + back)
        N[:j] = right[:j] * share
        N[1:j + 1] += back * share
    values = np.zeros((t.size, spec.K))
    values[np.arange(t.size)[:, None], i[:, None] - d + np.arange(d + 1)] = N.T
    return BasisMatrix(times=times, values=values)
