import math

import numpy as np
import pytest

from tvcox import (
    BasisMatrix,
    InvalidSpecError,
    KnotCollisionError,
    SplineSpec,
    evaluate,
    evaluate_batch,
    make_spec,
)


def test_degree_zero_is_right_continuous_indicator():
    spec = SplineSpec(degree=0, interior=np.array([1.0, 2.0]), domain=(0.0, 3.0))
    assert spec.K == 3
    B = evaluate_batch(spec, np.array([0.5, 1.0, 1.5, 2.0, 2.5])).values
    expect = np.array([
        [1, 0, 0],
        [0, 1, 0],  # right-continuous: t=1 belongs to [1,2)
        [0, 1, 0],
        [0, 0, 1],
        [0, 0, 1],
    ], dtype=float)
    np.testing.assert_allclose(B, expect)


def test_right_boundary_belongs_to_last_piece():
    spec = SplineSpec(degree=0, interior=np.array([1.0, 2.0]), domain=(0.0, 3.0))
    np.testing.assert_allclose(evaluate(spec, 3.0), [0, 0, 1])


def test_hat_function_midpoint_values():
    # degree 1 with one interior knot at 1 on [0,2]: B(0.5) = (0.5, 0.5, 0)
    spec = SplineSpec(degree=1, interior=np.array([1.0]), domain=(0.0, 2.0))
    np.testing.assert_allclose(evaluate(spec, 0.5), [0.5, 0.5, 0.0], atol=1e-15)
    np.testing.assert_allclose(evaluate(spec, 1.0), [0.0, 1.0, 0.0], atol=1e-15)


def test_no_interior_knots_gives_bernstein_polynomials():
    d = 3
    spec = SplineSpec(degree=d, interior=np.array([]), domain=(0.0, 1.0))
    t = np.linspace(0, 1, 17)
    B = evaluate_batch(spec, t).values
    for k in range(d + 1):
        bern = math.comb(d, k) * t**k * (1 - t) ** (d - k)
        np.testing.assert_allclose(B[:, k], bern, atol=1e-13)


def test_partition_of_unity_and_nonnegativity():
    spec = make_spec(degree=3, K=7, event_times=np.linspace(0.05, 2.9, 40))
    t = np.linspace(0.0, spec.domain[1], 301)
    B = evaluate_batch(spec, t).values
    assert B.min() >= 0
    np.testing.assert_allclose(B.sum(axis=1), 1.0, atol=1e-12)


def test_clamping_outside_domain():
    spec = make_spec(degree=2, K=5, event_times=np.linspace(0.1, 2.0, 30))
    left = evaluate(spec, -4.0)
    right = evaluate(spec, 99.0)
    np.testing.assert_allclose(left, evaluate(spec, 0.0), atol=1e-15)
    np.testing.assert_allclose(right, evaluate(spec, spec.domain[1]), atol=1e-15)
    assert left[0] == pytest.approx(1.0)
    assert right[-1] == pytest.approx(1.0)


def test_make_spec_places_quantile_knots():
    events = np.array([0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0])
    spec = make_spec(degree=1, K=4, event_times=events)
    # two interior knots at the 1/3 and 2/3 quantiles of distinct event times
    np.testing.assert_allclose(spec.interior, np.quantile(events, [1 / 3, 2 / 3]))
    assert spec.domain == (0.0, 4.0)
    assert spec.K == 4


def test_make_spec_counts_duplicate_events_once():
    events = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 3.0])
    spec = make_spec(degree=1, K=3, event_times=events)
    np.testing.assert_allclose(spec.interior, [2.0])


def test_make_spec_rejects_k_below_minimum():
    with pytest.raises(InvalidSpecError):
        make_spec(degree=3, K=3, event_times=np.linspace(0.1, 2, 20))


@pytest.mark.parametrize("event_times, message", [
    (np.array([]), "event_times must be non-empty"),
    (np.zeros(5), "event times must have positive spread above 0"),
])
def test_make_spec_rejects_times_without_spread(event_times, message):
    with pytest.raises(InvalidSpecError, match=message):
        make_spec(degree=1, K=2, event_times=event_times)


def test_make_spec_rejects_too_few_distinct_events():
    with pytest.raises(KnotCollisionError):
        make_spec(degree=1, K=5, event_times=np.array([1.0, 1.0, 2.0]))


def test_spec_validation_errors():
    with pytest.raises(InvalidSpecError):
        SplineSpec(degree=-1, interior=np.array([]), domain=(0.0, 1.0))
    with pytest.raises(InvalidSpecError):
        SplineSpec(degree=1, interior=np.array([]), domain=(1.0, 1.0))
    with pytest.raises(KnotCollisionError):
        SplineSpec(degree=1, interior=np.array([0.5, 0.5]), domain=(0.0, 1.0))
    with pytest.raises(KnotCollisionError):
        SplineSpec(degree=1, interior=np.array([0.0]), domain=(0.0, 1.0))


def test_spec_serialization_round_trip():
    spec = make_spec(degree=3, K=6, event_times=np.linspace(0.2, 2.5, 25))
    back = SplineSpec.from_dict(spec.to_dict())
    assert back == spec


def test_evaluate_matches_batch():
    spec = make_spec(degree=2, K=5, event_times=np.linspace(0.1, 2.9, 30))
    ts = np.array([0.0, 0.7, 1.3, 2.9])
    batch = evaluate_batch(spec, ts)
    assert isinstance(batch, BasisMatrix)
    for i, t in enumerate(ts):
        np.testing.assert_allclose(evaluate(spec, t), batch.values[i])


def test_local_support_width():
    # a degree-d B-spline is nonzero on at most d+1 knot spans
    spec = make_spec(degree=3, K=8, event_times=np.linspace(0.05, 2.95, 60))
    t = np.linspace(0, spec.domain[1], 400)
    B = evaluate_batch(spec, t).values
    assert ((B > 1e-12).sum(axis=1) <= spec.degree + 1).all()


def test_no_times_give_an_empty_matrix():
    spec = make_spec(degree=3, K=6, event_times=np.linspace(0.1, 2.9, 30))
    B = evaluate_batch(spec, []).values
    assert B.shape == (0, 6)


def test_nan_time_is_invalid():
    spec = make_spec(degree=3, K=6, event_times=np.linspace(0.1, 2.9, 30))
    with pytest.raises(InvalidSpecError, match="NaN"):
        evaluate_batch(spec, [0.5, math.nan])


def test_two_dimensional_times_are_invalid():
    spec = make_spec(degree=3, K=6, event_times=np.linspace(0.1, 2.9, 30))
    with pytest.raises(InvalidSpecError, match="one-dimensional"):
        evaluate_batch(spec, np.full((2, 3), 0.5))


def test_infinite_times_clamp_to_the_end_rows():
    spec = make_spec(degree=3, K=6, event_times=np.linspace(0.1, 2.9, 30))
    B = evaluate_batch(spec, [-math.inf, math.inf]).values
    ends = evaluate_batch(spec, list(spec.domain)).values
    assert np.array_equal(B, ends)


@pytest.mark.parametrize("degree", range(5))
def test_rows_match_scipy_design_matrix(degree):
    interpolate = pytest.importorskip("scipy.interpolate")
    rng = np.random.default_rng(40 + degree)
    for n_interior in range(8):
        interior = np.sort(rng.uniform(0.1, 2.9, n_interior))
        spec = SplineSpec(degree=degree, interior=interior, domain=(0.0, 3.0))
        t = np.concatenate([np.linspace(0.0, 3.0, 2001), spec.knots, [0.0, 3.0]])
        want = interpolate.BSpline.design_matrix(t, spec.knots, degree,
                                                 extrapolate=False).toarray()
        np.testing.assert_allclose(evaluate_batch(spec, t).values, want, rtol=0, atol=1e-14)
