import numpy as np
import pytest

import tvcox as tv


@pytest.fixture
def d0():
    """Three-subject desk dataset: hand-traceable closed forms.

    Subjects (T, delta, x) = (1,1,1), (2,1,0), (3,0,1), one stratum, K=1
    constant basis.  At theta=0: ll = -log 6, grad = -1/6, hess = -17/36;
    the maximizer is -log(2)/2.
    """
    ds = tv.SurvivalDataset(
        time=np.array([1.0, 2.0, 3.0]),
        status=np.array([1, 1, 0]),
        stratum=np.zeros(3, dtype=np.int64),
        stratum_labels=("s1",),
        covariates=np.array([[1.0], [0.0], [1.0]]),
        covariate_names=("x1",),
    )
    spec = tv.SplineSpec(degree=0, interior=np.array([]), domain=(0.0, 3.0))
    return ds, spec


def make_instance(seed, n=80, P=2, K=3, J=2, degree=2, tie_fraction=0.3):
    """Random survival instance with heavy ties and its basis/index bundle."""
    rng = np.random.default_rng(seed)
    time = rng.exponential(1.0, n)
    # collapse a fraction of times onto a coarse lattice to force ties
    lattice = np.round(time * 4) / 4 + 0.125
    pick = rng.random(n) < tie_fraction
    time = np.where(pick, lattice, time)
    status = (rng.random(n) < 0.65).astype(np.int8)
    if status.sum() == 0:
        status[0] = 1
    X = rng.standard_normal((n, P))
    ds = tv.SurvivalDataset(
        time=time, status=status,
        stratum=rng.integers(0, J, n),
        stratum_labels=tuple(f"s{j}" for j in range(J)),
        covariates=X,
        covariate_names=tuple(f"x{p}" for p in range(P)),
    )
    spec = tv.make_spec(degree=degree, K=K, event_times=ds.event_times)
    basis = tv.evaluate_batch(spec, ds.time)
    index = tv.build_risk_index(ds)
    return ds, spec, basis, index


@pytest.fixture
def instance_factory():
    return make_instance


def count_risk_indexes(monkeypatch):
    """A list that grows by one on every ``RiskIndex`` construction."""
    built = []
    real = tv.RiskIndex.__init__

    def counted(self, dataset):
        built.append(dataset.n)
        real(self, dataset)
    monkeypatch.setattr(tv.RiskIndex, "__init__", counted)
    return built


def covariate_buffers(fitting_data):
    """The arrays that own the memory of every covariate array a fit's data holds.

    Every array held by the ``(data, index, basis)`` of a fit, or by the
    index's strata, is followed to the array that owns its memory; the
    owners with the index's P columns and at least its rows are returned,
    each once.
    """
    data, index, basis = fitting_data
    rows, P = index.Xs.shape
    owners = {}
    for obj in (data, index, basis, *index.strata):
        fields = vars(obj).values() if hasattr(obj, "__dict__") else \
            [getattr(obj, name) for name in obj.__slots__]
        for a in fields:
            if not isinstance(a, np.ndarray):
                continue
            while isinstance(a.base, np.ndarray):
                a = a.base
            if a.ndim == 2 and a.shape[1] == P and a.shape[0] >= rows:
                owners[id(a)] = a
    return list(owners.values())
