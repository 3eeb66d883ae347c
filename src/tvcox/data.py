"""Survival data containers, CSV IO and the risk index.

The risk index is the piece every likelihood evaluation leans on.  It is
one set of flat arrays over all strata, in one order: by stratum, then by
descending observed time, ties broken by original row index, so within a
stratum the risk set of any event time is a contiguous prefix of the
stratum's rows.  Events sharing a stratum and a tied time share one
denominator, so they are grouped by distinct event time, and the event
times' arrays run over the strata in the same order.  A stratum is a set
of slices of these arrays, with the same names and local meanings, and a
subsample's index is one filter of the full index's order.
"""

from __future__ import annotations

import csv
import io
import warnings
from dataclasses import dataclass
from itertools import pairwise

import numpy as np

from .errors import (
    DegenerateCovariateError,
    DomainError,
    ParseError,
    SchemaError,
)

__all__ = [
    "SurvivalDataset",
    "RiskIndex",
    "StandardizationTransform",
    "load_csv",
    "write_csv",
    "build_risk_index",
    "standardize",
]

_MANDATORY = ("time", "status", "stratum")


@dataclass(frozen=True)
class SurvivalDataset:
    """Right-censored survival data with stratum labels and covariates.

    Attributes
    ----------
    time : ndarray of float, shape (n,)
        Observed times, finite and >= 0.
    status : ndarray of int, shape (n,)
        1 for an event, 0 for censoring.
    stratum : ndarray of int, shape (n,)
        Stratum codes, 0 .. J-1.
    stratum_labels : tuple of str
        Original stratum tokens, indexed by code.
    covariates : ndarray of float, shape (n, P)
    covariate_names : tuple of str
    """

    time: np.ndarray
    status: np.ndarray
    stratum: np.ndarray
    stratum_labels: tuple
    covariates: np.ndarray
    covariate_names: tuple

    def __post_init__(self):
        time = np.ascontiguousarray(self.time, dtype=float)
        status = np.ascontiguousarray(self.status, dtype=np.int64)
        stratum = np.ascontiguousarray(self.stratum, dtype=np.int64)
        X = np.ascontiguousarray(self.covariates, dtype=float)
        n = time.shape[0]
        if status.shape != (n,) or stratum.shape != (n,):
            raise DomainError("time, status and stratum must have equal length")
        if X.ndim != 2 or X.shape[0] != n:
            raise DomainError("covariate matrix must have one row per subject")
        if X.shape[1] != len(self.covariate_names):
            raise DomainError("covariate_names must match the covariate column count")
        if n == 0:
            raise DomainError("dataset is empty")
        if not np.all(np.isfinite(time)) or np.any(time < 0):
            raise DomainError("all times must be finite and >= 0")
        if not np.all((status == 0) | (status == 1)):
            raise DomainError("status must be 0 or 1")
        if not np.all(np.isfinite(X)):
            raise DomainError("covariates contain non-finite values")
        if status.sum() == 0:
            raise DomainError("dataset contains no events")
        if stratum.min() < 0 or stratum.max() >= len(self.stratum_labels):
            raise DomainError("stratum codes must index stratum_labels")
        for a in (time, status, stratum, X):
            a.flags.writeable = False
        object.__setattr__(self, "time", time)
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "stratum", stratum)
        object.__setattr__(self, "covariates", X)
        object.__setattr__(self, "stratum_labels", tuple(self.stratum_labels))
        object.__setattr__(self, "covariate_names", tuple(self.covariate_names))
        events = np.bincount(stratum, weights=status, minlength=len(self.stratum_labels))
        empty = [self.stratum_labels[j] for j in np.flatnonzero(events == 0)]
        if empty:
            warnings.warn(
                f"strata with zero events contribute nothing: {', '.join(map(str, empty))}",
                stacklevel=2)

    @property
    def n(self) -> int:
        return self.time.shape[0]

    @property
    def P(self) -> int:
        return self.covariates.shape[1]

    @property
    def J(self) -> int:
        return len(self.stratum_labels)

    @property
    def event_times(self) -> np.ndarray:
        return self.time[self.status == 1]

    def subset(self, rows) -> "SurvivalDataset":
        """Row subset keeping stratum codes and covariate names."""
        rows = np.asarray(rows)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return SurvivalDataset(
                self.time[rows], self.status[rows], self.stratum[rows],
                self.stratum_labels, self.covariates[rows], self.covariate_names)


class _Stratum:
    """One stratum's slices of a ``RiskIndex``'s flat arrays.

    The same names with the same meanings, local to the stratum: ``order``
    sorts its rows by descending time (ties by row index), so the risk set
    at distinct event time ``dt[g]`` is ``order[:L[g]]`` and ``L`` ascends.
    ``d[g]`` events share that denominator; their original rows are
    ``event_rows[event_starts[g]:event_starts[g+1]]`` and ``SX[g]`` is the
    sum of their covariates.  ``Xs`` holds the covariates in ``order``.
    ``event_group`` is each event's event time in the stratum.  Each is a
    view of the flat arrays, but ``event_starts`` and ``event_group``, which
    are made when read from ``bounds``, the flat ``event_starts`` of the
    stratum's event times, so that no stratum holds a copy of them.
    ``rows`` and ``times`` are the slices of the flat arrays over rows and
    over event times that the stratum covers.  Every array is O(n_j) or
    O(m_j); nothing is n_j x m_j.
    """

    __slots__ = ("order", "dt", "L", "d", "event_rows", "Xs", "SX", "rows", "times", "bounds")

    def __init__(self, index, rows, times):
        self.rows, self.times = rows, times
        self.bounds = index.event_starts[times.start:times.stop + 1]
        self.order, self.Xs = index.order[rows], index.Xs[rows]
        self.dt, self.L = index.dt[times], index.L[times]
        self.d, self.SX = index.d[times], index.SX[times]
        self.event_rows = index.event_rows[self.bounds[0]:self.bounds[-1]]

    @property
    def event_starts(self):
        return self.bounds - self.bounds[0]

    @property
    def event_group(self):
        return np.repeat(np.arange(self.dt.size), np.diff(self.bounds))


class RiskIndex:
    """The risk-set structure of a dataset, in flat arrays over all strata.

    ``order`` sorts the rows by stratum, then descending time, then row
    index, leaving out the strata without events, which contribute nothing;
    ``Xs`` holds the covariates in that order.  Each distinct event time of
    a stratum has its time ``dt``, its risk-set size ``L`` within the
    stratum (its risk set is the stratum's first ``L`` rows of ``order``),
    its event count ``d`` and its events' covariate sum ``SX``; its events'
    rows are ``event_rows[event_starts[g]:event_starts[g+1]]``.  The
    strata's rows start at ``row_starts`` and their event times at
    ``time_starts``, and ``strata`` holds each stratum's slices of these
    arrays.  Without ``order`` one sort gives it; a subsample draw passes
    the full index's ``order`` filtered by its row mask, which keeps it
    sorted, so the draw's index reads the dataset's arrays and needs no
    sort.  One scan of where each stratum and each (stratum, time) run of
    rows starts builds the rest.
    """

    def __init__(self, dataset: SurvivalDataset, order=None):
        if order is None:
            order = np.lexsort((np.arange(dataset.n), -dataset.time, dataset.stratum))
        stratum, status = dataset.stratum[order], dataset.status[order]
        order = order[np.bincount(stratum, weights=status)[stratum] > 0]
        stratum, time, status = (a[order] for a in (dataset.stratum, dataset.time, dataset.status))
        first = np.concatenate(([True], stratum[1:] != stratum[:-1]))  # a stratum's first row
        runs = np.flatnonzero(first | np.concatenate(([True], time[1:] != time[:-1])))
        # each run's end, the first row of its stratum and its events; the
        # runs with events are the event times
        ends = np.concatenate((runs[1:], [order.size]))
        base = np.maximum.accumulate(np.where(first[runs], runs, 0))
        count = np.add.reduceat(status, runs)
        hit = np.flatnonzero(count)
        runs, ends, base, count = runs[hit], ends[hit], base[hit], count[hit]
        self.order, self.Xs = order, dataset.covariates[order]
        self.dt, self.L, self.d = time[runs], ends - base, count.astype(float)
        self.event_rows = order[status == 1]
        self.event_starts = np.concatenate(([0], np.cumsum(count)))
        self.SX = np.add.reduceat(self.Xs[status == 1], self.event_starts[:-1], axis=0)
        self.row_starts = np.concatenate((np.flatnonzero(first), [order.size]))
        self.time_starts = np.searchsorted(base, self.row_starts)
        self.n_events = self.event_rows.size
        self.strata = [_Stratum(self, slice(*rows), slice(*times)) for rows, times in
                       zip(pairwise(self.row_starts), pairwise(self.time_starts))]

    def risk_set(self, stratum_index: int, event_row: int) -> np.ndarray:
        """Original rows at risk at the given event row's time (for checks)."""
        s = self.strata[stratum_index]
        g = s.event_group[np.flatnonzero(s.event_rows == event_row)[0]]
        return np.sort(s.order[:s.L[g]])


def build_risk_index(dataset: SurvivalDataset) -> RiskIndex:
    return RiskIndex(dataset)


@dataclass(frozen=True)
class StandardizationTransform:
    """Per-covariate centering/scaling applied before fitting.

    ``beta_original(t) = beta_standardized(t) / scale_p``; centering shifts
    are absorbed by the baseline hazard and need no inversion.
    """

    center: np.ndarray
    scale: np.ndarray
    names: tuple

    def to_dict(self) -> dict:
        return {"center": [float(v) for v in self.center],
                "scale": [float(v) for v in self.scale],
                "names": list(self.names)}


def standardize(dataset: SurvivalDataset):
    """Center and scale covariates to unit sample SD (denominator n-1).

    Returns the transformed dataset and the transform.  A zero-variance
    column cannot be scaled and raises DegenerateCovariateError.
    """
    X = dataset.covariates
    center = X.mean(axis=0)
    scale = X.std(axis=0, ddof=1) if dataset.n > 1 else np.zeros(dataset.P)
    bad = np.flatnonzero(~(scale > 0))
    if bad.size:
        raise DegenerateCovariateError(
            f"covariate '{dataset.covariate_names[bad[0]]}' has zero variance")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out = SurvivalDataset(dataset.time, dataset.status, dataset.stratum,
                              dataset.stratum_labels, (X - center) / scale,
                              dataset.covariate_names)
    return out, StandardizationTransform(center, scale, dataset.covariate_names)


def load_csv(path) -> SurvivalDataset:
    """Read a dataset from CSV with columns time, status, stratum, <covariates>.

    Any column beyond the mandatory three is a covariate, in header order.
    Blank or non-numeric cells raise ParseError citing the 1-based data row
    and the column name; status outside {0, 1} raises DomainError.  Blank
    lines are skipped, but still counted in the numbers of the rows after
    them.

    The rows after the header are parsed from the open file in one
    ``np.loadtxt`` call and then checked as arrays: every value finite,
    times >= 0, status 0 or 1.  A file that the call or a check refuses is
    read again by the per-cell reader ``_load_csv_cells``, and what that
    returns or raises stands: it alone decides which files are accepted
    (``float()`` takes ``1_000``, ``np.loadtxt`` does not) and words every
    error.  A file both accept gives the same arrays from either.
    """
    with open(path, newline="") as fh:
        header = _read_header(csv.reader(fh))
        dataset = _parse_rows(fh, header)
    return _load_csv_cells(path) if dataset is None else dataset


def _read_header(reader) -> list:
    """The stripped header row, after any leading blank or '#' lines."""
    # leading '#' lines carry provenance comments from the CLI writers
    for rec in reader:
        if rec and not rec[0].lstrip().startswith("#"):
            header = [h.strip() for h in rec]
            break
    else:
        raise SchemaError("empty file: no header row")
    for col in _MANDATORY:
        if col not in header:
            raise SchemaError(f"missing mandatory column '{col}'")
    return header


def _parse_rows(fh, header) -> SurvivalDataset | None:
    """The dataset in the rows left in ``fh``, parsed in one ``np.loadtxt`` call.

    None if the call or a check on its arrays refuses them.
    """
    codes = {}  # stratum label -> code, in order of first appearance

    def code(label):
        return codes.setdefault(label.strip(), len(codes))
    j_time, j_status, j_stratum = (header.index(name) for name in _MANDATORY)
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            # encoding=None: numpy 1.x's default 'bytes' hands converters bytes
            data = np.loadtxt(fh, delimiter=",", quotechar='"', comments=None, ndmin=2,
                              encoding=None, converters={j_stratum: code})
    except ValueError:
        return None
    if data.shape[0] == 0 or data.shape[1] != len(header) or not np.isfinite(data).all():
        return None
    time, status = data[:, j_time], data[:, j_status]
    if (time < 0).any() or not ((status == 0) | (status == 1)).all():
        return None
    labels = sorted(codes)
    rank = np.empty(len(labels), dtype=np.int64)
    rank[[codes[lab] for lab in labels]] = np.arange(len(labels))
    cov = [i for i, name in enumerate(header) if name not in _MANDATORY]
    return SurvivalDataset(time, status, rank[data[:, j_stratum].astype(np.int64)],
                           tuple(labels), data[:, cov], tuple(header[i] for i in cov))


def _load_csv_cells(path) -> SurvivalDataset:
    """``load_csv`` one cell at a time with ``float()``.

    An error names the row and column of the first cell it refuses.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = _read_header(reader)
        pos = {name: header.index(name) for name in _MANDATORY}
        cov_cols = [(i, name) for i, name in enumerate(header) if name not in _MANDATORY]
        times, status, labels, rows = [], [], [], []
        for r, rec in enumerate(reader, start=1):
            if not rec:
                continue  # a blank line, e.g. after the last row
            if len(rec) != len(header):
                raise ParseError(f"row {r} has {len(rec)} cells, expected {len(header)}")
            def cell(i, name):
                v = rec[i].strip()
                try:
                    x = float(v)
                except ValueError:
                    raise ParseError(f"row {r} column '{name}': cannot parse {v!r}") from None
                if not np.isfinite(x):
                    raise ParseError(f"row {r} column '{name}': non-finite value {v!r}")
                return x
            t = cell(pos["time"], "time")
            if t < 0:
                raise DomainError(f"row {r} column 'time': negative time {t}")
            s = cell(pos["status"], "status")
            if s not in (0.0, 1.0):
                raise DomainError(f"row {r} column 'status': status must be 0 or 1, got {rec[pos['status']]}")
            times.append(t)
            status.append(int(s))
            labels.append(rec[pos["stratum"]].strip())
            rows.append([cell(i, name) for i, name in cov_cols])
    if not times:
        raise SchemaError("file contains a header but no data rows")
    uniq = sorted(set(labels))
    code = {lab: j for j, lab in enumerate(uniq)}
    return SurvivalDataset(
        np.array(times), np.array(status), np.array([code[lab] for lab in labels]),
        tuple(uniq), np.array(rows, dtype=float).reshape(len(times), len(cov_cols)),
        tuple(name for _, name in cov_cols))


def write_csv(path, dataset: SurvivalDataset, header_comments=()) -> None:
    """Write a dataset in the load_csv column layout, deterministically.

    Each stratum label is quoted once by ``csv.writer`` as a mid-row field,
    then every row is formatted with one format string: the bytes are those
    of a ``csv.writer`` row per subject, as numbers need no quoting.
    """
    labels = []
    for label in dataset.stratum_labels:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow([label, "x"])
        labels.append(buf.getvalue()[:-len(",x\n")])
    row = "%.17g,%d,%s" + ",%.17g" * dataset.P + "\n"
    rows = zip(dataset.time.tolist(), dataset.status.tolist(),
               [labels[s] for s in dataset.stratum.tolist()],
               *dataset.covariates.T.tolist())
    with open(path, "w", newline="") as fh:
        for line in header_comments:
            fh.write(f"# {line}\n")
        csv.writer(fh, lineterminator="\n").writerow(
            ["time", "status", "stratum", *dataset.covariate_names])
        fh.write("".join(row % r for r in rows))
