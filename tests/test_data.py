import csv

import numpy as np
import pytest

import tvcox as tv
import tvcox.data as data_module
from tvcox import (
    DegenerateCovariateError,
    DomainError,
    ParseError,
    SchemaError,
    build_risk_index,
    load_csv,
    standardize,
    write_csv,
)

from conftest import make_instance


def small_csv(tmp_path, text, name="d.csv"):
    f = tmp_path / name
    f.write_text(text)
    return f


GOOD = "time,status,stratum,age,dose\n1.5,1,a,63,0.2\n2.0,1,b,41,1.1\n0.7,1,a,58,0.0\n"


def test_load_csv_basic(tmp_path):
    ds = load_csv(small_csv(tmp_path, GOOD))
    assert ds.n == 3 and ds.P == 2 and ds.J == 2
    assert ds.covariate_names == ("age", "dose")
    assert ds.stratum_labels == ("a", "b")  # sorted label order
    np.testing.assert_array_equal(ds.stratum, [0, 1, 0])
    np.testing.assert_allclose(ds.time, [1.5, 2.0, 0.7])
    np.testing.assert_array_equal(ds.status, [1, 1, 1])
    np.testing.assert_allclose(ds.covariates, [[63, 0.2], [41, 1.1], [58, 0.0]])


def test_load_csv_skips_comment_lines(tmp_path):
    ds = load_csv(small_csv(tmp_path, "# provenance\n# config: {}\n" + GOOD))
    assert ds.n == 3


def test_load_csv_missing_mandatory_column(tmp_path):
    with pytest.raises(SchemaError, match="status"):
        load_csv(small_csv(tmp_path, "time,stratum,x\n1,a,2\n"))


def test_load_csv_empty_and_headerless(tmp_path):
    with pytest.raises(SchemaError, match="header"):
        load_csv(small_csv(tmp_path, ""))
    with pytest.raises(SchemaError, match="no data rows"):
        load_csv(small_csv(tmp_path, "time,status,stratum\n"))


def test_load_csv_cell_errors_cite_row_and_column(tmp_path):
    with pytest.raises(ParseError, match="row 2 column 'age'"):
        load_csv(small_csv(tmp_path, "time,status,stratum,age\n1,1,a,5\n2,0,a,oops\n"))
    with pytest.raises(ParseError, match="row 1 column 'age'"):
        load_csv(small_csv(tmp_path, "time,status,stratum,age\n1,1,a,inf\n"))
    with pytest.raises(DomainError, match="negative time"):
        load_csv(small_csv(tmp_path, "time,status,stratum\n-1,1,a\n"))
    with pytest.raises(DomainError, match="status"):
        load_csv(small_csv(tmp_path, "time,status,stratum\n1,2,a\n"))


def test_load_csv_skips_blank_lines(tmp_path):
    text = "time,status,stratum,x1\n1.0,1,a,0.5\n2.0,0,a,0.1\n\n"
    ds = load_csv(small_csv(tmp_path, text))
    assert ds.n == 2
    np.testing.assert_allclose(ds.covariates[:, 0], [0.5, 0.1])
    # a blank line keeps its number: the row after it is still row 3
    with pytest.raises(ParseError, match="row 3 column 'x1'"):
        load_csv(small_csv(tmp_path, "time,status,stratum,x1\n1,1,a,0.5\n\n2,0,a,oops\n"))


def test_load_csv_ragged_row(tmp_path):
    with pytest.raises(ParseError, match="row 1"):
        load_csv(small_csv(tmp_path, "time,status,stratum,x\n1,1,a\n"))


# Accepted files: load_csv's one-call parse must give what the per-cell
# reader gives.  `fast` says whether the one-call parse takes the file;
# where it does not, load_csv returns the per-cell reader's result.
ACCEPTED = {
    "quoted comma": ('time,status,stratum,x\n1,1,"a,b",2\n2,1,c,3\n', True),
    "doubled quotes": ('time,status,stratum,x\n1,1,"say ""hi""",2\n', True),
    "crlf": ("time,status,stratum,x\r\n1,1,a,2\r\n2,1,b,3\r\n", True),
    "blank lines": ("time,status,stratum,x\n\n1,1,a,2\n\n2,1,b,3\n\n", True),
    "leading comments": ("# tool 0.1.0\n#config: {}\ntime,status,stratum,x\n1,1,a,2\n", True),
    "spaces": ("time , status,stratum, x\n 1.5 , 1 , b ,  2 \n2,1, a,3\n", True),
    "blank label": ("time,status,stratum,x\n1,1,,2\n2,1,a,3\n", True),
    "underscore": ("time,status,stratum,x\n1,1,a,1_000\n", False),
    "no covariates": ("time,status,stratum\n1,1,a\n2,1,b\n", True),
    "one row": ("time,status,stratum,x,y\n1,1,a,2,3\n", True),
    "duplicate names": ("time,status,stratum,x,x\n1,1,a,2,3\n2,0,a,4,5\n", True),
    "columns reordered": ("x,stratum,status,time\n2,b,1,1\n3,a,1,2\n", True),
}

# Refused files: the same exception type and message from either reader
REFUSED = {
    "unparseable": "time,status,stratum,age\n1,1,a,5\n2,0,a,oops\n",
    "infinite": "time,status,stratum,age\n1,1,a,inf\n",
    "negative time": "time,status,stratum\n-1,1,a\n",
    "status 2": "time,status,stratum\n1,2,a\n",
    "comment after header": "time,status,stratum,x\n1,1,a,2\n# late\n",
    "empty cell": "time,status,stratum,x\n1,1,a,\n",
    "ragged row": "time,status,stratum,x\n1,1,a,2\n2,0,b\n",
    "every row short": "time,status,stratum,x\n1,1,a\n2,0,b\n",
    "cell spans two lines": 'time,status,stratum,x\n1,1,a,"2\n3"\n',
    "no data rows": "time,status,stratum,x\n\n",
}


def _count_cell_reads(monkeypatch):
    calls = []
    real = data_module._load_csv_cells

    def counted(path):
        calls.append(path)
        return real(path)
    monkeypatch.setattr(data_module, "_load_csv_cells", counted)
    return calls


@pytest.mark.parametrize("name", ACCEPTED)
def test_one_call_parse_matches_the_cell_reader(name, tmp_path, monkeypatch):
    text, fast = ACCEPTED[name]
    path = tmp_path / "d.csv"
    path.write_bytes(text.encode())
    want = data_module._load_csv_cells(path)
    calls = _count_cell_reads(monkeypatch)
    got = load_csv(path)
    assert len(calls) == (0 if fast else 1)
    for field in ("time", "status", "stratum", "covariates"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and a.shape == b.shape
        np.testing.assert_array_equal(a, b)
    assert got.stratum_labels == want.stratum_labels
    assert got.covariate_names == want.covariate_names


def test_one_call_parse_reads_labels_as_text_under_numpy_1x_default(tmp_path, monkeypatch):
    # numpy 1.23-1.26 default loadtxt to encoding='bytes', which hands the
    # stratum converter bytes; the labels must still be str
    path = tmp_path / "d.csv"
    path.write_bytes(ACCEPTED["quoted comma"][0].encode())
    want = data_module._load_csv_cells(path)
    loadtxt = np.loadtxt

    def loadtxt_1x(*args, **kwargs):
        kwargs.setdefault("encoding", "bytes")
        return loadtxt(*args, **kwargs)
    monkeypatch.setattr(np, "loadtxt", loadtxt_1x)
    calls = _count_cell_reads(monkeypatch)
    got = load_csv(path)
    assert not calls
    assert got.stratum_labels == want.stratum_labels
    assert all(type(lab) is str for lab in got.stratum_labels)


@pytest.mark.parametrize("name", REFUSED)
def test_refused_files_keep_the_cell_readers_error(name, tmp_path):
    path = tmp_path / "d.csv"
    path.write_bytes(REFUSED[name].encode())
    with pytest.raises((ParseError, DomainError, SchemaError)) as want:
        data_module._load_csv_cells(path)
    with pytest.raises(want.type) as got:
        load_csv(path)
    assert str(got.value) == str(want.value)


def test_dataset_requires_an_event():
    with pytest.raises(DomainError):
        tv.SurvivalDataset(np.array([1.0]), np.array([0]), np.zeros(1, dtype=np.int64),
                           ("s",), np.zeros((1, 1)), ("x",))


@pytest.mark.parametrize("overrides, message", [
    (dict(status=np.array([1, 0, 1])), "time, status and stratum must have equal length"),
    (dict(covariates=np.zeros(2)), "covariate matrix must have one row per subject"),
    (dict(covariate_names=("x", "y")), "covariate_names must match the covariate column count"),
    (dict(time=np.empty(0), status=np.empty(0), stratum=np.empty(0),
          covariates=np.empty((0, 1))), "dataset is empty"),
    (dict(time=np.array([1.0, np.nan])), "all times must be finite and >= 0"),
    (dict(time=np.array([1.0, -2.0])), "all times must be finite and >= 0"),
    (dict(status=np.array([1, 2])), "status must be 0 or 1"),
    (dict(covariates=np.array([[0.5], [np.inf]])), "covariates contain non-finite values"),
    (dict(stratum=np.array([0, 1])), "stratum codes must index stratum_labels"),
])
def test_dataset_input_checks(overrides, message):
    fields = dict(time=np.array([1.0, 2.0]), status=np.array([1, 0]),
                  stratum=np.zeros(2, dtype=np.int64), stratum_labels=("a",),
                  covariates=np.zeros((2, 1)), covariate_names=("x",))
    with pytest.raises(DomainError) as exc:
        tv.SurvivalDataset(**{**fields, **overrides})
    assert str(exc.value) == message


def test_zero_event_stratum_warns():
    with pytest.warns(UserWarning, match="zero events"):
        tv.SurvivalDataset(np.array([1.0, 2.0]), np.array([1, 0]),
                           np.array([0, 1]), ("a", "b"),
                           np.zeros((2, 1)), ("x",))


def test_round_trip_preserves_values(tmp_path):
    ds, _, _, _ = make_instance(3, n=40)
    path = tmp_path / "rt.csv"
    write_csv(path, ds)
    back = load_csv(path)
    np.testing.assert_array_equal(back.time, ds.time)
    np.testing.assert_array_equal(back.status, ds.status)
    np.testing.assert_array_equal(back.stratum, ds.stratum)
    np.testing.assert_array_equal(back.covariates, ds.covariates)
    assert back.stratum_labels == ds.stratum_labels
    assert back.covariate_names == ds.covariate_names


def test_write_csv_comments_round_trip(tmp_path):
    ds, _, _, _ = make_instance(4, n=10)
    path = tmp_path / "c.csv"
    write_csv(path, ds, header_comments=("tool 0.1.0", "config: {}"))
    assert path.read_text().startswith("# tool 0.1.0\n# config: {}\n")
    back = load_csv(path)
    assert back.n == ds.n


def _write_csv_row_by_row(path, dataset, header_comments=()):
    """write_csv as one csv.writer row per subject: the byte reference."""
    with open(path, "w", newline="") as fh:
        for line in header_comments:
            fh.write(f"# {line}\n")
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["time", "status", "stratum", *dataset.covariate_names])
        for i in range(dataset.n):
            w.writerow([f"{dataset.time[i]:.17g}", int(dataset.status[i]),
                        dataset.stratum_labels[dataset.stratum[i]],
                        *(f"{v:.17g}" for v in dataset.covariates[i])])


@pytest.mark.parametrize("P", [0, 1, 3])
def test_write_csv_bytes_match_a_csv_writer_row_per_subject(P, tmp_path):
    labels = ("", "a,b", 'q"x', "new\nline", "cr\r", " sp ", "\u00fc")
    rng = np.random.default_rng(P)
    n = 50
    time = rng.exponential(1.0, n)
    time[:3] = (0.0, 1e-300, 123456789.0)
    status = np.arange(n) % 2
    stratum = np.arange(n) % len(labels)
    X = rng.standard_normal((n, P)) * 10.0 ** rng.integers(-20, 20, (n, P))
    if P:
        X[0, 0], X[1, -1] = -0.0, 1.0
    ds = tv.SurvivalDataset(time, status, stratum, labels, X,
                            tuple(f"c{p}" for p in range(P)))
    comments = ("tool 0.1.0", 'config: {"out": "a,b"}')
    for header in ((), comments):
        write_csv(tmp_path / "fast.csv", ds, header_comments=header)
        _write_csv_row_by_row(tmp_path / "ref.csv", ds, header_comments=header)
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_standardize_hand_computed():
    ds = tv.SurvivalDataset(np.array([1.0, 2.0, 3.0]), np.array([1, 1, 0]),
                            np.zeros(3, dtype=np.int64), ("s",),
                            np.array([[1.0], [2.0], [3.0]]), ("x",))
    out, tr = standardize(ds)
    # mean 2, sample SD (n-1 denominator) exactly 1
    np.testing.assert_allclose(tr.center, [2.0])
    np.testing.assert_allclose(tr.scale, [1.0])
    np.testing.assert_allclose(out.covariates.ravel(), [-1.0, 0.0, 1.0])


def test_standardize_uses_nminus1_denominator():
    ds = tv.SurvivalDataset(np.array([1.0, 2.0, 3.0, 4.0]), np.array([1, 1, 0, 0]),
                            np.zeros(4, dtype=np.int64), ("s",),
                            np.array([[1.0], [1.0], [0.0], [0.0]]), ("x",))
    _, tr = standardize(ds)
    np.testing.assert_allclose(tr.scale, [np.sqrt(1 / 3)])  # not the 0.5 of ddof=0


def test_standardize_rejects_constant_column():
    ds = tv.SurvivalDataset(np.array([1.0, 2.0]), np.array([1, 1]),
                            np.zeros(2, dtype=np.int64), ("s",),
                            np.array([[5.0, 1.0], [5.0, 2.0]]), ("c", "x"))
    with pytest.raises(DegenerateCovariateError, match="'c'"):
        standardize(ds)


INDEX_ARRAYS = ("order", "Xs", "dt", "L", "d", "event_rows", "event_starts", "SX",
                "row_starts", "time_starts")


@pytest.mark.parametrize("J", [1, 4])
def test_prepare_is_the_index_of_standardize_s_copy(J):
    # the index's Xs, gathered and then standardized in place, and its SX,
    # made again from that Xs, are the bits of the index of standardize's
    # copy; the prepared data shares the dataset's rows and holds no covariates
    ds = make_instance(15, n=70, P=3, J=J)[0]
    data = tv.prepare(ds)
    work, transform = standardize(ds)
    want = build_risk_index(work)
    for name in INDEX_ARRAYS:
        assert np.array_equal(getattr(data.index, name), getattr(want, name)), name
    for got, ref in zip(data.index.strata, want.strata):
        assert np.array_equal(got.Xs, ref.Xs) and np.array_equal(got.SX, ref.SX)
        assert np.shares_memory(got.Xs, data.index.Xs)
    assert np.array_equal(data.transform.center, transform.center)
    assert np.array_equal(data.transform.scale, transform.scale)
    assert data.transform.names == transform.names
    assert (data.n, data.P) == (ds.n, ds.P)
    assert data.time is ds.time and data.status is ds.status and data.stratum is ds.stratum
    assert not hasattr(data, "covariates")


def test_prepare_without_standardizing_keeps_the_covariates():
    ds = make_instance(16, n=50, P=2)[0]
    data = tv.prepare(ds, do_standardize=False)
    assert data.transform is None
    want = build_risk_index(ds)
    for name in INDEX_ARRAYS:
        assert np.array_equal(getattr(data.index, name), getattr(want, name)), name


def test_prepare_rejects_constant_column():
    ds = tv.SurvivalDataset(np.array([1.0, 2.0]), np.array([1, 1]),
                            np.zeros(2, dtype=np.int64), ("s",),
                            np.array([[5.0, 1.0], [5.0, 2.0]]), ("c", "x"))
    with pytest.raises(DegenerateCovariateError, match="'c'"):
        tv.prepare(ds)
    tv.prepare(ds, do_standardize=False)


def test_csv_shape_counts_the_rows_that_load_csv_reads(tmp_path):
    # leading comment and blank lines, blank lines between rows and after
    # them, and CRLF line ends
    text = ("# a comment\r\n\r\ntime,status,stratum,age,dose\r\n1.5,1,a,63,0.2\r\n"
            "\r\n2.0,1,b,41,1.1\r\n0.7,0,a,58,0.0\r\n\r\n\r\n")
    f = small_csv(tmp_path, text)
    ds = load_csv(f)
    assert tv.csv_shape(f) == (ds.n, ds.P) == (3, 2)
    assert tv.csv_shape(small_csv(tmp_path, GOOD, "good.csv")) == (3, 2)
    assert tv.csv_shape(small_csv(tmp_path, "time,status,stratum\n1,1,a", "bare.csv")) == (1, 0)
    with pytest.raises(SchemaError, match="missing mandatory column 'status'"):
        tv.csv_shape(small_csv(tmp_path, "time,stratum,x\n1,a,2\n", "bad.csv"))


def test_risk_index_matches_direct_scan():
    ds, _, _, index = make_instance(11, n=60, J=3)
    # rebuild every risk set by definition and compare
    for si, s in enumerate(index.strata):
        for event_row in s.event_rows:
            got = index.risk_set(si, event_row)
            j = ds.stratum[event_row]
            expect = np.flatnonzero((ds.stratum == j) & (ds.time >= ds.time[event_row]))
            np.testing.assert_array_equal(got, expect)

    # 40 strata of 1 to 11 subjects in shuffled rows with tied times, among
    # them eventless strata, one-subject strata with and without an event,
    # and a code with no subjects at all
    rng = np.random.default_rng(12)
    sizes = rng.integers(1, 12, 40)
    sizes[[0, 9, 17]] = 1
    sizes[30] = 0
    stratum = np.repeat(np.arange(40), sizes)
    rng.shuffle(stratum)
    time = np.round(rng.exponential(1.0, stratum.size), 1)
    status = (rng.random(stratum.size) < 0.5) & ~np.isin(stratum, [4, 9, 21, 22])
    status[stratum == 0] = True
    with pytest.warns(UserWarning, match="zero events"):
        ds = tv.SurvivalDataset(time, status, stratum, tuple(f"s{j}" for j in range(40)),
                                rng.standard_normal((stratum.size, 2)), ("x0", "x1"))
    index = tv.build_risk_index(ds)
    with_events = [j for j in range(40) if status[stratum == j].any()]
    assert len(index.strata) == len(with_events) and 0 in with_events
    for si, (s, j) in enumerate(zip(index.strata, with_events)):
        # each stratum's own sort: descending time, ties by row index
        rows = np.flatnonzero(stratum == j)
        np.testing.assert_array_equal(s.order, rows[np.lexsort((rows, -time[rows]))])
        for event_row in s.event_rows:
            expect = np.flatnonzero((stratum == j) & (time >= time[event_row]))
            np.testing.assert_array_equal(index.risk_set(si, event_row), expect)


def test_risk_index_event_accounting():
    ds, _, _, index = make_instance(12, n=80, J=2)
    assert index.n_events == int(ds.status.sum())
    for s in index.strata:
        # distinct event times descending, multiplicities sum to event count
        assert (np.diff(s.dt) < 0).all()
        assert int(s.d.sum()) == s.event_rows.size
        # prefix lengths are ascending and start at the latest-time block
        assert (np.diff(s.L) >= 0).all()


def test_subset_keeps_alignment():
    ds, _, _, _ = make_instance(13, n=50)
    rows = np.arange(0, 50, 2)
    sub = ds.subset(rows)
    np.testing.assert_array_equal(sub.time, ds.time[rows])
    np.testing.assert_array_equal(sub.covariates, ds.covariates[rows])
    assert sub.stratum_labels == ds.stratum_labels


def test_arrays_are_read_only():
    ds, _, _, _ = make_instance(14, n=20)
    with pytest.raises(ValueError):
        ds.time[0] = 99.0
    with pytest.raises(ValueError):
        ds.covariates[0, 0] = 99.0
