"""The columnar Dataset: records and arrays build the same columns, models
read them alike either way, and simulation builds no per-individual records."""

import io
import warnings

import numpy as np
import pytest

from scorefim import Dataset, Design, IndividualRecord, data, simulate_dataset
from scorefim.data import dataset_to_csv_string, read_dataset_csv
from scorefim.errors import DimensionMismatch, DomainViolation
from scorefim.fim import mc_reference_fim
from scorefim.models.lmm import _summaries
from scorefim.models.pk import _design_arrays
from scorefim.rng import substream

PK_TIMES = np.array([0.25, 0.5, 1.0, 2.0, 3.5, 5.0, 7.0, 9.0, 12.0, 24.0])


# model fixture, theta fixture, design, design reader
CASES = {
    "lmm": ("lmm", "lmm_theta", Design(n=30, n_obs=12), _summaries),
    "poisson": ("poisson", "poisson_theta", Design(n=60), lambda ds: ds.y[:, 0]),
    "gmm": ("gmm", "gmm_theta", Design(n=60), lambda ds: ds.y[:, 0]),
    "pk": ("pk", "pk_theta", Design(n=20, times=PK_TIMES, dose=320.0), _design_arrays),
    "pk_fixed_v": (
        "pk_fixed_v", "pk_fixed_v_theta", Design(n=20, times=PK_TIMES, dose=320.0), _design_arrays,
    ),
}


def _case(request, key):
    model_name, theta_name, design, reader = CASES[key]
    return (request.getfixturevalue(model_name), request.getfixturevalue(theta_name),
            design, reader)


def _twins(ds):
    """The dataset's columns rebuilt once through IndividualRecords and once
    through from_arrays, from plain copies."""
    k = ds.n_obs().tolist()
    times = None if ds.times is None else np.array(ds.times)
    doses = None if ds.doses is None else np.array(ds.doses)
    by_records = Dataset(tuple(
        IndividualRecord(
            y=np.array(ds.y[i, :k[i]]),
            times=None if times is None else times[i, :k[i]],
            dose=None if doses is None else float(doses[i]),
        )
        for i in range(ds.n)
    ))
    by_arrays = Dataset.from_arrays(np.array(ds.y), n_obs=list(k), times=times, doses=doses)
    return by_records, by_arrays


def _assert_same(a, b):
    if isinstance(a, tuple):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _assert_same(x, y)
    else:
        np.testing.assert_array_equal(a, b, strict=True)


@pytest.mark.parametrize("key", sorted(CASES))
def test_records_and_arrays_give_bitwise_equal_model_outputs(request, key):
    model, theta, design, reader = _case(request, key)
    ds = simulate_dataset(model, theta, design, seed=11)
    by_records, by_arrays = _twins(ds)
    Z = model.initial_latents(ds, theta, substream(11, 1))
    for a, b in ((by_records, by_arrays), (by_records, ds)):
        _assert_same(reader(a), reader(b))
        _assert_same(model.complete_loglik(a, Z, theta), model.complete_loglik(b, Z, theta))
        _assert_same(model.complete_score(a, Z, theta), model.complete_score(b, Z, theta))
        if hasattr(model, "statistics"):
            _assert_same(model.statistics(a, Z), model.statistics(b, Z))
        if model.has_marginal_score:
            _assert_same(model.marginal_score(a, theta), model.marginal_score(b, theta))


def test_equal_length_reads_match_the_per_record_sums(lmm, lmm_theta):
    # the row sums over the (n, J) column equal the sums the per-record code
    # took, bit for bit, so simulated datasets give the same results as before
    ds = simulate_dataset(lmm, lmm_theta, Design(n=200, n_obs=12), seed=12)
    J, sumy, sumy2 = _summaries(ds)
    np.testing.assert_array_equal(sumy, [r.y.sum() for r in ds.records])
    np.testing.assert_array_equal(sumy2, [(r.y**2).sum() for r in ds.records])
    np.testing.assert_array_equal(J, [r.n_obs for r in ds.records])


def test_ragged_pk_records_pad_with_zero_time_and_observation(pk_data):
    k = [10 - i % 3 for i in range(12)]
    records = tuple(
        IndividualRecord(y=r.y[:m], times=r.times[:m], dose=r.dose * (1 + i / 10))
        for i, (r, m) in enumerate(zip(pk_data.records, k))
    )
    ds = Dataset(records)
    np.testing.assert_array_equal(ds.n_obs(), k)
    assert ds.y.shape == ds.times.shape == (12, 10)
    for i, m in enumerate(k):
        assert (ds.y[i, m:] == 0).all() and (ds.times[i, m:] == 0).all()
    assert not (ds.y.flags.writeable or ds.times.flags.writeable or ds.doses.flags.writeable)
    _assert_same(_design_arrays(ds), _design_arrays(Dataset.from_arrays(
        np.array(ds.y), n_obs=k, times=np.array(ds.times), doses=np.array(ds.doses),
    )))
    # the record views read back what went in
    assert ds.records is records
    views = Dataset.from_arrays(ds.y, n_obs=ds.n_obs(), times=ds.times, doses=ds.doses).records
    for r, v in zip(records, views):
        _assert_same((r.y, r.times), (v.y, v.times))
        assert v.dose == r.dose and not v.y.flags.writeable


@pytest.mark.parametrize("key", sorted(CASES))
def test_simulated_dataset_survives_a_csv_round_trip(request, key):
    model, theta, design, _ = _case(request, key)
    ds = simulate_dataset(model, theta, design, seed=13)
    text = dataset_to_csv_string(ds)
    back = read_dataset_csv(io.StringIO(text))
    assert dataset_to_csv_string(back) == text

    def as_written(a):  # the CSV keeps 9 significant digits
        return None if a is None else np.vectorize(lambda v: float(f"{v:.9g}"))(a)

    _assert_same(back.n_obs(), ds.n_obs())
    _assert_same(back.y, as_written(ds.y))
    for a, b in ((back.times, ds.times), (back.doses, ds.doses)):
        assert (a is None) == (b is None)
        if a is not None:
            _assert_same(a, as_written(b))


def _rejections():
    """(error, IndividualRecord kwargs, from_arrays kwargs): the same faulty
    input in each form."""
    inc = np.array([0.5, 1.0, 2.0])
    return {
        "empty y": (DimensionMismatch, dict(y=np.array([])), dict(y=np.zeros((1, 0)))),
        "y of the wrong rank": (
            DimensionMismatch, dict(y=np.ones((2, 2))), dict(y=np.ones((2, 2, 2))),
        ),
        "times misaligned": (
            DimensionMismatch,
            dict(y=np.ones(3), times=inc[:2]), dict(y=np.ones((1, 3)), times=inc[None, :2]),
        ),
        "times decreasing": (
            DomainViolation,
            dict(y=np.ones(3), times=inc[::-1]), dict(y=np.ones((1, 3)), times=inc[None, ::-1]),
        ),
        "times repeated": (
            DomainViolation,
            dict(y=np.ones(3), times=np.array([0.5, 0.5, 1.0])),
            dict(y=np.ones((2, 3)), times=np.array([inc, [0.5, 0.5, 1.0]])),
        ),
        "dose negative": (
            DomainViolation,
            dict(y=np.ones(3), times=inc, dose=-3.0),
            dict(y=np.ones((1, 3)), times=inc[None], doses=np.array([-3.0])),
        ),
        "dose zero": (
            DomainViolation, dict(y=np.ones(3), dose=0.0),
            dict(y=np.ones((1, 3)), doses=np.array([0.0])),
        ),
        "dose nan": (
            DomainViolation, dict(y=np.ones(3), dose=np.nan),
            dict(y=np.ones((1, 3)), doses=np.array([np.nan])),
        ),
    }


@pytest.mark.parametrize("case", sorted(_rejections()))
def test_from_arrays_rejects_what_records_reject(case):
    error, record_kwargs, array_kwargs = _rejections()[case]
    with pytest.raises(error):
        IndividualRecord(**record_kwargs)
    with pytest.raises(error):
        Dataset.from_arrays(**array_kwargs)


@pytest.mark.parametrize("array_kwargs", [
    dict(y=np.zeros((0, 3))),  # no individual
    dict(y=np.ones((2, 3)), latent_truth=np.zeros((3, 1))),  # a truth row too many
    dict(y=np.ones((2, 3)), n_obs=[3, 0]),  # an empty record
    dict(y=np.ones((2, 3)), n_obs=[2, 2]),  # no record fills J
    dict(y=np.ones((2, 3)), n_obs=[3, 2]),  # y past a record's end not 0
    dict(y=np.array([[1.0, 2, 3], [1, 2, 0]]), n_obs=[3, 2],
         times=np.array([[1.0, 2, 3], [1, 2, 5]])),  # times past its end not 0
    dict(y=np.ones((2, 3)), doses=np.ones(3)),  # a dose too many
])
def test_from_arrays_rejects_inconsistent_columns(array_kwargs):
    with pytest.raises(DimensionMismatch):
        Dataset.from_arrays(**array_kwargs)


def test_records_must_agree_on_design_columns():
    with pytest.raises(DimensionMismatch):
        Dataset((IndividualRecord(y=np.ones(2), times=np.array([1.0, 2.0])),
                 IndividualRecord(y=np.ones(2))))
    with pytest.raises(DimensionMismatch):
        Dataset((IndividualRecord(y=np.ones(2), dose=1.0), IndividualRecord(y=np.ones(2))))


@pytest.fixture()
def record_count(monkeypatch):
    """Counts IndividualRecord constructions, checked ones and views alike."""
    count = {"n": 0}
    post_init, view = IndividualRecord.__post_init__, data._record_view

    def counted(f):
        def wrapper(*args, **kwargs):
            count["n"] += 1
            return f(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(IndividualRecord, "__post_init__", counted(post_init))
    monkeypatch.setattr(data, "_record_view", counted(view))
    return count


@pytest.mark.parametrize("key", sorted(CASES))
def test_simulate_builds_no_records(request, key, record_count):
    model, theta, design, _ = _case(request, key)
    ds = simulate_dataset(model, theta, Design(n=1000, n_obs=design.n_obs,
                                               times=design.times, dose=design.dose), seed=14)
    assert ds.n == 1000 and record_count["n"] == 0
    ds.records  # the counter sees the lazy views once they are asked for
    assert record_count["n"] == 1000


def test_mc_reference_fim_builds_no_records(poisson, poisson_theta, record_count):
    fim = mc_reference_fim(poisson, poisson_theta, Design(n=1), n_draws=20_000, seed=15,
                           chunk_size=10_000)
    assert np.isfinite(fim.entries).all() and record_count["n"] == 0
    poisson.exact_fim(poisson_theta)
    assert record_count["n"] == 0


def test_rows_view_a_range_of_rows(pk, pk_theta, record_count):
    ds = simulate_dataset(pk, pk_theta, Design(n=7, times=PK_TIMES, dose=320.0), seed=16)
    part = ds.rows(2, 5)
    assert part.n == 3 and record_count["n"] == 0
    for name in ("y", "times", "doses", "latent_truth"):
        assert np.array_equal(getattr(part, name), getattr(ds, name)[2:5]), name
    assert np.array_equal(part.n_obs(), ds.n_obs()[2:5])
    assert not part.y.flags.writeable and np.shares_memory(part.y, ds.y)
    assert ds.rows(5, 99).n == 2


@pytest.mark.parametrize("model_name, theta_name, data_name", [
    ("pk", "pk_theta", "pk_data"), ("pk_fixed_v", "pk_fixed_v_theta", "pk_fixed_v_data"),
])
def test_pk_loglik_is_minus_inf_without_warning_where_latents_overflow(
    request, model_name, theta_name, data_name,
):
    model, theta, ds = (request.getfixturevalue(n) for n in (model_name, theta_name, data_name))
    Z = np.array(ds.latent_truth)
    base = model.complete_loglik(ds, Z, theta)
    far = {1: (0, 800.0), 2: (1, -800.0), 3: (1, 800.0), 4: (0, -800.0)}
    if model.latent_dim == 3:
        far.update({5: (2, 800.0), 6: (2, -800.0)})
    Zx = Z.copy()
    for row, (coord, value) in far.items():
        Zx[row, coord] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = model.complete_loglik(Dataset(ds.records), Zx, theta)
    assert got[1] == -np.inf  # ka t overflows: no finite likelihood
    assert not np.isnan(got).any() and (got < np.inf).all()
    rest = np.setdiff1d(np.arange(ds.n), list(far))
    np.testing.assert_array_equal(got[rest], base[rest])
