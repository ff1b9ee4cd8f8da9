"""The columnar Dataset: every way of building one gives the same columns,
models read them alike, and simulation builds one dataset, not one object per
individual."""

import io
import warnings

import numpy as np
import pytest

from scorefim import Dataset, Design, simulate_dataset
from scorefim.data import dataset_to_csv_string, read_dataset_csv
from scorefim.errors import ConfigError, DimensionMismatch, DomainViolation
from scorefim.fim import _MC_BLOCK, mc_reference_fim
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
    """The dataset's columns rebuilt once by gathering its rows (``subset``)
    and once through from_arrays, from plain copies."""
    times = None if ds.times is None else np.array(ds.times)
    doses = None if ds.doses is None else np.array(ds.doses)
    by_rows = ds.subset(range(ds.n))
    by_arrays = Dataset.from_arrays(
        np.array(ds.y), n_obs=ds.n_obs().tolist(), times=times, doses=doses
    )
    return by_rows, by_arrays


def _cut(y, k, times=None, doses=None):
    """A dataset of the rows of (n, J) ``y`` and ``times`` cut to ``k[i]``
    observations, zero-padded to the longest."""
    k = np.asarray(k)
    keep = np.arange(k.max()) < k[:, None]
    return Dataset.from_arrays(
        np.where(keep, y[:, :k.max()], 0.0), k,
        None if times is None else np.where(keep, times[:, :k.max()], 0.0), doses,
    )


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
    by_rows, by_arrays = _twins(ds)
    Z = model.initial_latents(ds, theta, substream(11, 1))
    for a, b in ((by_rows, by_arrays), (by_rows, ds)):
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
    rows = [ds.y[i, :k] for i, k in enumerate(ds.n_obs())]
    np.testing.assert_array_equal(sumy, [r.sum() for r in rows])
    np.testing.assert_array_equal(sumy2, [(r**2).sum() for r in rows])
    np.testing.assert_array_equal(J, [r.size for r in rows])


def test_ragged_pk_records_pad_with_zero_time_and_observation(pk_data):
    k = [10 - i % 3 for i in range(12)]
    doses = pk_data.doses[:12] * (1 + np.arange(12) / 10)
    ds = _cut(pk_data.y[:12], k, pk_data.times[:12], doses)
    np.testing.assert_array_equal(ds.n_obs(), k)
    assert ds.y.shape == ds.times.shape == (12, 10)
    for i, m in enumerate(k):
        assert (ds.y[i, m:] == 0).all() and (ds.times[i, m:] == 0).all()
    assert not (ds.y.flags.writeable or ds.times.flags.writeable or ds.doses.flags.writeable)
    _assert_same(_design_arrays(ds), _design_arrays(Dataset.from_arrays(
        np.array(ds.y), n_obs=k, times=np.array(ds.times), doses=np.array(ds.doses),
    )))
    # the rows cut to their n_obs read back what went in
    for i, m in enumerate(k):
        _assert_same((ds.y[i, :m], ds.times[i, :m]), (pk_data.y[i, :m], pk_data.times[i, :m]))
    _assert_same(ds.doses, doses)


@pytest.mark.parametrize("key", sorted(CASES))
def test_simulated_dataset_survives_a_csv_round_trip(request, key):
    model, theta, design, _ = _case(request, key)
    ds = simulate_dataset(model, theta, design, seed=13)
    text = dataset_to_csv_string(ds)
    back = read_dataset_csv(io.StringIO(text))
    _assert_read_back(back, text, ds)


def _assert_read_back(back, text, ds):
    """``back``, read from ``text`` written from ``ds``, writes the same text
    and holds ``ds``'s columns at the 9 significant digits the CSV keeps."""
    assert dataset_to_csv_string(back) == text

    def as_written(a):
        return None if a is None else np.vectorize(lambda v: float(f"{v:.9g}"))(a)

    _assert_same(back.n_obs(), ds.n_obs())
    _assert_same(back.y, as_written(ds.y))
    for a, b in ((back.times, ds.times), (back.doses, ds.doses)):
        assert (a is None) == (b is None)
        if a is not None:
            _assert_same(a, as_written(b))


def _ragged(request, key):
    """(model, theta, dataset): the fixture dataset with every row but a few
    cut short, and for PK a different dose per individual."""
    model, theta, ds = (request.getfixturevalue(n) for n in (key, f"{key}_theta", f"{key}_data"))
    J = ds.y.shape[1]
    k = J - (7 * np.arange(ds.n)) % 4  # rows 0, 4, 8, ... stay full
    doses = None if ds.doses is None else ds.doses * (1 + np.arange(ds.n) / 7)
    return model, theta, _cut(ds.y, k, ds.times, doses)


@pytest.mark.parametrize("key", ["pk", "lmm"])
def test_ragged_dataset_survives_a_csv_round_trip(request, key):
    _, _, ds = _ragged(request, key)
    assert ds.n_obs().min() < ds.y.shape[1] and (ds.times is None) == (key == "lmm")
    text = dataset_to_csv_string(ds)
    _assert_read_back(read_dataset_csv(io.StringIO(text)), text, ds)


@pytest.mark.parametrize("key", ["pk", "lmm"])
@pytest.mark.parametrize("indices", [[5, 0, 5, 5], [9, 2, 7, 4], [3, 1, 2, 1]])
def test_subset_gives_the_columns_from_arrays_gives(request, key, indices):
    # repeated, unordered and all-short rows: the subset's columns are cut
    # to its own longest record, as from_arrays builds them from the rows
    model, theta, ds = _ragged(request, key)
    sub = ds.subset(indices)
    k = ds.n_obs()[indices]
    J = k.max()
    ref = _cut(np.array(ds.y[indices]), k, None if ds.times is None else ds.times[indices],
               None if ds.doses is None else ds.doses[indices])
    assert sub.y.shape == (len(indices), J) and (J < ds.y.shape[1]) == (indices[0] == 3)
    for name in ("y", "times", "doses"):
        _assert_same(getattr(sub, name), getattr(ref, name))
    _assert_same(sub.n_obs(), ref.n_obs())
    Z = model.initial_latents(ref, theta, substream(17, indices[0]))
    _assert_same(model.complete_loglik(sub, Z, theta), model.complete_loglik(ref, Z, theta))
    _assert_same(model.statistics(sub, Z), model.statistics(ref, Z))


def _rejections():
    """(error, from_arrays kwargs): the checks every record of a dataset
    passes, each broken once."""
    inc = np.array([0.5, 1.0, 2.0])
    return {
        "empty y": (DimensionMismatch, dict(y=np.zeros((1, 0)))),
        "y of the wrong rank": (DimensionMismatch, dict(y=np.ones((2, 2, 2)))),
        "times misaligned": (DimensionMismatch, dict(y=np.ones((1, 3)), times=inc[None, :2])),
        "times decreasing": (DomainViolation, dict(y=np.ones((1, 3)), times=inc[None, ::-1])),
        "times repeated": (
            DomainViolation, dict(y=np.ones((2, 3)), times=np.array([inc, [0.5, 0.5, 1.0]])),
        ),
        "dose negative": (
            DomainViolation, dict(y=np.ones((1, 3)), times=inc[None], doses=np.array([-3.0])),
        ),
        "dose zero": (DomainViolation, dict(y=np.ones((1, 3)), doses=np.array([0.0]))),
        "dose nan": (DomainViolation, dict(y=np.ones((1, 3)), doses=np.array([np.nan]))),
    }


@pytest.mark.parametrize("case", sorted(_rejections()))
def test_from_arrays_rejects_what_records_reject(case):
    error, array_kwargs = _rejections()[case]
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
    # every individual of a dataset CSV has times (a dose), or none has
    head = "individual,obs_index,time,dose,y\n"
    for rows in ("0,0,1.0,,1\n1,0,,,1\n", "0,0,,5,1\n1,0,,,1\n", "0,0,,,1\n1,0,,5,1\n"):
        with pytest.raises(ConfigError, match="individual 1"):
            read_dataset_csv(io.StringIO(head + rows))


@pytest.fixture()
def dataset_count(monkeypatch):
    """Counts datasets built (views included) and checked (from_arrays)."""
    count = {"built": 0, "checked": 0}

    def counted(key, name):
        f = Dataset.__dict__[name].__func__

        def wrapper(*args, **kwargs):
            count[key] += 1
            return f(*args, **kwargs)
        monkeypatch.setattr(Dataset, name, classmethod(wrapper))

    counted("built", "_wrap")
    counted("checked", "from_arrays")
    return count


@pytest.mark.parametrize("key", sorted(CASES))
def test_simulate_builds_no_records(request, key, dataset_count):
    # one dataset, checked once, for all 1000 individuals
    model, theta, design, _ = _case(request, key)
    ds = simulate_dataset(model, theta, Design(n=1000, n_obs=design.n_obs,
                                               times=design.times, dose=design.dose), seed=14)
    assert ds.n == 1000 and dataset_count == {"built": 1, "checked": 1}


def test_mc_reference_fim_builds_no_records(poisson, poisson_theta, dataset_count):
    # per block of _MC_BLOCK draws one simulated dataset, checked once
    fim = mc_reference_fim(poisson, poisson_theta, Design(n=1), n_draws=20_000, seed=15)
    blocks = -(-20_000 // _MC_BLOCK)
    assert np.isfinite(fim.entries).all()
    assert dataset_count == {"built": blocks, "checked": blocks}
    poisson.exact_fim(poisson_theta)
    assert dataset_count == {"built": blocks + 1, "checked": blocks + 1}


def test_replicate_repeats_a_one_row_dataset(pk_data):
    one = pk_data.subset([3])
    rep = one.replicate(5)
    for name in ("y", "times", "doses"):
        col = getattr(rep, name)
        assert col.strides[0] == 0 and not col.flags.writeable, name
        _assert_same(col, np.repeat(getattr(one, name), 5, axis=0))
    _assert_same(rep.n_obs(), np.repeat(one.n_obs(), 5))
    with pytest.raises(DimensionMismatch):
        pk_data.replicate(5)


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
        got = model.complete_loglik(ds.subset(range(ds.n)), Zx, theta)
    assert got[1] == -np.inf  # ka t overflows: no finite likelihood
    assert not np.isnan(got).any() and (got < np.inf).all()
    rest = np.setdiff1d(np.arange(ds.n), list(far))
    np.testing.assert_array_equal(got[rest], base[rest])
