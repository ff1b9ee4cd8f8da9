import io

import numpy as np
import pytest

from scorefim import Dataset, Design, ParamVector
from scorefim.data import dataset_to_csv_string, read_dataset_csv, write_dataset_csv
from scorefim.errors import ConfigError, DimensionMismatch, DomainViolation


def test_param_vector_basic():
    theta = ParamVector(np.array([3.0, 2.0, 5.0]), ("beta", "eta2", "sigma2"))
    assert theta.p == 3
    assert theta["eta2"] == 2.0
    with pytest.raises(DimensionMismatch):
        ParamVector(np.array([1.0, 2.0]), ("a",))


def test_param_vector_immutable():
    theta = ParamVector(np.array([1.0]), ("a",))
    with pytest.raises(ValueError):
        theta.values[0] = 2.0


def test_record_invariants():
    with pytest.raises(DomainViolation):
        Dataset.from_arrays(np.array([[1.0, 2.0]]), times=np.array([[2.0, 1.0]]))
    with pytest.raises(DomainViolation):
        Dataset.from_arrays(np.array([[1.0]]), times=np.array([[1.0]]), doses=np.array([-3.0]))
    with pytest.raises(DimensionMismatch):
        Dataset.from_arrays(np.zeros((1, 0)))


def test_dataset_needs_individuals():
    with pytest.raises(DimensionMismatch):
        Dataset.from_arrays(np.zeros((0, 2)))
    with pytest.raises(DimensionMismatch):
        Dataset.from_arrays(np.ones((2, 2))).subset([])


def test_dataset_csv_roundtrip():
    ds = Dataset.from_arrays(
        np.array([[1.25, -2.5], [0.0, 3.125]]), times=np.array([[0.5, 1.0], [0.5, 1.0]]),
        doses=np.array([320.0, 320.0]), latent_truth=np.array([[0.1], [0.2]]),
    )
    text = dataset_to_csv_string(ds)
    assert text.splitlines()[0] == "individual,obs_index,time,dose,y"
    back = read_dataset_csv(io.StringIO(text))
    assert back.n == 2
    np.testing.assert_array_equal(back.y[0], ds.y[0])
    np.testing.assert_array_equal(back.times[1], ds.times[1])
    assert back.doses[0] == 320.0
    assert back.latent_truth is None  # estimators never see the truth


def test_dataset_csv_empty_design_columns():
    ds = Dataset.from_arrays(np.array([[4.0, 5.0]]))
    text = dataset_to_csv_string(ds)
    line = text.splitlines()[1].split(",")
    assert line[2] == "" and line[3] == ""
    back = read_dataset_csv(io.StringIO(text))
    assert back.times is None and back.doses is None


def test_dataset_csv_rejects_garbage():
    with pytest.raises(ConfigError):
        read_dataset_csv(io.StringIO("a,b\n1,2\n"))


def test_design_validation():
    with pytest.raises(DomainViolation):
        Design(n=0)


def test_dataset_n_obs_cached_read_only():
    ds = Dataset.from_arrays(np.array([[1.0, 1, 0], [1, 0, 0], [1, 1, 1]]), n_obs=[2, 1, 3])
    sizes = ds.n_obs()
    np.testing.assert_array_equal(sizes, [2, 1, 3])
    assert ds.n_obs() is sizes
    with pytest.raises(ValueError):
        sizes[0] = 7
