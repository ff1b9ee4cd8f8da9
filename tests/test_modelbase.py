"""Generic model-contract machinery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scorefim import Design, finite_diff_score, simulate_dataset, validate_params
from scorefim.errors import DimensionMismatch, DomainViolation
from scorefim.saem_general import WeightedSampleBuffer, buffer_update, delta_update


def test_validate_params_checks_dimension_first(lmm):
    from scorefim import ParamVector

    wrong = ParamVector(np.array([1.0, 2.0]), ("a", "b"))
    with pytest.raises(DimensionMismatch):
        validate_params(lmm, wrong)


def test_finite_diff_rejects_nonpositive_step(lmm, lmm_data, lmm_theta):
    Z = np.zeros((lmm_data.n, 1))
    with pytest.raises(DomainViolation):
        finite_diff_score(lmm, lmm_data, Z, lmm_theta, h=0.0)


def test_finite_diff_shrinks_near_boundary(lmm, lmm_data):
    # eta2 small enough that theta - h e_l would go negative at the default
    # step; the shrunken step must still produce an accurate derivative
    theta = lmm.make_params([3.0, 5e-6, 5.0])
    Z = np.full((lmm_data.n, 1), 1e-3)
    fd = finite_diff_score(lmm, lmm_data, Z, theta)
    an = lmm.complete_score(lmm_data, Z, theta)
    np.testing.assert_allclose(fd[:, 0], an[:, 0], rtol=1e-6)
    np.testing.assert_allclose(fd[:, 2], an[:, 2], rtol=1e-6)
    # the shrunken step still sweeps 12% of a 5e-6-scale variance: the
    # check is that it stayed in-domain, with curvature-limited accuracy
    np.testing.assert_allclose(fd[:, 1], an[:, 1], rtol=5e-3)


def test_finite_diff_fails_when_no_room(lmm, lmm_data):
    theta = lmm.make_params([3.0, 1e-12, 5.0])
    Z = np.zeros((lmm_data.n, 1))
    with pytest.raises(DomainViolation) as err:
        finite_diff_score(lmm, lmm_data, Z, theta)
    assert err.value.component == "eta2"


def test_simulate_dataset_validates(lmm):
    with pytest.raises(DomainViolation):
        simulate_dataset(lmm, lmm.make_params([3.0, -2.0, 5.0]), Design(n=5, n_obs=3), seed=0)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30))
def test_buffer_mass_conservation_property(gammas):
    buf = WeightedSampleBuffer(prune_epsilon=1e-3)
    missing = 1.0
    for k, g in enumerate(gammas):
        buf = buffer_update(buf, np.full((2, 1), float(k)), g)
        missing *= 1.0 - g
    # retained + pruned + never-injected mass telescopes to one
    assert buf.total_weight + buf.discarded_mass + missing == pytest.approx(1.0, abs=1e-9)
    assert np.all(buf.weights >= buf.prune_epsilon)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(-5, 5), min_size=2, max_size=2),
    st.lists(st.floats(-5, 5), min_size=2, max_size=2),
    st.floats(0.0, 1.0),
)
def test_delta_update_convex_combination(d, s, gamma):
    out = delta_update(np.array([d]), np.array([s]), gamma)
    lo = np.minimum(d, s)
    hi = np.maximum(d, s)
    assert np.all(out >= lo - 1e-12) and np.all(out <= hi + 1e-12)
