import io
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from scorefim import Design, score_outer_fim, observed_fim, mc_reference_fim, wald_confidence_intervals
from scorefim.errors import AsymmetricInput, DimensionMismatch, DomainViolation, SingularFim
from scorefim.fim import FimMatrix, fim_to_csv_string, invert_fim, vect_upper, vect_upper_names
from scorefim.models import lmm_analytic_fim
from scorefim.params import ParamVector


def test_score_outer_single_vector():
    fim = score_outer_fim(np.array([[2.0, 0.0]]))
    np.testing.assert_array_equal(fim.entries, [[4.0, 0.0], [0.0, 0.0]])
    assert fim.provenance == "score"
    assert fim.n == 1


def test_score_outer_hand_arithmetic():
    fim = score_outer_fim(np.array([[1.0, 1.0], [-1.0, 1.0]]))
    np.testing.assert_array_equal(fim.entries, np.eye(2))


def test_score_outer_rejects_ragged():
    with pytest.raises(DimensionMismatch):
        score_outer_fim(np.zeros((0, 2)))
    with pytest.raises(DimensionMismatch):
        score_outer_fim(np.zeros(3))


@settings(max_examples=60, deadline=None)
@given(arrays(np.float64, (7, 3), elements=st.floats(-50, 50)))
def test_score_outer_always_psd_symmetric(scores):
    fim = score_outer_fim(scores)
    assert np.array_equal(fim.entries, fim.entries.T)
    assert fim.is_psd()


def test_observed_fim_identity():
    fim = observed_fim(-np.eye(3)[None, :, :])
    np.testing.assert_array_equal(fim.entries, np.eye(3))
    assert fim.provenance == "observed"


def test_observed_fim_rejects_asymmetric():
    H = np.zeros((1, 2, 2))
    H[0, 0, 1] = 1e-6
    with pytest.raises(AsymmetricInput):
        observed_fim(H)


def test_observed_fim_not_psd_projected():
    H = np.diag([1.0, -1.0])[None, :, :]
    fim = observed_fim(H)
    assert fim.min_eigenvalue() < 0


def test_fim_matrix_structural_symmetry():
    with pytest.raises(AsymmetricInput):
        FimMatrix(np.array([[1.0, 0.1], [0.2, 1.0]]), "score", 1)
    with pytest.raises(DomainViolation):
        FimMatrix(np.eye(2), "nonsense", 1)


def test_invert_fim_reports_eigenvalues():
    with pytest.raises(SingularFim) as err:
        invert_fim(np.diag([1.0, 0.0]))
    assert err.value.eigenvalues is not None


def test_wald_standard_normal_quantile():
    theta = ParamVector(np.zeros(2), ("a", "b"))
    fim = FimMatrix(np.eye(2), "score", 1, ("a", "b"))
    cis = wald_confidence_intervals(theta, fim, 0.05)
    for ci in cis:
        assert ci.upper == pytest.approx(1.959964, abs=1e-6)
        assert ci.lower == pytest.approx(-1.959964, abs=1e-6)


WALD_ALPHAS = [1.0, 0.5, 0.2, 0.1, 0.05, 0.01, 1e-3, 1e-6, 1e-9, 1e-12]


@pytest.mark.parametrize("alpha", WALD_ALPHAS)
def test_wald_bounds_take_the_stdlib_normal_quantile(alpha):
    # q comes from statistics.NormalDist, so importing the package leaves
    # scipy.special out; the bounds are exactly est -/+ q se
    theta = ParamVector(np.array([1.5, -0.3]), ("a", "b"))
    fim = FimMatrix(np.array([[2.0, 0.3], [0.3, 0.7]]), "score", 9, ("a", "b"))
    q = NormalDist().inv_cdf(1.0 - alpha / 2.0)
    for ci, est in zip(wald_confidence_intervals(theta, fim, alpha), theta.values):
        assert ci.se > 0
        assert ci.lower == est - q * ci.se
        assert ci.upper == est + q * ci.se


def _wald_quantile(alpha) -> float:
    # with se = 1 and estimate 0 the upper bound is q itself
    fim = FimMatrix(np.eye(1), "score", 1, ("a",))
    (ci,) = wald_confidence_intervals(ParamVector(np.zeros(1), ("a",)), fim, alpha)
    return ci.upper


def test_wald_quantile_within_6_ulp_of_norm_ppf():
    # not bit for bit: AS241 and scipy's ndtri differ in the last bits.  The
    # grid is a geometric 1e-6..1 grid with a few hand-picked alphas, the
    # last two of which give 1 - alpha/2 == 1 (checked separately below)
    from scipy.stats import norm

    grid = np.concatenate([
        np.geomspace(1e-6, 1.0, 20_000),
        [1.0, 0.5, 0.1, 0.05, 0.01, 1e-12, 1e-300, 5e-324],
        WALD_ALPHAS,
    ])
    finite = grid[1.0 - grid / 2.0 < 1.0]
    assert finite.size == grid.size - 2
    q = np.array([_wald_quantile(a) for a in finite])
    ref = norm.ppf(1.0 - finite / 2.0)
    assert np.all(np.abs(q - ref) <= 6.0 * np.spacing(ref))
    assert _wald_quantile(0.05) == 1.9599639845400536


@pytest.mark.parametrize("alpha", [1e-16, 1e-300, 5e-324])
def test_wald_bounds_infinite_where_the_level_rounds_to_one(alpha):
    assert 1.0 - alpha / 2.0 == 1.0
    theta = ParamVector(np.array([1.5]), ("a",))
    (ci,) = wald_confidence_intervals(theta, FimMatrix(np.eye(1), "score", 4, ("a",)), alpha)
    assert ci.lower == -np.inf and ci.upper == np.inf


def test_wald_alpha_one_zero_width():
    theta = ParamVector(np.array([1.0]), ("a",))
    fim = FimMatrix(np.eye(1), "score", 4, ("a",))
    (ci,) = wald_confidence_intervals(theta, fim, 1.0)
    assert ci.lower == ci.upper == 1.0
    assert not ci.contains(0.99)


def test_wald_uses_total_information():
    theta = ParamVector(np.zeros(1), ("a",))
    fim = FimMatrix(np.eye(1), "score", 100, ("a",))
    (ci,) = wald_confidence_intervals(theta, fim, 0.05)
    assert ci.se == pytest.approx(0.1)


def test_vect_upper_convention():
    m = np.array([[1.0, 2.0, 4.0], [2.0, 3.0, 5.0], [4.0, 5.0, 6.0]])
    np.testing.assert_array_equal(vect_upper(m), [1, 2, 3, 4, 5, 6])
    assert vect_upper_names(("a", "b", "c")) == [
        "a:a", "a:b", "b:b", "a:c", "b:c", "c:c",
    ]


def test_fim_csv_format():
    fim = FimMatrix(np.array([[1.0, 0.5], [0.5, 2.0]]), "score", 7, ("a", "b"))
    text = fim_to_csv_string(fim)
    lines = text.strip().splitlines()
    assert lines[0] == "# provenance=score"
    assert lines[1] == "# n=7"
    assert lines[2] == "a:a,a:b,b:b"
    assert lines[3] == "1,0.5,2"


def test_mc_reference_requires_draws(lmm, lmm_theta):
    with pytest.raises(DomainViolation):
        mc_reference_fim(lmm, lmm_theta, Design(n=1, n_obs=12), n_draws=100, seed=0)


def test_mc_reference_halved_seed_consistency(lmm, lmm_theta):
    design = Design(n=1, n_obs=12)
    full = mc_reference_fim(lmm, lmm_theta, design, n_draws=40_000, seed=11)
    h1 = mc_reference_fim(lmm, lmm_theta, design, n_draws=20_000, seed=500)
    h2 = mc_reference_fim(lmm, lmm_theta, design, n_draws=20_000, seed=501)
    joint_se = np.sqrt(h1.mc_se**2 + h2.mc_se**2)
    assert np.all(np.abs(h1.entries - h2.entries) <= 6.0 * joint_se + 1e-12)
    assert full.mc_se is not None and np.all(full.mc_se >= 0)


def test_mc_reference_matches_lmm_analytic(lmm, lmm_theta):
    # large-sample agreement with the closed form, entry-wise within 4 MC SE
    ref = mc_reference_fim(lmm, lmm_theta, Design(n=1, n_obs=12), n_draws=1_000_000, seed=3)
    exact = lmm_analytic_fim(lmm_theta, 12).entries
    gap = np.abs(ref.entries - exact)
    assert np.all(gap <= 4.0 * ref.mc_se + 1e-12)
    assert exact[0, 0] == pytest.approx(12.0 / 29.0, abs=1e-14)
    assert exact[1, 1] == pytest.approx(0.5 * (12.0 / 29.0) ** 2, abs=1e-12)
    assert exact[2, 2] == pytest.approx(0.5 * (11.0 / 25.0 + 1.0 / 841.0), abs=1e-12)
    assert exact[1, 2] == pytest.approx(6.0 / 841.0, abs=1e-14)
