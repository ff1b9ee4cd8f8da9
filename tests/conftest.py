import numpy as np
import pytest

from scorefim import Design, simulate_dataset
from scorefim.models import (
    GaussianMixtureModel,
    LinearMixedModel,
    PkFixedVModel,
    PkNlmeModel,
    PoissonMixtureModel,
)

PK_TIMES = np.array([0.25, 0.5, 1.0, 2.0, 3.5, 5.0, 7.0, 9.0, 12.0, 24.0])


@pytest.fixture(scope="session")
def lmm():
    return LinearMixedModel()


@pytest.fixture(scope="session")
def lmm_theta(lmm):
    return lmm.make_params([3.0, 2.0, 5.0])


@pytest.fixture(scope="session")
def lmm_data(lmm, lmm_theta):
    return simulate_dataset(lmm, lmm_theta, Design(n=40, n_obs=12), seed=101)


class RecordingLmm(LinearMixedModel):
    """LinearMixedModel keeping a copy of every ``statistics`` output and of
    every ``argmax_complete`` input, in call order: in a plain ``run_saem``
    run these are S(Z^0), S(Z^1), ..., S(Z^K) and s^1, ..., s^K."""

    def __init__(self):
        super().__init__()
        self.drawn, self.relaxed = [], []

    def statistics(self, dataset, Z):
        out = super().statistics(dataset, Z)
        self.drawn.append(out.copy())
        return out

    def argmax_complete(self, dataset, stats):
        self.relaxed.append(stats.copy())
        return super().argmax_complete(dataset, stats)

    def assert_in_hull(self, tol=1e-12):
        """Each s^k lies, coordinate by coordinate, within tol of the range
        of S(Z^0), ..., S(Z^k)."""
        drawn, relaxed = np.stack(self.drawn), np.stack(self.relaxed)
        assert len(drawn) == len(relaxed) + 1
        lo = np.minimum.accumulate(drawn)[1:]
        hi = np.maximum.accumulate(drawn)[1:]
        assert np.all(relaxed >= lo - tol) and np.all(relaxed <= hi + tol)


@pytest.fixture
def recording_lmm():
    return RecordingLmm()


@pytest.fixture(scope="session")
def poisson():
    return PoissonMixtureModel(n_components=3)


@pytest.fixture(scope="session")
def poisson_theta(poisson):
    return poisson.make_params([2.0, 5.0, 9.0, 0.3, 0.5])


@pytest.fixture(scope="session")
def poisson_data(poisson, poisson_theta):
    return simulate_dataset(poisson, poisson_theta, Design(n=200), seed=102)


@pytest.fixture(scope="session")
def gmm():
    return GaussianMixtureModel()


@pytest.fixture(scope="session")
def gmm_theta(gmm):
    return gmm.make_params([2.0 / 3.0, 3.0, 0.0])


@pytest.fixture(scope="session")
def gmm_data(gmm, gmm_theta):
    return simulate_dataset(gmm, gmm_theta, Design(n=300), seed=103)


@pytest.fixture(scope="session")
def pk():
    return PkNlmeModel()


@pytest.fixture(scope="session")
def pk_theta(pk):
    return pk.make_params([1.6, 31.0, 1.8, 0.4, 0.4, 0.4, 0.75])


@pytest.fixture(scope="session")
def pk_data(pk, pk_theta):
    return simulate_dataset(pk, pk_theta, Design(n=30, times=PK_TIMES, dose=320.0), seed=104)


@pytest.fixture(scope="session")
def pk_desk_data(pk):
    """The one dataset of the desk pk_replication study, and its theta*."""
    from scorefim.presets import preset_config
    from scorefim.rng import substream
    from scorefim.studies import _GROUP_DATA, parse_study_config

    cfg = parse_study_config(preset_config("pk_replication", desk=True))
    ds = pk.simulate(cfg.theta_star, cfg.design, substream(cfg.seed, _GROUP_DATA, 0))
    return ds, cfg.theta_star


@pytest.fixture(scope="session")
def pk_fixed_v():
    return PkFixedVModel()


@pytest.fixture(scope="session")
def pk_fixed_v_theta(pk_fixed_v):
    return pk_fixed_v.make_params([1.6, 31.0, 1.8, 0.4, 0.4, 0.75])


@pytest.fixture(scope="session")
def pk_fixed_v_data(pk_fixed_v, pk_fixed_v_theta):
    return simulate_dataset(
        pk_fixed_v, pk_fixed_v_theta, Design(n=30, times=PK_TIMES, dose=320.0), seed=105
    )


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    import sys

    mod = sys.modules.get("test_acceptance")
    if mod is None or not getattr(mod, "ATTEMPTED", None):
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(mod.ATTEMPTED):
        if num in mod.CRITERIA:
            terminalreporter.write_line(f"[PASS] criterion {num}: {mod.CRITERIA[num]}")
        else:
            terminalreporter.write_line(
                f"[FAIL] criterion {num}: assertions not satisfied (see failures above)"
            )
