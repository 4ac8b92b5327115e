import os

# Before anything imports numpy: an OpenBLAS thread would make every in-process
# optimize test fork from a process of two threads.  Assigned, not defaulted,
# so a value set outside the tests cannot start that thread.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import pytest

from mdiqkd import AnalysisInputs, ChannelParams, SideSources, SourceEnsemble, build_observables


@pytest.fixture(scope="session")
def exact_side():
    """Reference source settings with perfect intensity control."""
    return SideSources(mu_x=0.1, mu_y=0.4, mu_z=0.5, p_v=0.1, p_x=0.1, p_y=0.1, p_z=0.7)


@pytest.fixture(scope="session")
def exact_ensemble(exact_side):
    return SourceEnsemble.symmetric(exact_side)


@pytest.fixture(scope="session")
def noisy_side():
    """Reference settings with an unstable vacuum and 1% intensity error."""
    return SideSources(
        mu_x=0.1, mu_y=0.4, mu_z=0.5, p_v=0.1, p_x=0.1, p_y=0.1, p_z=0.7,
        vacuum_cap=1e-6, fluctuation=0.01,
    )


@pytest.fixture(scope="session")
def noisy_ensemble(noisy_side):
    return SourceEnsemble.symmetric(noisy_side)


@pytest.fixture(scope="session")
def sweep_side():
    """Fixed working point that keeps a positive rate up to 5% intensity error."""
    return SideSources(
        mu_x=0.028, mu_y=0.248, mu_z=0.459, p_v=0.146, p_x=0.189, p_y=0.04, p_z=0.625,
        vacuum_cap=1e-6,
    )


@pytest.fixture(scope="session")
def params_10km():
    return ChannelParams(n_pairs=1e11, distance_km=10.0)


@pytest.fixture(scope="session")
def observables_10km(noisy_ensemble, params_10km):
    return build_observables(noisy_ensemble, params_10km)


@pytest.fixture(scope="session")
def inputs_10km(noisy_ensemble, params_10km):
    return AnalysisInputs.from_simulation(noisy_ensemble, params_10km)
