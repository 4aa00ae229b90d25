import numpy as np
import pytest

from skewtherm import MpFamily, TrigPotential


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


@pytest.fixture
def family():
    return MpFamily(p0=0.5, p1=0.5, delta_a=0.1)


@pytest.fixture
def small_potential():
    # amplitude 0.004 on the first fiber mode: inside the almost-constant
    # regime for eps_phi = 0.04
    return TrigPotential(terms=((0, 1, 0.004),), constant=0.0)


@pytest.fixture
def zero_potential():
    return TrigPotential.constant_potential(0.0)


@pytest.fixture
def stencil_builds(monkeypatch):
    """The base points of every fiber stencil built for a Phi cascade or a
    fiber measure, one per row of each block; both build through the name
    bound in skewtherm.phi."""
    from skewtherm import phi
    built = []
    original = phi.fiber_stencils

    def counting(pot, family, xs, n_nodes):
        built.extend(xs)
        return original(pot, family, xs, n_nodes)

    monkeypatch.setattr(phi, "fiber_stencils", counting)
    return built
