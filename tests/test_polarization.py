import numpy as np
import pytest

from depolsim.polarization import (
    JONES_H,
    JONES_L,
    JONES_M,
    JONES_P,
    JONES_R,
    JONES_V,
    SIGMA1,
    SIGMA2,
    SIGMA3,
    density_from_jones,
    density_from_stokes,
    dop,
    dop_from_determinant,
    jones_from_stokes,
    state_fidelity,
    stokes_from_density,
)
from _helpers import random_density, random_pure_jones, random_unitary

I2 = np.eye(2)


def test_sigma_operators_match_projector_definitions():
    # the exact matrices must agree with |+><+| - |-><-| for each pair
    for sigma, plus, minus in (
        (SIGMA1, JONES_H, JONES_V),
        (SIGMA2, JONES_P, JONES_M),
        (SIGMA3, JONES_R, JONES_L),
    ):
        built = np.outer(plus, plus.conj()) - np.outer(minus, minus.conj())
        assert np.abs(sigma - built).max() < 1e-15


def test_density_from_jones_basis_states():
    assert np.abs(density_from_jones(JONES_H) - np.array([[1, 0], [0, 0]])).max() < 1e-15
    assert np.abs(density_from_jones(JONES_P) - np.array([[0.5, 0.5], [0.5, 0.5]])).max() < 1e-15
    expected_r = np.array([[0.5, -0.5j], [0.5j, 0.5]])
    assert np.abs(density_from_jones(JONES_R) - expected_r).max() < 1e-15


def test_density_from_jones_rejects_unnormalized():
    with pytest.raises(ValueError, match="not normalized"):
        density_from_jones([1.0, 1.0])


def test_stokes_of_named_states():
    assert np.allclose(stokes_from_density(density_from_jones(JONES_H)), [1, 0, 0], atol=1e-15)
    assert np.allclose(stokes_from_density(I2 / 2), [0, 0, 0], atol=1e-15)
    assert np.allclose(stokes_from_density(density_from_jones(JONES_R)), [0, 0, 1], atol=1e-15)


def test_density_from_stokes_examples():
    assert np.abs(density_from_stokes([0, 0, 0]) - I2 / 2).max() < 1e-15
    assert np.abs(density_from_stokes([1, 0, 0]) - density_from_jones(JONES_H)).max() < 1e-15
    s = np.ones(3) / np.sqrt(3.0)
    rho = density_from_stokes(s)
    assert abs(np.linalg.det(rho)) < 1e-12  # unit Stokes vector means a pure state


def test_density_from_stokes_rejects_outside_ball():
    with pytest.raises(ValueError, match="outside"):
        density_from_stokes([0.8, 0.8, 0.0])


def test_stokes_density_round_trip():
    rng = np.random.default_rng(1)
    for _ in range(300):
        rho = random_density(rng)
        back = density_from_stokes(stokes_from_density(rho))
        assert np.abs(back - rho).max() < 1e-12
        s = rng.normal(size=3)
        s *= rng.uniform(0, 1) / np.linalg.norm(s)
        assert np.abs(stokes_from_density(density_from_stokes(s)) - s).max() < 1e-12


def test_dop_examples():
    assert dop(I2 / 2) == 0.0
    assert abs(dop(density_from_jones(JONES_H)) - 1.0) < 1e-15
    # derived: diag(2/3, 1/3) has D = sqrt(1 - 8/9) = 1/3 by either formula
    rho = np.diag([2 / 3, 1 / 3]).astype(complex)
    assert abs(dop(rho) - 1 / 3) < 1e-12
    assert abs(dop_from_determinant(rho) - 1 / 3) < 1e-12


def test_dop_identity_between_formulas():
    rng = np.random.default_rng(2)
    for _ in range(2000):
        rho = random_density(rng)
        assert abs(dop(rho) - dop_from_determinant(rho)) < 1e-10


def test_dop_unitary_invariance():
    rng = np.random.default_rng(3)
    for _ in range(200):
        rho = random_density(rng)
        u = random_unitary(rng)
        assert abs(dop(u @ rho @ u.conj().T) - dop(rho)) < 1e-10


def test_dop_from_determinant_clamps_and_rejects():
    # radicand in [-1e-10, 0) clamps to zero
    rho = I2 / 2 + np.diag([1e-11, -1e-11])
    assert dop_from_determinant(rho) == 0.0
    with pytest.raises(ValueError, match="physical"):
        dop_from_determinant(I2 / 2 + np.diag([1e-4, -1e-4]) * 1j)


def test_state_fidelity_examples():
    rho_h = density_from_jones(JONES_H)
    rho_v = density_from_jones(JONES_V)
    assert abs(state_fidelity(rho_h, rho_h) - 1.0) < 1e-12
    assert state_fidelity(rho_h, rho_v) < 1e-12
    assert abs(state_fidelity(rho_h, I2 / 2) - 0.5) < 1e-12


def test_state_fidelity_symmetric():
    rng = np.random.default_rng(4)
    for _ in range(100):
        a, b = random_density(rng), random_density(rng)
        assert abs(state_fidelity(a, b) - state_fidelity(b, a)) < 1e-10


def test_jones_from_stokes_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(100):
        j = random_pure_jones(rng)
        s = stokes_from_density(density_from_jones(j))
        j2 = jones_from_stokes(s)
        assert np.abs(stokes_from_density(density_from_jones(j2)) - s).max() < 1e-10
    with pytest.raises(ValueError, match="pure"):
        jones_from_stokes([0.5, 0.0, 0.0])
