import json

import numpy as np
import pytest

from depolsim.polarization import (
    JONES_H,
    JONES_P,
    JONES_R,
    density_from_jones,
    dop,
    state_fidelity,
    stokes_from_density,
)
from depolsim.temporal import (
    OpticalElement,
    SchemeConfig,
    apply_crystal,
    apply_element,
    collapse,
    collapse_with_coherence,
    crystal,
    half_wave,
    initial_state,
    kraus_operators,
    quarter_wave,
    run_scheme,
)
from _helpers import random_pure_jones


def random_elements(rng, max_elements=4, max_delay=3):
    elems = []
    for _ in range(rng.integers(1, max_elements + 1)):
        kind = rng.choice(["crystal", "hwp", "qwp"])
        angle = float(rng.uniform(-90, 180))
        if kind == "crystal":
            elems.append(crystal(angle, int(rng.integers(1, max_delay + 1))))
        elif kind == "hwp":
            elems.append(half_wave(angle))
        else:
            elems.append(quarter_wave(angle))
    return elems


def propagate(elems, j):
    state = initial_state(j)
    for e in elems:
        state = apply_element(state, e)
    return state


def test_initial_state_examples():
    assert np.allclose(initial_state(JONES_H)[0], [1, 0])
    assert np.allclose(initial_state(JONES_P)[0], [1 / np.sqrt(2), 1 / np.sqrt(2)])
    assert np.allclose(initial_state(JONES_R)[0], [1 / np.sqrt(2), 1j / np.sqrt(2)])


def test_crystal_moves_slow_axis_component():
    out = apply_crystal(initial_state(JONES_H), 0.0, 1)
    assert set(out) == {1}
    assert np.allclose(out[1], [1, 0])

    out = apply_crystal(initial_state(JONES_P), 0.0, 1)
    assert set(out) == {0, 1}
    assert np.allclose(out[0], [0, 1 / np.sqrt(2)])
    assert np.allclose(out[1], [1 / np.sqrt(2), 0])


def test_perpendicular_equal_crystals_compensate():
    rng = np.random.default_rng(0)
    for _ in range(20):
        j = random_pure_jones(rng)
        state = apply_crystal(apply_crystal(initial_state(j), 0.0, 1), 90.0, 1)
        occupied = [t for t, a in state.items() if np.linalg.norm(a) > 1e-14]
        assert occupied == [1]
        assert np.abs(collapse(state) - density_from_jones(j)).max() < 1e-12


def test_crystal_rejects_bad_delay():
    with pytest.raises(ValueError, match="delay"):
        apply_crystal(initial_state(JONES_H), 0.0, 0)
    with pytest.raises(ValueError, match="delay"):
        crystal(0.0, 0)


@pytest.mark.parametrize("key", [2**63 - 10, 1.5, -1, True, 2**64, 2**62 + 1, np.int64(-3), "0"], ids=repr)
def test_dict_state_bins_must_be_integers_in_range(key):
    # 2**63 - 10 came back delayed to a negative bin, 1.5 was truncated to bin 1, -1 and True were accepted,
    # and 2**64 raised OverflowError
    calls = (
        lambda state: apply_crystal(state, 30.0, 2**31),
        lambda state: apply_element(state, half_wave(10.0)),
        collapse,
        lambda state: collapse_with_coherence(state, 0.3),
    )
    for call in calls:
        with pytest.raises(ValueError, match="time-bin keys"):
            call({key: JONES_P})


def test_dict_state_bins_reach_2_to_the_62():
    out = apply_crystal({2**62: JONES_P, np.int64(3): JONES_P}, 0.0, 2**31)
    assert sorted(out) == [3, 2**31 + 3, 2**62, 2**62 + 2**31]


def test_waveplate_matrices_are_unitary():
    rng = np.random.default_rng(1)
    for _ in range(50):
        angle = rng.uniform(-180, 180)
        for plate in (half_wave(angle), quarter_wave(angle)):
            bins, ops = kraus_operators(SchemeConfig((plate,)))
            assert np.array_equal(bins, [0]) and ops.shape == (1, 2, 2)
            assert np.abs(ops[0] @ ops[0].conj().T - np.eye(2)).max() < 1e-12


def test_hwp_rotates_h_to_p():
    out = apply_element(initial_state(JONES_H), half_wave(22.5))
    assert np.abs(collapse(out) - density_from_jones(JONES_P)).max() < 1e-12


def test_qwp_on_its_own_axis_is_trivial():
    out = apply_element(initial_state(JONES_H), quarter_wave(0.0))
    assert np.abs(collapse(out) - density_from_jones(JONES_H)).max() < 1e-12


def test_qwp_at_45_makes_circular_from_h():
    # sign is fixed by the package convention and cross-checked against the
    # scheme-2 closed form in test_channels
    out = apply_element(initial_state(JONES_H), quarter_wave(45.0))
    s = stokes_from_density(collapse(out))
    assert abs(s[2] + 1.0) < 1e-12
    assert abs(s[0]) < 1e-12 and abs(s[1]) < 1e-12


def test_collapse_examples():
    assert np.abs(collapse({0: np.array([1, 0], complex)}) - density_from_jones(JONES_H)).max() < 1e-15
    two_bins = {
        0: np.array([0, 1 / np.sqrt(2)], complex),
        1: np.array([1 / np.sqrt(2), 0], complex),
    }
    assert np.abs(collapse(two_bins) - np.eye(2) / 2).max() < 1e-15

    through = apply_crystal(initial_state(JONES_P), 0.0, 1)
    assert dop(collapse(through)) < 1e-12
    aligned = apply_crystal(initial_state(JONES_H), 0.0, 1)
    assert abs(dop(collapse(aligned)) - 1.0) < 1e-12


def test_collapse_with_coherence_limits():
    state = apply_crystal(initial_state(JONES_P), 0.0, 1)
    # gamma = 0 reduces to collapse exactly (same code path)
    assert np.array_equal(collapse_with_coherence(state, 0.0), collapse(state))
    # derived by direct two-bin computation: off-diagonals scale by gamma
    rho = collapse_with_coherence(state, 0.5)
    assert np.abs(rho - np.array([[0.5, 0.25], [0.25, 0.5]])).max() < 1e-12
    assert abs(dop(rho) - 0.5) < 1e-12
    # full-coherence limit restores purity
    assert dop(collapse_with_coherence(state, 1 - 1e-9)) > 1 - 1e-7
    with pytest.raises(ValueError, match="gamma"):
        collapse_with_coherence(state, 1.0)


def test_coherence_gamma_zero_matches_collapse_on_random_states():
    rng = np.random.default_rng(2)
    for _ in range(50):
        state = propagate(random_elements(rng), random_pure_jones(rng))
        assert np.array_equal(collapse_with_coherence(state, 0.0), collapse(state))


def test_norm_conservation_and_bin_bound():
    rng = np.random.default_rng(3)
    for _ in range(200):
        elems = random_elements(rng)
        state = initial_state(random_pure_jones(rng))
        total_delay = 0
        for e in elems:
            state = apply_element(state, e)
            if e.kind == "crystal":
                total_delay += e.delay_bins
            assert abs(sum(np.vdot(a, a).real for a in state.values()) - 1.0) < 1e-12
        assert all(0 <= t <= total_delay for t in state)


def test_collapse_is_psd_for_random_sequences():
    rng = np.random.default_rng(4)
    for _ in range(10_000):
        state = propagate(random_elements(rng, max_elements=3), random_pure_jones(rng))
        rho = collapse(state)
        assert np.linalg.eigvalsh(rho).min() >= -1e-12
        assert abs(np.trace(rho).real - 1.0) < 1e-12


def test_carrier_phase_independence():
    rng = np.random.default_rng(5)
    for _ in range(100):
        state = propagate(random_elements(rng), random_pure_jones(rng))
        phase = rng.uniform(0, 2 * np.pi)
        shifted = {t: a * np.exp(1j * phase * t) for t, a in state.items()}
        assert np.abs(collapse(state) - collapse(shifted)).max() < 1e-12


def test_single_crystal_projects_stokes_vector():
    rng = np.random.default_rng(6)
    for _ in range(200):
        phi = rng.uniform(0, 180)
        j = random_pure_jones(rng)
        u = np.array([np.cos(np.deg2rad(2 * phi)), np.sin(np.deg2rad(2 * phi)), 0.0])
        s_in = stokes_from_density(density_from_jones(j))
        s_out = stokes_from_density(collapse(apply_crystal(initial_state(j), phi, 1)))
        assert np.abs(s_out - (s_in @ u) * u).max() < 1e-10


def test_run_scheme_examples():
    rng = np.random.default_rng(7)
    compensated = SchemeConfig((crystal(0.0, 1), crystal(90.0, 1)))
    for _ in range(10):
        j = random_pure_jones(rng)
        assert abs(state_fidelity(run_scheme(compensated, j), density_from_jones(j)) - 1.0) < 1e-12

    lyot = SchemeConfig((crystal(0.0, 1), crystal(45.0, 2)))
    for j in (JONES_H, JONES_P, JONES_R):
        assert dop(run_scheme(lyot, j)) < 1e-12

    one_crystal = SchemeConfig((crystal(0.0, 1),))
    assert np.abs(stokes_from_density(run_scheme(one_crystal, JONES_R))).max() < 1e-12


def test_run_scheme_uses_coherence():
    config = SchemeConfig((crystal(0.0, 1),), coherence=0.5)
    assert abs(dop(run_scheme(config, JONES_P)) - 0.5) < 1e-12


def test_element_validation():
    with pytest.raises(ValueError, match="kind"):
        OpticalElement("polarizer")
    with pytest.raises(ValueError, match="no delay"):
        OpticalElement("hwp", angle_deg=10.0, delay_bins=1)
    with pytest.raises(ValueError, match="at least one element"):
        SchemeConfig(())
    with pytest.raises(ValueError, match="coherence"):
        SchemeConfig((crystal(0, 1),), coherence=1.0)


def test_scheme_config_json_round_trip():
    config = SchemeConfig(
        (half_wave(12.5), crystal(0.0, 1), quarter_wave(-30.0), crystal(90.0, 2)),
        coherence=0.25,
    )
    data = config.to_json()
    text = json.dumps(data)
    back = SchemeConfig.from_json(text)
    assert back.coherence == config.coherence
    assert len(back.elements) == len(config.elements)
    for a, b in zip(back.elements, config.elements):
        assert (a.kind, a.angle_deg, a.delay_bins) == (b.kind, b.angle_deg, b.delay_bins)
    # propagation order is the list order
    rng = np.random.default_rng(8)
    j = random_pure_jones(rng)
    assert np.abs(run_scheme(back, j) - run_scheme(config, j)).max() < 1e-15


def test_scheme_config_refuses_a_coherence_that_is_not_a_number():
    # False was stored, and to_json then wrote a document that from_json refuses; "0.5" raised TypeError
    for coherence in (False, True, np.False_, "0.5", "0", None, [0.1], np.array([0.1]), 0.5j, 10**400):
        with pytest.raises(ValueError, match=r"coherence must be a number in \[0, 1\)"):
            SchemeConfig((crystal(0.0, 1),), coherence=coherence)
    # other real numbers are stored as floats, and the document round-trips
    for coherence in (0, np.float64(0.25), np.float32(0.5), np.int64(0), np.array(0.25)):
        config = SchemeConfig((crystal(0.0, 1),), coherence=coherence)
        assert type(config.coherence) is float and config.coherence == float(coherence)
        assert SchemeConfig.from_json(json.dumps(config.to_json())).coherence == config.coherence


def test_elements_refuse_numeric_strings_and_numbers_past_the_float_range():
    # "12.5" was read as 12.5 degrees, and 10**400 raised OverflowError (None and [12.5] TypeError)
    for angle in ("12.5", "0", None, [12.5], 0.5j, 10**400, -(10**400), np.array(["1.0", "2.0"]),
                  np.array([None, 1.0], dtype=object)):
        for make in (half_wave, quarter_wave, lambda a: crystal(a, 1)):
            with pytest.raises(ValueError, match="element angle must be a finite float"):
                make(angle)
    assert half_wave(2**70).angle_deg == float(2**70)
