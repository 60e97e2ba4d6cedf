"""The Kraus-form engine against the brute-force oracle, plus its input boundaries."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depolsim import temporal
from depolsim.channels import SCHEME_NAMES, affine_from_outputs, build_scheme, extract_channel
from depolsim.polarization import (
    JONES_H,
    JONES_P,
    JONES_R,
    JONES_STATES,
    JONES_V,
    density_from_jones,
    dop,
    stokes_from_density,
)
from depolsim.temporal import (
    KERNEL_FLOOR,
    OpticalElement,
    SchemeConfig,
    crystal,
    half_wave,
    kraus_operators,
    quarter_wave,
    run_scheme,
    unitary_element,
)
from depolsim.cli import main
import _oracle
from _helpers import random_pure_jones, random_unitary

GAMMAS = (0.0, 0.2, 0.7)
PROBES = (JONES_H, JONES_V, JONES_P, JONES_R)


def random_elements(rng, n_elements, max_delay):
    elems = []
    for _ in range(n_elements):
        kind = rng.integers(4)
        angle = float(rng.uniform(-90, 180))
        if kind == 0:
            elems.append(crystal(angle, int(rng.integers(1, max_delay + 1))))
        elif kind == 1:
            elems.append(half_wave(angle))
        elif kind == 2:
            elems.append(quarter_wave(angle))
        else:
            elems.append(unitary_element(random_unitary(rng)))
    return elems


def delay_chain(rng, n_crystals):
    """A random plate before each crystal, crystal delays 3**k: 2**n_crystals distinct bins."""
    elems = []
    for k in range(n_crystals):
        plate = half_wave if rng.integers(2) == 0 else quarter_wave
        elems += [plate(float(rng.uniform(0, 180))), crystal(float(rng.uniform(0, 180)), 3**k)]
    return elems


def test_oracle_elements_are_unitary():
    rng = np.random.default_rng(20)
    for _ in range(20):
        elems = random_elements(rng, 4, 3)
        size = _oracle.lattice_size(elems)
        basis = np.eye(2 * size, dtype=complex).reshape(2 * size, 2, size)
        for e in elems:
            u = np.array([_oracle.apply(e, b).ravel() for b in basis]).T
            assert np.abs(u.conj().T @ u - np.eye(2 * size)).max() < 1e-12


@pytest.mark.parametrize("gamma", GAMMAS)
def test_run_scheme_matches_oracle(gamma):
    rng = np.random.default_rng(21)
    for _ in range(40):
        elems = random_elements(rng, int(rng.integers(1, 9)), 4)
        config = SchemeConfig(tuple(elems), coherence=gamma)
        inputs = np.column_stack([random_pure_jones(rng) for _ in range(3)])
        batched = run_scheme(config, inputs)
        assert batched.shape == (3, 2, 2)
        for n in range(3):
            expected = _oracle.output(elems, gamma, inputs[:, n])
            single = run_scheme(config, inputs[:, n])
            assert single.shape == (2, 2)
            assert np.abs(single - expected).max() < 1e-12
            assert np.abs(batched[n] - expected).max() < 1e-12


@pytest.mark.parametrize("gamma", GAMMAS)
def test_extract_channel_matches_oracle(gamma):
    rng = np.random.default_rng(22)
    for _ in range(30):
        elems = random_elements(rng, int(rng.integers(1, 9)), 4)
        channel = extract_channel(SchemeConfig(tuple(elems), coherence=gamma))
        for _ in range(3):
            j = random_pure_jones(rng)
            s_in = stokes_from_density(density_from_jones(j))
            s_out = stokes_from_density(_oracle.output(elems, gamma, j))
            assert np.abs(channel.apply(s_in) - s_out).max() < 1e-12


def test_1024_bin_chain_matches_oracle():
    elems = delay_chain(np.random.default_rng(23), 10)
    config = SchemeConfig(tuple(elems), coherence=0.2)
    bins, ops = kraus_operators(config)
    assert len(bins) == 1024 and ops.shape == (1024, 2, 2)
    channel = extract_channel(config)
    expected = affine_from_outputs(*(_oracle.output(elems, 0.2, j) for j in PROBES))
    assert np.abs(channel.m - expected.m).max() < 1e-12
    assert np.abs(channel.b - expected.b).max() < 1e-12


def test_kraus_operators_give_the_incoherent_channel():
    rng = np.random.default_rng(24)
    for _ in range(20):
        config = SchemeConfig(tuple(random_elements(rng, 6, 3)))
        bins, ops = kraus_operators(config)
        assert bins.dtype == np.int64 and np.all(np.diff(bins) > 0)
        j = random_pure_jones(rng)
        kraus_form = np.einsum("tij,jk,tlk->il", ops, density_from_jones(j), ops.conj())
        assert np.abs(run_scheme(config, j) - kraus_form).max() < 1e-12


def test_kernel_cutoff_drops_pairs_below_the_floor():
    # gamma = 1/2: the weight 2**-(d*d) of one crystal's two bins is kept up to d = 7 (2**-49)
    for delay, weight in ((7, 2.0**-49), (8, 0.0)):
        assert (weight >= KERNEL_FLOOR) == (delay == 7)
        config = SchemeConfig((crystal(0.0, delay),), coherence=0.5)
        rho = run_scheme(config, JONES_P)
        assert rho[0, 1] == pytest.approx(weight / 2.0, rel=1e-12, abs=0.0)
        # the dropped part is bounded by B * 2**-60 for B = 2 occupied bins
        exact = _oracle.output(config.elements, 0.5, JONES_P)
        assert abs(rho[0, 1] - exact[0, 1]) <= 2 * KERNEL_FLOOR


def test_run_scheme_input_validation():
    config = SchemeConfig((crystal(0.0, 1),))
    for bad in (np.ones(3), np.ones((3, 2)), np.ones((2, 2, 2)), np.column_stack([JONES_H, 2 * JONES_V])):
        with pytest.raises(ValueError):
            run_scheme(config, bad)
    with pytest.raises(ValueError, match="normalized"):
        run_scheme(config, np.column_stack([JONES_H, [np.nan, 0.0]]))
    assert run_scheme(config, np.zeros((2, 0), dtype=complex)).shape == (0, 2, 2)


def test_elements_reject_non_finite_and_fractional_values():
    for angle in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            crystal(angle, 1)
        with pytest.raises(ValueError, match="finite"):
            quarter_wave(angle)
    for delay in (1.5, np.inf, np.nan, "2", 2**40):
        with pytest.raises(ValueError, match="delay"):
            crystal(0.0, delay)
    assert crystal(0.0, 3.0).delay_bins == 3
    with pytest.raises(ValueError, match="unitary"):
        OpticalElement("unitary", unitary=np.full((2, 2), np.nan))


def test_occupied_bin_cap(monkeypatch, tmp_path, capsys):
    # delays 2**k with generic axes double the occupied bins at every crystal
    chain = SchemeConfig(tuple(crystal(10.0 * k, 2**k) for k in range(5)))
    monkeypatch.setattr(temporal, "MAX_BINS", 8)
    bins, _ = kraus_operators(SchemeConfig(chain.elements[:3]))
    assert len(bins) == 8
    with pytest.raises(ValueError, match="occupied time bins"):
        kraus_operators(chain)
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(chain.to_json()))
    assert main(["map", "--scheme", str(path), "--samples", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "occupied time bins" in json.loads(captured.err)["error"]


@pytest.mark.parametrize(
    "doc",
    [
        {"elements": [{"kind": "crystal", "angle_deg": 0.0}]},
        {"elements": 5},
        {"elements": [5]},
        {"elements": [{"angle_deg": 0.0}]},
        {"elements": [{"kind": "hwp", "angle_deg": None}]},
        {"elements": [{"kind": "crystal", "angle_deg": float("nan"), "delay_bins": 1}]},
        {"elements": [{"kind": "crystal", "angle_deg": 0.0, "delay_bins": 1e400}]},
        {"coherence": None, "elements": [{"kind": "hwp", "angle_deg": 0.0}]},
        {"coherence": 1.5, "elements": [{"kind": "hwp", "angle_deg": 0.0}]},
        {"elements": [{"kind": "unitary", "angle_deg": 0.0}]},
        [1, 2],
        "not json",
    ],
)
def test_scheme_json_errors_are_value_errors(doc):
    with pytest.raises(ValueError):
        SchemeConfig.from_json(doc if isinstance(doc, str) else json.dumps(doc))


# --- angle batches: one propagation for T configs that differ only in their angles ---


def bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


# anchor angles (0, 45, 90 deg, the isotropic point) among generic ones
BATCH_THETAS = (0.0, 0.1, 12.5, 30.0, 45.0, 54.7356, 67.5, 89.9, 90.0)
ALL_INPUTS = np.column_stack(list(JONES_STATES.values()))


@pytest.mark.parametrize("gamma", (0.0, 0.3))
@pytest.mark.parametrize("scheme", SCHEME_NAMES)
def test_batched_run_scheme_equals_per_config_calls_bitwise(scheme, gamma):
    configs = [build_scheme(scheme, None if scheme == "lyot" else theta, coherence=gamma) for theta in BATCH_THETAS]
    batched = run_scheme(configs, ALL_INPUTS)
    assert batched.shape == (len(configs), 6, 2, 2)
    assert np.array_equal(bits(batched), bits([run_scheme(c, ALL_INPUTS) for c in configs]))
    one_input = run_scheme(configs, JONES_P)
    assert one_input.shape == (len(configs), 2, 2)
    assert np.array_equal(bits(one_input), bits([run_scheme(c, JONES_P) for c in configs]))


def test_batch_propagates_each_config_on_its_own_bins():
    # at theta = 0 the second crystal moves nothing into bin 1, so that config occupies bins {0, 2} only;
    # the trailing unitary multiplies every bin, and a BLAS product need not give a bin the same bits
    # when the number of bins changes, so each config must keep exactly its own bins
    u = random_unitary(np.random.default_rng(25))
    configs = [SchemeConfig((crystal(theta, 1), crystal(0.0, 1), unitary_element(u))) for theta in BATCH_THETAS]
    groups = temporal._propagate(configs)
    assert len(groups) == 2
    members = np.concatenate([np.arange(len(configs))[m] for m, _, _ in groups])
    assert sorted(members) == list(range(len(configs)))
    for m, bins, _ in groups:
        for t in np.arange(len(configs))[m]:
            assert np.array_equal(bins, kraus_operators(configs[t])[0])
    assert np.array_equal(kraus_operators(configs[0])[0], [0, 2])
    batched = run_scheme(configs, ALL_INPUTS)
    assert np.array_equal(bits(batched), bits([run_scheme(c, ALL_INPUTS) for c in configs]))


# a crystal at exactly 0 deg has exact projectors, so a run of them zeroes some bins for some configs only
batch_angles = st.one_of(st.just(0.0), st.sampled_from([45.0, 90.0]) | st.floats(-180.0, 180.0, allow_nan=False))


@st.composite
def angle_batches(draw):
    """T configs on one random element list, with per-config unitaries.

    Each angle of a config is either the list's shared angle or its own draw.
    """
    kind_choice = st.sampled_from(["crystal", "crystal", "crystal", "hwp", "qwp", "unitary"])
    kinds = draw(st.lists(kind_choice, min_size=1, max_size=7))
    delays = [draw(st.integers(1, 3)) for _ in kinds]
    shared = [draw(batch_angles) for _ in kinds]
    gamma = draw(st.sampled_from([0.0, 0.3]))
    configs = []
    for _ in range(draw(st.integers(1, 5))):
        elems = []
        for kind, delay, angle in zip(kinds, delays, shared):
            if kind != "unitary" and draw(st.booleans()):
                angle = draw(batch_angles)
            if kind == "crystal":
                elems.append(crystal(angle, delay))
            elif kind == "unitary":
                seed = draw(st.integers(0, 2**32 - 1))
                elems.append(unitary_element(random_unitary(np.random.default_rng(seed))))
            else:
                elems.append(OpticalElement(kind, angle_deg=angle))
        configs.append(SchemeConfig(tuple(elems), coherence=gamma))
    return configs


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(configs=angle_batches())
def test_batched_run_scheme_property(configs):
    batched = run_scheme(configs, ALL_INPUTS)
    assert np.array_equal(bits(batched), bits([run_scheme(c, ALL_INPUTS) for c in configs]))


def test_mismatched_batches_raise():
    base = SchemeConfig((crystal(0.0, 1), quarter_wave(10.0), crystal(90.0, 2)))
    for other in (
        SchemeConfig((crystal(5.0, 1), half_wave(10.0), crystal(90.0, 2))),
        SchemeConfig((crystal(5.0, 1), quarter_wave(10.0), crystal(90.0, 3))),
        SchemeConfig((crystal(5.0, 1), quarter_wave(10.0))),
        SchemeConfig(base.elements, coherence=0.3),
    ):
        with pytest.raises(ValueError, match="batch"):
            run_scheme([base, other], JONES_P)
    with pytest.raises(ValueError, match="batch"):
        run_scheme([base, "scheme2"], JONES_P)
    with pytest.raises(ValueError, match="at least one"):
        run_scheme([], JONES_P)


def test_occupied_bin_cap_applies_to_a_batch(monkeypatch):
    monkeypatch.setattr(temporal, "MAX_BINS", 8)
    three = [SchemeConfig(tuple(crystal(10.0 * k + t, 2**k) for k in range(3))) for t in (0.0, 3.0)]
    assert run_scheme(three, JONES_P).shape == (2, 2, 2)
    four = [SchemeConfig(tuple(crystal(10.0 * k + t, 2**k) for k in range(4))) for t in (0.0, 3.0)]
    with pytest.raises(ValueError, match="occupied time bins"):
        run_scheme(four, JONES_P)


def test_stacked_stokes_and_dop_equal_per_matrix_calls_bitwise():
    configs = [build_scheme("isotropic_triple", theta, coherence=0.3) for theta in BATCH_THETAS]
    rhos = run_scheme(configs, ALL_INPUTS)
    s, d = stokes_from_density(rhos), dop(rhos)
    assert s.shape == (len(configs), 6, 3) and d.shape == (len(configs), 6)
    assert np.array_equal(bits(s), bits([[stokes_from_density(r) for r in row] for row in rhos]))
    assert np.array_equal(bits(d), bits([[dop(r) for r in row] for row in rhos]))
    assert isinstance(dop(rhos[0, 0]), float) and stokes_from_density(rhos[0, 0]).shape == (3,)
