"""The Kraus-form engine against the brute-force oracle, plus its input boundaries."""

import dataclasses
import json
import re
import sys

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
    NORM_ATOL,
    as_jones,
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
)
from depolsim.cli import main
import _oracle
from _helpers import random_pure_jones

GAMMAS = (0.0, 0.2, 0.7)
PROBES = (JONES_H, JONES_V, JONES_P, JONES_R)


def random_elements(rng, n_elements, max_delay):
    elems = []
    for _ in range(n_elements):
        kind = rng.integers(3)
        angle = float(rng.uniform(-90, 180))
        if kind == 0:
            elems.append(crystal(angle, int(rng.integers(1, max_delay + 1))))
        elif kind == 1:
            elems.append(half_wave(angle))
        else:
            elems.append(quarter_wave(angle))
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


# exact anchor angles, of either sign at 0 deg, zero projector entries; the bins must not depend on them
kraus_angles = st.sampled_from([0.0, -0.0, 45.0, 90.0]) | st.floats(-180.0, 180.0, allow_nan=False)


@st.composite
def element_lists(draw):
    elements = []
    for _ in range(draw(st.integers(1, 7))):
        kind, angle = draw(st.sampled_from(["crystal", "crystal", "hwp", "qwp"])), draw(kraus_angles)
        if kind == "crystal":
            elements.append(crystal(angle, draw(st.integers(1, 9))))
        else:
            elements.append(OpticalElement(kind, angle_deg=angle))
    return SchemeConfig(tuple(elements))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(config=element_lists())
def test_kraus_bins_are_the_subset_sums_of_the_delays(config):
    sums = {0}
    for element in config.elements:
        if element.kind == "crystal":
            sums |= {s + element.delay_bins for s in sums}
    bins, ops = kraus_operators(config)
    assert bins.tolist() == sorted(sums)
    assert np.abs(np.einsum("tji,tjk->ik", ops.conj(), ops) - np.eye(2)).max() < 1e-12


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
    # one bad column among good ones raises the as_jones message with its |j|^2
    for column, norm2 in (([0.0, 2.0], "4.0"), ([np.nan, 0.0], "nan"), ([1e200, 0.0], "inf"), ([np.inf, 0.0], "inf")):
        with pytest.raises(ValueError, match=re.escape(f"Jones vector is not normalized: |j|^2 = {norm2}")):
            run_scheme(config, np.column_stack([JONES_H, column, JONES_V]))
    # within the tolerance of as_jones, a column passes
    assert run_scheme(config, np.column_stack([JONES_H, [1.0 + 2e-11, 0.0]])).shape == (2, 2, 2)
    assert run_scheme(config, np.zeros((2, 0), dtype=complex)).shape == (0, 2, 2)


def test_a_stack_column_and_a_single_vector_meet_the_same_norm_rule():
    # columns within a few ulps of |j|^2 = 1 -+ NORM_ATOL, where two ways of rounding the norm can disagree
    config = SchemeConfig((crystal(0.0, 1),))
    rng = np.random.default_rng(31)
    outcomes = set()
    for _ in range(300):
        unit = random_pure_jones(rng)
        for edge in (1.0 + NORM_ATOL, 1.0 - NORM_ATOL):
            column = unit * np.sqrt(edge) * (1.0 + int(rng.integers(-6, 7)) * np.finfo(float).eps)
            refused = []
            for call in (
                lambda: as_jones(column),
                lambda: run_scheme(config, column),
                lambda: run_scheme(config, np.column_stack([JONES_H, column])),
            ):
                try:
                    call()
                    refused.append(False)
                except ValueError:
                    refused.append(True)
            assert len(set(refused)) == 1
            outcomes.add(refused[0])
    assert outcomes == {False, True}


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


def test_deeply_nested_scheme_json_is_a_value_error():
    for text in ('{"elements":' + "[" * 100_000, '{"elements":' + "[" * 100_000 + "]" * 100_000 + "}"):
        with pytest.raises(ValueError, match="RecursionError"):
            SchemeConfig.from_json(text)


@pytest.mark.parametrize(
    "coherence, element",
    [
        (0.0, {"kind": "crystal", "angle_deg": "45", "delay_bins": 1}),
        (0.0, {"kind": "hwp", "angle_deg": True}),
        (0.0, {"kind": "crystal", "angle_deg": 0.0, "delay_bins": True}),
        (0.0, {"kind": "crystal", "angle_deg": 0.0, "delay_bins": "1"}),
        ("0.5", {"kind": "qwp", "angle_deg": 0.0}),
        (False, {"kind": "qwp", "angle_deg": 0.0}),
    ],
)
def test_scheme_json_angles_delays_and_coherence_must_be_numbers(coherence, element):
    with pytest.raises(ValueError, match="must be a number"):
        SchemeConfig.from_json(json.dumps({"coherence": coherence, "elements": [element]}))


def test_scheme_json_takes_ints_and_rejects_numbers_beyond_the_float_range():
    config = SchemeConfig.from_json('{"coherence": 0, "elements": [{"kind": "crystal", "angle_deg": 45, "delay_bins": 2}]}')
    assert config.coherence == 0.0 and config.elements[0].angle_deg == 45.0 and config.elements[0].delay_bins == 2
    for doc in (
        {"elements": [{"kind": "hwp", "angle_deg": 10**400}]},
        {"coherence": 10**400, "elements": [{"kind": "hwp", "angle_deg": 0}]},
    ):
        with pytest.raises(ValueError, match="OverflowError"):
            SchemeConfig.from_json(json.dumps(doc))


# --- angle batches: one config whose array angles stand for T configs that differ only in their angles ---


def bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


# anchor angles (0, 45, 90 deg, the isotropic point) among generic ones
BATCH_THETAS = (0.0, 0.1, 12.5, 30.0, 45.0, 54.7356, 67.5, 89.9, 90.0)
ALL_INPUTS = np.column_stack(list(JONES_STATES.values()))


@pytest.mark.parametrize("gamma", (0.0, 0.3))
@pytest.mark.parametrize("scheme", SCHEME_NAMES)
def test_batched_run_scheme_equals_per_config_calls_bitwise(scheme, gamma):
    config = build_scheme(scheme, np.array(BATCH_THETAS), coherence=gamma)
    singles = [build_scheme(scheme, theta, coherence=gamma) for theta in BATCH_THETAS]
    batched, one_input = run_scheme(config, ALL_INPUTS), run_scheme(config, JONES_P)
    if scheme == "lyot":
        # no angle to batch: the array is ignored and the config is the single one
        assert config.batch is None
        batched, one_input, singles = batched[None], one_input[None], singles[:1]
    else:
        assert config.batch == len(BATCH_THETAS)
    assert batched.shape == (len(singles), 6, 2, 2) and one_input.shape == (len(singles), 2, 2)
    assert np.array_equal(bits(batched), bits([run_scheme(c, ALL_INPUTS) for c in singles]))
    assert np.array_equal(bits(one_input), bits([run_scheme(c, JONES_P) for c in singles]))


def test_batch_keeps_a_bin_emptied_for_one_config():
    # at theta = 0 the second crystal moves nothing into bin 1, but bins follow from the delays alone:
    # that config keeps bin 1 with a zero Kraus operator, and the batch runs every config on bins [0, 1, 2]
    config = SchemeConfig((crystal(np.array(BATCH_THETAS), 1), crystal(0.0, 1), quarter_wave(37.3)))
    singles = [SchemeConfig((crystal(theta, 1), crystal(0.0, 1), quarter_wave(37.3))) for theta in BATCH_THETAS]
    bins, ops = kraus_operators(singles[0])
    assert np.array_equal(bins, [0, 1, 2])
    assert not ops[1].any() and ops[0].any() and ops[2].any()
    batched = run_scheme(config, ALL_INPUTS)
    assert np.array_equal(bits(batched), bits([run_scheme(c, ALL_INPUTS) for c in singles]))


# a crystal at exactly 0 deg has exact projectors, so a run of them zeroes some bins for some configs only
batch_angles = st.one_of(st.just(0.0), st.sampled_from([45.0, 90.0]) | st.floats(-180.0, 180.0, allow_nan=False))


@st.composite
def angle_batches(draw):
    """A batched config on a random element list, and the single configs it stands for.

    Each element's angle is either one float for the whole batch or an
    array whose entries are that float or their own draw.  When every
    angle is a float the config is not batched and stands for one single
    config.
    """
    kind_choice = st.sampled_from(["crystal", "crystal", "crystal", "hwp", "qwp"])
    kinds = draw(st.lists(kind_choice, min_size=1, max_size=7))
    delays = [draw(st.integers(1, 3)) for _ in kinds]
    gamma = draw(st.sampled_from([0.0, 0.3]))
    n_configs = draw(st.integers(1, 5))
    angles = []
    for _ in kinds:
        shared = draw(batch_angles)
        if draw(st.booleans()):
            angles.append(shared)
        else:
            angles.append([shared if draw(st.booleans()) else draw(batch_angles) for _ in range(n_configs)])
    if all(isinstance(angle, float) for angle in angles):
        n_configs = 1

    def element(kind, delay, angle):
        return crystal(angle, delay) if kind == "crystal" else OpticalElement(kind, angle_deg=angle)

    config = SchemeConfig(
        tuple(element(k, d, a if isinstance(a, float) else np.array(a)) for k, d, a in zip(kinds, delays, angles)),
        coherence=gamma,
    )
    singles = [
        SchemeConfig(
            tuple(element(k, d, a if isinstance(a, float) else a[t]) for k, d, a in zip(kinds, delays, angles)),
            coherence=gamma,
        )
        for t in range(n_configs)
    ]
    return config, singles


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(batch=angle_batches())
def test_batched_run_scheme_property(batch):
    config, singles = batch
    batched = run_scheme(config, ALL_INPUTS)
    if config.batch is None:
        batched = batched[None]
    assert np.array_equal(bits(batched), bits([run_scheme(c, ALL_INPUTS) for c in singles]))


def test_mismatched_batches_raise():
    with pytest.raises(ValueError, match="share their length"):
        SchemeConfig((crystal(np.zeros(2), 1), quarter_wave(np.zeros(3)), crystal(90.0, 2)))
    for bad in (np.zeros((2, 2)), np.zeros(0), np.array([0.0, np.nan]), np.array([np.inf, 1.0])):
        for make in (lambda a: crystal(a, 1), half_wave, quarter_wave):
            with pytest.raises(ValueError, match="non-empty 1-D array"):
                make(bad)


def test_single_config_consumers_reject_a_batch():
    config = build_scheme("scheme2", np.array([0.0, 10.0]))
    assert config.batch == 2
    for consume in (kraus_operators, extract_channel, SchemeConfig.to_json):
        with pytest.raises(ValueError, match="batch of 2"):
            consume(config)
    with pytest.raises(ValueError, match="batch of 2"):
        temporal.apply_element(temporal.initial_state(JONES_P), config.elements[1])
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.batch = None
    # an element keeps a read-only copy of its angles, and a 0-d angle is a float
    angles = np.array([1.0, 2.0])
    plate = quarter_wave(angles)
    angles[0] = 5.0
    assert plate.angle_deg.tolist() == [1.0, 2.0] and not plate.angle_deg.flags.writeable
    assert type(quarter_wave(np.array(3.0)).angle_deg) is float
    assert SchemeConfig((plate, crystal(0.0, 1))).batch == 2 and SchemeConfig((crystal(0.0, 1),)).batch is None


def test_occupied_bin_cap_applies_to_a_batch(monkeypatch):
    monkeypatch.setattr(temporal, "MAX_BINS", 8)
    offsets = np.array([0.0, 3.0])
    three = SchemeConfig(tuple(crystal(10.0 * k + offsets, 2**k) for k in range(3)))
    assert run_scheme(three, JONES_P).shape == (2, 2, 2)
    four = SchemeConfig(tuple(crystal(10.0 * k + offsets, 2**k) for k in range(4)))
    with pytest.raises(ValueError, match="occupied time bins"):
        run_scheme(four, JONES_P)


def test_stacked_stokes_and_dop_equal_per_matrix_calls_bitwise():
    rhos = run_scheme(build_scheme("isotropic_triple", np.array(BATCH_THETAS), coherence=0.3), ALL_INPUTS)
    s, d = stokes_from_density(rhos), dop(rhos)
    assert s.shape == (len(BATCH_THETAS), 6, 3) and d.shape == (len(BATCH_THETAS), 6)
    assert np.array_equal(bits(s), bits([[stokes_from_density(r) for r in row] for row in rhos]))
    assert np.array_equal(bits(d), bits([[dop(r) for r in row] for row in rhos]))
    assert isinstance(dop(rhos[0, 0]), float) and stokes_from_density(rhos[0, 0]).shape == (3,)


# --- the coherent band stops at its first position whose closest pair is beyond the kernel's reach ---

# exact anchor angles zero projector entries, and with them amplitudes and whole bins
band_angles = st.sampled_from([0.0, 45.0, 90.0]) | st.floats(-180.0, 180.0, allow_nan=False)
# 3**k delays give every bin its own subset sum; other gaps make runs of bins of any spacing
sparse_delays = st.sampled_from([1, 3, 9, 27, 81]) | st.integers(1, 400)


@st.composite
def sparse_bin_schemes(draw):
    """Up to 7 crystals with sparse delays, each after an optional wave plate, at gamma in (0, 0.99]."""
    elements = []
    for _ in range(draw(st.integers(1, 7))):
        if draw(st.booleans()):
            elements.append(OpticalElement(draw(st.sampled_from(["hwp", "qwp"])), angle_deg=draw(band_angles)))
        elements.append(crystal(draw(band_angles), draw(sparse_delays)))
    gamma = draw(st.sampled_from([0.2, 0.5, 0.99]) | st.floats(0.0, 0.99, exclude_min=True))
    return SchemeConfig(tuple(elements), coherence=gamma)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(config=sparse_bin_schemes())
def test_band_stop_keeps_every_output_bit(config):
    # signed zeros included: a skipped position could only have added zeros
    expected = _oracle.full_band_run_scheme(config, ALL_INPUTS)
    assert np.array_equal(bits(run_scheme(config, ALL_INPUTS)), bits(expected))


def test_a_sparse_chain_runs_only_its_live_band_positions(monkeypatch):
    # the chain's bins are at least 1, 3 and 4 apart at positions 1, 2 and 3, and at least 9 apart from
    # position 4 on, beyond the half-width 6 at gamma = 0.2
    config = SchemeConfig(tuple(delay_chain(np.random.default_rng(25), 7)), coherence=0.2)
    bins, _ = kraus_operators(config)
    assert len(bins) == 128 and temporal._band_halfwidth(0.2) == 6
    positions = []

    class RecordingNumpy:
        """numpy, except that squaring the B - k bin distances of position k records k."""

        def __getattr__(self, name):
            return getattr(np, name)

        def square(self, distances, **kwargs):
            positions.append(len(bins) - len(distances))
            return np.square(distances, **kwargs)

    monkeypatch.setattr(temporal, "np", RecordingNumpy())
    temporal._cached_band_plan.cache_clear()  # a cached plan would square no distances
    run_scheme(config, JONES_P)
    assert positions == [1, 2, 3]


# --- band plans are memoized per (bins, gamma), within a stated memory bound ---


def test_the_band_plan_cache_stays_below_16_mb():
    # dense bins keep every position live; each length gets the largest reach the weight cap admits
    worst = 0
    for n_bins in (2, 8, 63, 64, 65, 512, 1024):
        reach = min(n_bins - 1, temporal._BAND_CACHE_WEIGHTS // n_bins)
        gamma = 2.0 ** (-60.0 / ((reach - 1) ** 2 + 0.5))  # the gamma whose half-width is `reach`
        assert temporal._band_halfwidth(gamma) == reach
        bins = np.arange(n_bins, dtype=np.int64)
        plan = temporal._band_plan(bins, gamma)
        assert [k for k, _ in plan] == list(range(1, reach + 1))
        size = sys.getsizeof(bins.tobytes()) + sys.getsizeof(gamma) + sys.getsizeof(plan)
        size += sum(sys.getsizeof(entry) + sum(map(sys.getsizeof, entry)) for entry in plan)
        worst = max(worst, size)
    assert worst * temporal._cached_band_plan.cache_parameters()["maxsize"] < 16 * 2**20


# --- more than _PLAN_CACHE_BINS bins get their merge and band plans without the caches ---


def test_uncached_merge_plans_keep_every_output_bit(monkeypatch):
    configs = [build_scheme(name, 22.5, coherence=0.3) for name in SCHEME_NAMES]
    configs.append(build_scheme("isotropic_triple", np.array(BATCH_THETAS), coherence=0.3))
    configs.append(SchemeConfig(tuple(delay_chain(np.random.default_rng(23), 10)), coherence=0.2))
    configs.append(SchemeConfig(tuple(delay_chain(np.random.default_rng(23), 6)), coherence=0.2))
    caches = (temporal._cached_merge_plan, temporal._cached_band_plan)

    def lookups():
        return [cache.cache_info().hits + cache.cache_info().misses for cache in caches]

    before = lookups()
    cached = [run_scheme(config, ALL_INPUTS) for config in configs]
    after = lookups()
    assert all(n > m for n, m in zip(after, before))
    # with the cap at 0 every step and every trace-out takes the uncached path, and neither cache sees a lookup
    monkeypatch.setattr(temporal, "_PLAN_CACHE_BINS", 0)
    for config, expected in zip(configs, cached):
        assert np.array_equal(bits(run_scheme(config, ALL_INPUTS)), bits(expected))
    assert lookups() == after


# --- the last single propagation is held, so the probe calls of one tomography run propagate once ---


def memo_configs():
    configs = [build_scheme(name, 22.5, coherence=gamma) for name in SCHEME_NAMES for gamma in (0.0, 0.3)]
    configs.append(SchemeConfig(tuple(delay_chain(np.random.default_rng(26), 6)), coherence=0.2))
    return configs


def probe_calls(config):
    return [run_scheme(config, probe) for probe in PROBES]


def test_held_propagations_keep_every_output_bit(monkeypatch):
    configs = memo_configs()
    held = [probe_calls(config) for config in configs]
    # A, B, A: a config that comes back after another one is propagated again, not read from a stale entry
    interleaved = [probe_calls(config) for pair in zip(configs, configs[1:]) for config in pair]
    monkeypatch.setattr(temporal, "_PLAN_CACHE_BINS", 0)
    uncached = [probe_calls(config) for config in configs]
    assert np.array_equal(bits(held), bits(uncached))
    assert np.array_equal(bits(interleaved), bits([uncached[i] for k in range(len(configs) - 1) for i in (k, k + 1)]))


def test_only_the_first_probe_call_propagates(monkeypatch):
    propagations = []
    element_table = temporal._element_table

    def counting_table(elements, n_configs, rows):
        propagations.append(rows)
        return element_table(elements, n_configs, rows)

    monkeypatch.setattr(temporal, "_element_table", counting_table)
    for config in memo_configs():
        propagations.clear()
        probe_calls(config)
        assert propagations == [4, 2]  # one propagation builds one crystal table and one plate table
    # with the cap at 0 the memo is off: every call propagates, the held config included, and nothing new is held
    assert temporal._last_propagation[0] is config
    monkeypatch.setattr(temporal, "_PLAN_CACHE_BINS", 0)
    for config in (config, memo_configs()[0]):
        propagations.clear()
        probe_calls(config)
        assert len(propagations) == 2 * len(PROBES)
    assert temporal._last_propagation[0] is not config


def test_the_memo_holds_one_read_only_single_config():
    config = build_scheme("isotropic_triple", 30.0)
    run_scheme(config, JONES_H)
    held, bins, amps = temporal._last_propagation
    assert held is config and len(bins) == 27
    assert not amps.flags.writeable and not bins.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        amps[...] = 0.0
    # a batch, and a config on more than _PLAN_CACHE_BINS bins, are never held; the last single config stays
    batch = build_scheme("isotropic_triple", np.array(BATCH_THETAS))
    wide = SchemeConfig(tuple(delay_chain(np.random.default_rng(27), 11)))
    for other in (batch, wide):
        run_scheme(other, ALL_INPUTS)
        assert temporal._last_propagation[0] is config
    assert len(kraus_operators(wide)[0]) > temporal._PLAN_CACHE_BINS
    # the next single config replaces it: one config at most
    other = build_scheme("scheme1", 30.0)
    run_scheme(other, JONES_H)
    assert temporal._last_propagation[0] is other and len(temporal._last_propagation) == 3


def test_kraus_operators_are_fresh_and_writable():
    # plates only: the single bin's operator is already contiguous, so a view would share the held amplitudes
    for config in (SchemeConfig((half_wave(10.0), quarter_wave(30.0))), build_scheme("scheme1", 30.0, coherence=0.3)):
        expected = run_scheme(config, ALL_INPUTS)
        bins, ops = kraus_operators(config)
        held_amps = temporal._last_propagation[2]
        assert bins.flags.writeable and ops.flags.writeable
        assert not np.shares_memory(ops, held_amps) and not np.shares_memory(bins, temporal._last_propagation[1])
        ops[...] = 7.0
        bins[...] = 5
        assert np.array_equal(bits(run_scheme(config, ALL_INPUTS)), bits(expected))
