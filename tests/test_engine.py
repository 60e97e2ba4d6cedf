"""The Kraus-form engine against the brute-force oracle, plus its input boundaries."""

import dataclasses
import hashlib
import json
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depolsim import measurement, polarization, temporal, tomography
from depolsim.channels import SCHEME_NAMES, build_scheme, extract_channel, extract_chi
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
from _helpers import random_pure_jones, signed_zero_matrices

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
    expected = _oracle.affine_from_outputs(*(_oracle.output(elems, 0.2, j) for j in PROBES))
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


def test_elements_refuse_bool_angles_and_delays():
    # True is not 1 degree nor a delay of one bin, in the Python API as in a scheme document
    for flag in (True, False, np.True_, np.False_):
        for make in (half_wave, quarter_wave, lambda angle: crystal(angle, 1)):
            with pytest.raises(ValueError, match="element angle must be a finite float"):
                make(flag)
        with pytest.raises(ValueError, match="crystal delay must be an integer"):
            crystal(0.0, flag)
    with pytest.raises(ValueError, match="element angle must be a finite float"):
        half_wave(np.array([True, False]))
    with pytest.raises(ValueError, match="element angle must be a finite float"):
        half_wave(np.array(True))


def test_a_float_angle_element_equals_the_converted_one():
    # a Python float is kept as it is; numpy floats, ints and 0-d arrays are converted to it, with the same matrix
    for make in (half_wave, quarter_wave, lambda angle: crystal(angle, 2)):
        expected = make(12.5)
        for angle in (np.float64(12.5), np.float32(12.5), np.array(12.5), 12.5):
            element = make(angle)
            assert type(element.angle_deg) is float and element.angle_deg == 12.5
            assert element._matrix.tobytes() == expected._matrix.tobytes() and not element._matrix.flags.writeable
        assert type(make(3).angle_deg) is float and make(3)._matrix.tobytes() == make(3.0)._matrix.tobytes()


def test_occupied_bin_cap(monkeypatch, tmp_path, capsys):
    # delays 2**k with generic axes double the occupied bins at every crystal
    chain = SchemeConfig(tuple(crystal(10.0 * k, 2**k) for k in range(5)))
    monkeypatch.setattr(temporal, "MAX_BINS", 8)
    temporal._cached_plan.cache_clear()  # a plan memoized under the real cap would skip the check
    bins, _ = kraus_operators(SchemeConfig(chain.elements[:3]))
    assert len(bins) == 8
    with pytest.raises(ValueError, match="occupied time bins"):
        kraus_operators(chain)
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(chain.to_json()))
    assert main(["map", "--scheme", str(path), "--samples", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "occupied time bins" in json.loads(captured.err)["error"]


def test_a_coherent_band_past_max_band_pairs_is_refused(tmp_path, capsys):
    # 12 crystals of delays 2**k fill 4096 bins 1 apart, which at gamma = 0.9999 (half-width 645) would pair
    # 2.4e6 times, about 420 MB of gathered rows: more than the 2**21 pairs of the cap
    assert temporal._band_halfwidth(0.9999) == 645 and sum(4096 - k for k in range(1, 646)) > temporal.MAX_BAND_PAIRS
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(SchemeConfig(tuple(crystal(10.0 * k, 2**k) for k in range(12))).to_json()))
    assert main(["map", "--scheme", str(path), "--gamma", "0.9999", "--samples", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert f"holds more than {temporal.MAX_BAND_PAIRS} bin pairs" in json.loads(captured.err)["error"]


def test_kraus_operators_build_no_band_plan():
    # the chain whose band `map` refuses above: its Kraus operators read no band, so they are not refused
    bins, ops = kraus_operators(SchemeConfig(tuple(crystal(10.0 * k, 2**k) for k in range(12)), coherence=0.9999))
    assert np.array_equal(bins, np.arange(4096)) and ops.shape == (4096, 2, 2)


def test_total_bin_cap_counts_the_bins_each_crystal_step_starts_from(monkeypatch):
    # n crystals of one delay make bins 0..n, so their steps start from 1, 2, ..., n bins: 10 in all for n = 4.
    # At delay 1000 that is 10 too, where 2**k bins per step would be 15.  Counted up front, and with the
    # up-front count cut off at once, by each step
    monkeypatch.setattr(temporal, "MAX_TOTAL_BINS", 10)
    for work in (temporal._COUNT_WORK, 0):
        monkeypatch.setattr(temporal, "_COUNT_WORK", work)
        temporal._cached_plan.cache_clear()  # a plan memoized under the real cap would skip the check
        for delay in (1, 1000):
            bins, _ = kraus_operators(SchemeConfig(tuple(crystal(30.0, delay) for _ in range(4))))
            assert len(bins) == 5
            with pytest.raises(ValueError, match="handle more than 10 time bins in all"):
                kraus_operators(SchemeConfig(tuple(crystal(30.0, delay) for _ in range(5))))


def test_a_scheme_file_of_16000_short_crystals_is_refused(tmp_path, capsys, monkeypatch):
    # below the 1 MiB file cap, but its steps would handle 1.3e8 bins, for minutes; 4000 such crystals
    # (8.0e6 bins) stay admitted.  The bins are counted before the first amplitude step
    assert 4000 * 4001 // 2 <= temporal.MAX_TOTAL_BINS < 16000 * 16001 // 2
    path = tmp_path / "stack.json"
    path.write_text(json.dumps(SchemeConfig(tuple(crystal(30.0, 1) for _ in range(16000))).to_json()))
    assert path.stat().st_size < 2**20
    steps = []
    step = temporal._crystal_step
    monkeypatch.setattr(temporal, "_crystal_step", lambda *args: steps.append(1) or step(*args))
    assert main(["map", "--scheme", str(path), "--samples", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert "time bins in all" in json.loads(captured.err)["error"]
    assert steps == []


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
        {"elements": [{"kind": "hwp", "angle_deg": 0.0, "delay_bins": 3}]},
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
    # each case has exactly one bad field; the error names that field
    if not isinstance(coherence, float):
        message = r"coherence must be a number in \[0, 1\)"
    elif not isinstance(element["angle_deg"], float):
        message = "element angle must be a finite float"
    else:
        message = "crystal delay must be an integer"
    with pytest.raises(ValueError, match=message):
        SchemeConfig.from_json(json.dumps({"coherence": coherence, "elements": [element]}))


def test_scheme_json_takes_ints_and_rejects_numbers_beyond_the_float_range():
    config = SchemeConfig.from_json('{"coherence": 0, "elements": [{"kind": "crystal", "angle_deg": 45, "delay_bins": 2}]}')
    assert config.coherence == 0.0 and config.elements[0].angle_deg == 45.0 and config.elements[0].delay_bins == 2
    for doc, message in (
        ({"elements": [{"kind": "hwp", "angle_deg": 10**400}]}, "element angle must be a finite float"),
        ({"coherence": 10**400, "elements": [{"kind": "hwp", "angle_deg": 0}]}, "coherence must be a number"),
    ):
        with pytest.raises(ValueError, match=message):
            SchemeConfig.from_json(json.dumps(doc))


def test_scheme_json_refuses_an_unknown_key():
    # a misspelt key was ignored: "coherance" ran at gamma = 0, and "angel_deg" beside "angle_deg" did nothing
    element = {"kind": "crystal", "angle_deg": 0, "delay_bins": 1}
    for doc, message in (
        ({"coherance": 0.5, "elements": [element]}, "unknown scheme key 'coherance'"),
        ({"elements": [element], "coherence": 0.5, "notes": "x"}, "unknown scheme key 'notes'"),
        ({"elements": [{**element, "angel_deg": 45}]}, "unknown element key 'angel_deg'"),
        ({"elements": [{"kind": "hwp", "angle_deg": 0, "delay": 1}]}, "unknown element key 'delay'"),
    ):
        for form in (doc, json.dumps(doc)):
            with pytest.raises(ValueError, match=message):
                SchemeConfig.from_json(form)
    assert SchemeConfig.from_json({"elements": [element]}).coherence == 0.0


# --- angle batches: one config whose array angles stand for T configs that differ only in their angles ---


def bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


# anchor angles (0, 45, 90 deg, the isotropic point) among generic ones
BATCH_THETAS = (0.0, 0.1, 12.5, 30.0, 45.0, 54.7356, 67.5, 89.9, 90.0)
ALL_INPUTS = np.column_stack(list(JONES_STATES.values()))


@pytest.mark.kernel_bits
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


@pytest.mark.kernel_bits
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


@pytest.mark.kernel_bits
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(batch=angle_batches())
def test_batched_run_scheme_property(batch):
    config, singles = batch
    batched = run_scheme(config, ALL_INPUTS)
    if config.batch is None:
        batched = batched[None]
    assert np.array_equal(bits(batched), bits([run_scheme(c, ALL_INPUTS) for c in singles]))


@pytest.mark.kernel_bits
def test_mismatched_batches_raise():
    with pytest.raises(ValueError, match="share their length"):
        SchemeConfig((crystal(np.zeros(2), 1), quarter_wave(np.zeros(3)), crystal(90.0, 2)))
    for bad in (np.zeros((2, 2)), np.zeros(0), np.array([0.0, np.nan]), np.array([np.inf, 1.0])):
        for make in (lambda a: crystal(a, 1), half_wave, quarter_wave):
            with pytest.raises(ValueError, match="non-empty 1-D array"):
                make(bad)


@pytest.mark.kernel_bits
@pytest.mark.parametrize("last", ("crystal", "plate"))
@pytest.mark.parametrize("gamma", (0.0, 0.3))
def test_a_batch_whose_last_element_alone_has_array_angles_equals_its_single_calls(monkeypatch, last, gamma):
    # every earlier element has one matrix, which broadcasts: those steps run once for the whole batch
    def config(angle):
        final = crystal(angle, 3) if last == "crystal" else quarter_wave(angle)
        return SchemeConfig((half_wave(10.0), crystal(30.0, 1), quarter_wave(20.0), crystal(0.0, 2), final), gamma)

    singles = [run_scheme(config(theta), ALL_INPUTS) for theta in BATCH_THETAS]
    crystal_step, leading = temporal._crystal_step, []

    def recording_step(amps, projectors, merge):
        leading.append((len(amps), len(projectors)))
        return crystal_step(amps, projectors, merge)

    monkeypatch.setattr(temporal, "_crystal_step", recording_step)
    batched = run_scheme(config(np.array(BATCH_THETAS)), ALL_INPUTS)
    assert np.array_equal(bits(batched), bits(singles))
    assert leading[:2] == [(1, 1), (1, 1)]
    if last == "crystal":
        assert leading[2] == (1, len(BATCH_THETAS))


def test_an_element_holds_the_read_only_matrix_of_its_angle():
    for make, rows in ((lambda a: crystal(a, 3), 4), (half_wave, 2), (quarter_wave, 2)):
        element = make(10.0)
        assert element._matrix.shape == (1, rows, 2) and element._matrix.dtype == complex
        with pytest.raises(ValueError, match="read-only"):
            element._matrix[...] = 0.0
        # a replaced angle brings its own matrix, not the old one
        moved = dataclasses.replace(element, angle_deg=35.0)
        assert moved._matrix.tobytes() == make(35.0)._matrix.tobytes() != element._matrix.tobytes()
        stacked = dataclasses.replace(element, angle_deg=np.array([35.0, 10.0]))
        assert stacked._matrix.shape == (2, rows, 2) and not stacked._matrix.flags.writeable
        assert stacked._matrix.tobytes() == moved._matrix.tobytes() + element._matrix.tobytes()
        assert "_matrix" not in repr(element)


def test_named_schemes_share_their_fixed_elements():
    # the elements whose angle does not follow theta are built once and shared by every config
    fixed = {"scheme1": 2, "scheme2": 2, "scheme3": 2, "lyot": 2, "single_crystal": 0, "isotropic_triple": 5}
    for name in SCHEME_NAMES:
        first, second = build_scheme(name, 10.0).elements, build_scheme(name, np.array([20.0, 30.0])).elements
        assert sum(a is b for a, b in zip(first, second)) == fixed[name]
        for a, b in zip(first, second):
            assert (a is b) == (not isinstance(b.angle_deg, np.ndarray))


@pytest.mark.kernel_bits
def test_single_config_consumers_reject_a_batch():
    config = build_scheme("scheme2", np.array([0.0, 10.0]))
    assert config.batch == 2
    for consume in (kraus_operators, extract_channel, extract_chi, SchemeConfig.to_json):
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


@pytest.mark.kernel_bits
def test_occupied_bin_cap_applies_to_a_batch(monkeypatch):
    monkeypatch.setattr(temporal, "MAX_BINS", 8)
    temporal._cached_plan.cache_clear()  # a plan memoized under the real cap would skip the check
    offsets = np.array([0.0, 3.0])
    three = SchemeConfig(tuple(crystal(10.0 * k + offsets, 2**k) for k in range(3)))
    assert run_scheme(three, JONES_P).shape == (2, 2, 2)
    four = SchemeConfig(tuple(crystal(10.0 * k + offsets, 2**k) for k in range(4)))
    with pytest.raises(ValueError, match="occupied time bins"):
        run_scheme(four, JONES_P)


@pytest.mark.kernel_bits
def test_stacked_stokes_and_dop_equal_per_matrix_calls_bitwise():
    rhos = run_scheme(build_scheme("isotropic_triple", np.array(BATCH_THETAS), coherence=0.3), ALL_INPUTS)
    s, d = stokes_from_density(rhos), dop(rhos)
    assert s.shape == (len(BATCH_THETAS), 6, 3) and d.shape == (len(BATCH_THETAS), 6)
    assert np.array_equal(bits(s), bits([[stokes_from_density(r) for r in row] for row in rhos]))
    assert np.array_equal(bits(d), bits([[dop(r) for r in row] for row in rhos]))
    assert isinstance(dop(rhos[0, 0]), float) and stokes_from_density(rhos[0, 0]).shape == (3,)
    # signed zeros and subnormals, one matrix at a time on the single-matrix path
    signed = signed_zero_matrices(np.random.default_rng(44))
    s, d = stokes_from_density(signed), dop(signed)
    assert np.array_equal(bits(s), bits([stokes_from_density(m) for m in signed]))
    assert np.array_equal(bits(d), bits([dop(m) for m in signed]))


@st.composite
def single_output_cases(draw):
    """Up to 6 elements at 0, 45 and 90 deg anchors or any angle, at gamma in (0, 0.99], and two unit inputs."""
    angles = st.sampled_from([0.0, 45.0, 90.0]) | st.floats(-180.0, 180.0, allow_nan=False)
    elements = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["crystal", "hwp", "qwp"]))
        delay = draw(st.sampled_from([1, 2, 3, 9])) if kind == "crystal" else None
        elements.append(OpticalElement(kind, angle_deg=draw(angles), delay_bins=delay))
    gamma = draw(st.sampled_from([0.3, 0.9]) | st.floats(0.0, 0.99, exclude_min=True))
    inputs = st.sampled_from(sorted(JONES_STATES)).map(JONES_STATES.get) | st.integers(0, 2**32 - 1).map(
        lambda seed: random_pure_jones(np.random.default_rng(seed))
    )
    return SchemeConfig(tuple(elements), coherence=gamma), draw(inputs), draw(inputs)


@pytest.mark.kernel_bits
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=single_output_cases())
def test_a_single_output_has_the_bytes_of_its_column_in_a_stack_bitwise(case):
    # one config and one input average the output's four entries in Python complex numbers; a stack of two
    # inputs takes numpy's in-place average (a (2, 1) stack is a single output too)
    config, j, k = case
    single = run_scheme(config, j)
    assert single.shape == (2, 2) and single.dtype == complex
    assert single.tobytes() == run_scheme(config, np.column_stack([j, k]))[0].tobytes()
    column = run_scheme(config, j.reshape(2, 1))
    assert column.shape == (1, 2, 2) and column.tobytes() == single.tobytes()


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


# --- the library's numpy forms keep the bytes of its former ones, which did the same floating-point operations ---

# signed and exact zeros zero projector entries and amplitudes; 1 to 4 interleave, 3**k spread the bins
ANCHOR_ANGLES = [0.0, -0.0, 45.0, 90.0]
SPREAD_DELAYS = [1, 3, 9, 27, 81]
former_angles = st.sampled_from(ANCHOR_ANGLES) | st.floats(-180.0, 180.0, allow_nan=False)
former_delays = st.integers(1, 4) | st.sampled_from(SPREAD_DELAYS)


def former_form_schemes(rng, n=150):
    """n (spec, gamma): spec lists (kind, T angles, delay) of up to 6 crystals, each after an optional wave plate,
    for T in 1..3, drawn from the seeded generator `rng` with half the angles at an anchor and half the delays
    spread."""

    def angles(n_configs):
        return [ANCHOR_ANGLES[rng.integers(4)] if rng.random() < 0.5 else float(rng.uniform(-180.0, 180.0))
                for _ in range(n_configs)]

    for _ in range(n):
        n_configs, elements = int(rng.integers(1, 4)), []
        for _ in range(int(rng.integers(1, 7))):
            if rng.random() < 0.5:
                elements.append(((temporal.HWP, temporal.QWP)[rng.integers(2)], angles(n_configs), None))
            delay = int(rng.integers(1, 5)) if rng.random() < 0.5 else SPREAD_DELAYS[rng.integers(5)]
            elements.append((temporal.CRYSTAL, angles(n_configs), delay))
        yield elements, [0.0, 0.2, 0.9][rng.integers(3)]


def engine_outputs(spec, gamma):
    """Every consumer of the Stokes read-out and the density matrix of a Stokes vector, and the Stokes map, on the
    outputs of new config objects; the read-out through the polarization module, where the former forms patch it."""
    n_configs = len(spec[0][1])
    batch = SchemeConfig(tuple(OpticalElement(k, np.array(a), d) for k, a, d in spec), coherence=gamma)
    rhos = [run_scheme(batch, ALL_INPUTS)]
    outputs = []
    for t in range(n_configs):
        elements = tuple(OpticalElement(k, a[t], d) for k, a, d in spec)
        config = SchemeConfig(elements, coherence=gamma)
        channel = extract_channel(config)
        rhos += [run_scheme(config, JONES_P), run_scheme(config, ALL_INPUTS)]
        assert channel.m.flags.c_contiguous
        outputs += [channel.m, channel.b, tomography.qst_mle(measurement.sample_counts(rhos[-2], 10**4, 0, exact=True))]
        state = temporal.initial_state(JONES_R)
        for element in elements:
            state = temporal.apply_element(state, element)
        rhos += [temporal.collapse(state), temporal.collapse_with_coherence(state, gamma)]
    stokes = [polarization.stokes_from_density(rho) for rho in rhos]
    outputs += rhos + stokes + [polarization.dop(rho) for rho in rhos]
    outputs += [polarization.density_from_stokes(v) for s in stokes[1:] for v in s.reshape(-1, 3)]
    return [np.ascontiguousarray(x).tobytes() for x in outputs]


@pytest.mark.kernel_bits
def test_former_numpy_forms_give_the_same_bytes():
    # the digest was taken where the former Stokes read-out (three `out=` ufuncs on the real and imaginary views)
    # and the former density of a Stokes vector (the sum of Pauli matrices), patched in, gave the same bytes
    digest = hashlib.sha256()
    for scheme in former_form_schemes(np.random.default_rng(71)):
        for output in engine_outputs(*scheme):
            digest.update(output)
    assert digest.hexdigest() == "df33739fd1eae9eb93882c747a3c92aec4ca0f34d0527113d444018492a93e02"


# --- every channel read-out is a constant map of the one Choi matrix ---


@st.composite
def choi_schemes(draw):
    """Up to 6 crystals, each after an optional wave plate, at gamma in {0, 0.2, 0.9}."""
    elements = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            elements.append(OpticalElement(draw(st.sampled_from([temporal.HWP, temporal.QWP])), draw(former_angles)))
        elements.append(crystal(draw(former_angles), draw(former_delays)))
    return SchemeConfig(tuple(elements), coherence=draw(st.sampled_from([0.0, 0.2, 0.9])))


@pytest.mark.kernel_bits
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(config=choi_schemes())
def test_choi_maps_match_the_probe_outputs(config):
    channel = extract_channel(config)
    outputs = run_scheme(config, _oracle.PROBES)  # the same S: extract_channel holds it
    expected = _oracle.affine_from_outputs(*outputs)
    assert np.abs(channel.m - expected.m).max() <= 4.4e-16 and np.abs(channel.b - expected.b).max() <= 4.4e-16
    chi = extract_chi(config)
    assert chi.clipped_mass == 0.0
    assert np.abs(chi.matrix - tomography.qpt(*outputs).matrix).max() <= 1e-15
    assert abs(np.trace(chi.matrix) - 1.0) <= 1e-15
    assert np.linalg.eigvalsh(chi.matrix).min() >= -1e-15


# sha256 of extract_chi's bytes at 30 deg, taken where the former theory chi of `tomo` (the Choi -> chi map on the
# held S, then the Hermitian average in place) stood beside it and gave the same bytes
THEORY_CHI_DIGESTS = {
    ("scheme1", 0.0): "1816cf0baaffaf740baf19ff9abef20d00c982fd002775f588c14eca24d71a53",
    ("scheme1", 0.3): "8003a53616f67b258be0c0fcf0c53aa93d6e326d16df01dd49d9cc1eda5fd2e5",
    ("scheme2", 0.0): "005fcf34c24c1fe7d3be7882170dc94070624290bb683f5cde25c54cb981cdfb",
    ("scheme2", 0.3): "990a2cf1a866b9d5b370efef08bd6313ec97ee3f64092ac6bea374b4f0be91f3",
    ("scheme3", 0.0): "14b9b60120200a63b2a1838017c50d5bd07d3a41b33a5dc413194f87f32add4f",
    ("scheme3", 0.3): "e32cbdd3025b8b70d1f28613d0e85fc020685df6e2410336df58e4fe48485027",
    ("lyot", 0.0): "8b7f3cb1e0a9c12cdafbdbb7f7c40e1bdf31254fa2195b7d50de8488a5364ce7",
    ("lyot", 0.3): "0e7b8579496a6b182d39174b56c772ff900990489d62f73b7b28b3efb592129a",
    ("single_crystal", 0.0): "020fa9b3d8a5a74acdf07f3189ae179585cf7936e093a46d3a00508892c9e9c7",
    ("single_crystal", 0.3): "ba711a7584ff1b5938b47575974bb970831f26d9274d67e5ec1f58c31ab9a3d1",
    ("isotropic_triple", 0.0): "ff874d5faad322aadebf639aa1228ea47d3bdbb5c6313bed654d7c19669e9940",
    ("isotropic_triple", 0.3): "4b1fe541888a13078fa6a73e27658d07e162f27ba39425fad52b4f8a7aa6c26a",
}


@pytest.mark.kernel_bits
@pytest.mark.parametrize("gamma", (0.0, 0.3))
@pytest.mark.parametrize("scheme", SCHEME_NAMES)
def test_extract_chi_keeps_the_bytes_of_the_former_theory_chi(scheme, gamma):
    chi = extract_chi(build_scheme(scheme, None if scheme == "lyot" else 30.0, coherence=gamma))
    assert chi.clipped_mass == 0.0 and chi.matrix.dtype == complex and chi.matrix.shape == (4, 4)
    assert hashlib.sha256(chi.matrix.tobytes()).hexdigest() == THEORY_CHI_DIGESTS[scheme, gamma]


@pytest.mark.kernel_bits
def test_choi_maps_fold_into_the_former_qpt_map():
    # the digest was taken where the former outputs -> chi map of `qpt` (the superoperator through np.linalg.inv
    # and np.kron) stood beside the folded constant and gave the same bytes
    digest = hashlib.sha256(tomography._CHI_FROM_OUTPUTS.tobytes()).hexdigest()
    assert digest == "35fd6765966b68c46df9e3d8dec1e90f6920d26fd3b5478e0cd70f560994a560"


def test_a_sparse_chain_runs_only_its_live_band_positions():
    # the chain's bins are at least 1, 3 and 4 apart at positions 1, 2 and 3, and at least 9 apart from
    # position 4 on, beyond the half-width 6 at gamma = 0.2; of the 378 pairs of those three positions, the
    # 208 within distance 5 clear the floor (0.2**36 does not)
    elements = tuple(delay_chain(np.random.default_rng(25), 7))
    bins, _ = kraus_operators(SchemeConfig(elements, coherence=0.2))
    assert len(bins) == 128 and temporal._band_halfwidth(0.2) == 6
    assert 0.2**25.0 >= KERNEL_FLOOR > 0.2**36.0
    left, right, _ = temporal._band_plan(bins, 0.2)
    assert np.unique(right - left).tolist() == [1, 2, 3]
    assert len(left) == 208 and sum(len(bins) - k for k in (1, 2, 3)) == 378
    assert len(_oracle.full_band_plan(bins, 0.2)[0]) == 747


@pytest.mark.parametrize("gamma", (0.2, 0.5, 0.9))
def test_the_band_plan_is_the_full_band_restricted_to_its_live_pairs(gamma):
    # 3**k chains spread their bins, so a live position holds dead pairs; 2**k stacks interleave them 1 apart
    rng = np.random.default_rng(27)
    stacks = [delay_chain(rng, n) for n in range(5, 9)]
    stacks += [[crystal(10.0 * k, 2**k) for k in reversed(range(n))] for n in range(1, 9)]
    for elements in stacks:
        bins, _ = kraus_operators(SchemeConfig(tuple(elements), coherence=gamma))
        left, right, w = _oracle.full_band_plan(bins, gamma)
        live = w[::2] != 0.0
        plan = temporal._band_plan(bins, gamma)
        assert live.any() and len(plan) == 3
        assert np.array_equal(plan[0], left[live]) and np.array_equal(plan[1], right[live])
        assert plan[2].tobytes() == np.repeat(w[::2][live], 2).tobytes()
        assert plan[2].min() >= KERNEL_FLOOR


def test_a_band_of_dead_pairs_is_empty():
    # at gamma = 1e-300 the half-width is 1, and the one position it scans weighs 1e-300, below the floor
    assert temporal._band_halfwidth(1e-300) == 1
    assert temporal._band_plan(np.arange(8), 1e-300) == ()


@pytest.mark.kernel_bits
def test_band_weights_are_python_float_powers():
    # numpy's float64 power is SIMD code: under AVX-512 it rounds 0.3**4 to 0.008099999999999998, libm to 0.0081
    assert temporal._band_plan(np.array([0, 2]), 0.3)[2].tolist() == [0.3**4.0] * 2 == [0.0081] * 2
    for bins in ([0, 1, 2, 4, 7, 12, 20, 33, 54, 88], [0, 1, 400, 401], [0, 3, 9, 12, 27, 30, 36, 39]):
        bins = np.array(bins)
        for gamma in (0.2, 0.3, 0.5, 0.9, 0.99):
            left, right, w = temporal._band_plan(bins, gamma)
            expected = [gamma ** float(d * d) for d in (bins[right] - bins[left]).tolist()]
            expected = [x if x >= KERNEL_FLOOR else 0.0 for x in expected]
            assert w[::2].tolist() == expected and w[1::2].tolist() == expected


def test_a_band_past_max_band_pairs_raises_before_it_is_built(monkeypatch):
    # 64 bins 1 apart at gamma = 0.9 (half-width 20) hold 63 pairs at position 1, 62 more at position 2, and
    # 1070 at all 20 positions, of which the 1026 of positions 1 to 19 clear the floor; the cap counts them all
    concatenated = []

    class RecordingNumpy:
        """numpy, except that a concatenation is recorded."""

        def __getattr__(self, name):
            return getattr(np, name)

        def concatenate(self, arrays, **kwargs):
            concatenated.append(len(arrays))
            return np.concatenate(arrays, **kwargs)

    monkeypatch.setattr(temporal, "np", RecordingNumpy())
    monkeypatch.setattr(temporal, "MAX_BAND_PAIRS", 124)
    with pytest.raises(ValueError, match=re.escape("at gamma = 0.9 holds more than 124 bin pairs")):
        temporal._band_plan(np.arange(64), 0.9)
    assert concatenated == []
    assert temporal._band_halfwidth(0.9) == 20
    monkeypatch.setattr(temporal, "MAX_BAND_PAIRS", 1070)
    assert len(temporal._band_plan(np.arange(64), 0.9)[0]) == 1026 and concatenated
    assert 0.9**361.0 >= KERNEL_FLOOR > 0.9**400.0


# --- a propagation's plan is memoized per (crystal delays, gamma), within a stated memory bound ---


def held_bytes(value):
    """Bytes that `value` keeps alive: tuples member by member, arrays with the base a view keeps."""
    if isinstance(value, tuple):
        return sys.getsizeof(value) + sum(map(held_bytes, value))
    if isinstance(value, np.ndarray) and value.base is not None:
        return sys.getsizeof(value) + held_bytes(value.base)
    return sys.getsizeof(value)


def test_the_plan_memo_stays_below_16_mb():
    # delays 2**(n-1), ..., 2, 1 double the bins at every crystal and interleave them from the second one on,
    # the most merge indices n crystals can make; each gets the largest live band the gate admits.  The
    # half-width bounds the gate's pair count, and it is one past the last live distance, except where the
    # bins themselves cap the reach
    worst = 0
    for n_crystals in range(1, 11):
        delays = tuple(2**k for k in reversed(range(n_crystals)))
        n_bins = 2**n_crystals
        reach = min(n_bins - 1, temporal._BAND_CACHE_PAIRS // n_bins - 1)
        gamma = 2.0 ** (-60.0 / (reach**2 + 0.5))  # the gamma whose live pairs reach `reach`, half-width reach + 1
        assert gamma ** float(reach**2) >= KERNEL_FLOOR > gamma ** float((reach + 1) ** 2)
        assert temporal._band_halfwidth(gamma) == reach + 1
        temporal._cached_plan.cache_clear()
        kraus_operators(SchemeConfig(tuple(crystal(10.0, d) for d in delays), coherence=gamma))
        assert temporal._cached_plan.cache_info().currsize == 1  # the gate admits it
        merges, band = entry = temporal._cached_plan(delays, gamma)
        assert len(merges[-1][0]) == n_bins and all(order is not None for _, order, _ in merges[1:])
        left, right, _ = band
        assert np.unique(right - left).tolist() == list(range(1, reach + 1))
        # the key and the cache's link record [prev, next, key, result] count too
        size = held_bytes(entry) + held_bytes(delays) + sys.getsizeof(gamma) + 2 * sys.getsizeof([None] * 4)
        worst = max(worst, size)
    assert worst * temporal._cached_plan.cache_parameters()["maxsize"] < 16 * 2**20


def test_configs_with_the_same_delays_share_one_plan(monkeypatch):
    # the same delays and gamma under other angles and other plates: one entry, looked up twice
    first = SchemeConfig((crystal(10.0, 1), half_wave(20.0), crystal(70.0, 3), crystal(45.0, 2)), coherence=0.3)
    second = SchemeConfig(
        (quarter_wave(5.0), crystal(0.0, 1), crystal(90.0, 3), half_wave(-40.0), crystal(0.0, 2)), coherence=0.3
    )
    temporal._cached_plan.cache_clear()
    memoized = [run_scheme(config, ALL_INPUTS) for config in (first, second)]
    info = temporal._cached_plan.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 1, 1)
    monkeypatch.setattr(temporal, "_PLAN_CACHE_BINS", 0)
    for config, expected in zip((first, second), memoized):
        assert np.array_equal(bits(run_scheme(config, ALL_INPUTS)), bits(expected))
    assert temporal._cached_plan.cache_info() == info


@pytest.mark.parametrize(
    "config",
    [
        # 601 bins only, but merge plans of 4.4 MB: the gate counts crystals, not bins
        SchemeConfig(tuple(crystal(30.0, 1) for _ in range(600)), coherence=0.2),
        # 11 crystals, 2048 bins, and no band at gamma = 0 to stop it otherwise
        SchemeConfig(tuple(delay_chain(np.random.default_rng(28), 11))),
    ],
    ids=["600-delay-1-crystals", "11-crystal-chain"],
)
def test_more_than_ten_crystals_make_no_memo_entry(config):
    temporal._cached_plan.cache_clear()
    run_scheme(config, ALL_INPUTS)
    assert temporal._cached_plan.cache_info().currsize == 0


def test_an_unmemoized_propagation_builds_one_merge_plan_at_a_time():
    # the merge plans of 1200 delay-1 crystals hold 17 MB together; one at a time they peak below 1 MB
    config = SchemeConfig(tuple(crystal(30.0, 1) for _ in range(1200)))
    tracemalloc.start()
    try:
        kraus_operators(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_a_scheme_over_max_bins_raises_the_same_error_with_and_without_the_memo(monkeypatch):
    # delays 2**k double the bins at every crystal: the fourth would pass 8; no plan is left memoized
    monkeypatch.setattr(temporal, "MAX_BINS", 8)
    config = SchemeConfig(tuple(crystal(10.0 * k, 2**k) for k in range(4)), coherence=0.3)
    temporal._cached_plan.cache_clear()
    for cap in (temporal._PLAN_CACHE_BINS, 0):
        monkeypatch.setattr(temporal, "_PLAN_CACHE_BINS", cap)
        with pytest.raises(ValueError, match=re.escape("more than 8 occupied time bins (8 before a crystal)")):
            run_scheme(config, JONES_P)
    assert temporal._cached_plan.cache_info().currsize == 0


# --- past 10 crystals, past 2048 band pairs or with the cap at 0, a plan is built without the memo ---


def test_uncached_merge_plans_keep_every_output_bit(monkeypatch):
    configs = [build_scheme(name, 22.5, coherence=0.3) for name in SCHEME_NAMES]
    configs.append(build_scheme("isotropic_triple", np.array(BATCH_THETAS), coherence=0.3))
    configs.append(SchemeConfig(tuple(delay_chain(np.random.default_rng(23), 10)), coherence=0.2))
    configs.append(SchemeConfig(tuple(delay_chain(np.random.default_rng(23), 6)), coherence=0.2))

    def lookups():
        info = temporal._cached_plan.cache_info()
        return info.hits + info.misses

    before = lookups()
    cached = [run_scheme(config, ALL_INPUTS) for config in configs]
    # one lookup per config, but none for the 10-crystal chain: its 1024 bins at gamma = 0.2 may hold
    # 6144 band pairs, past _BAND_CACHE_PAIRS
    assert lookups() - before == len(configs) - 1
    # with the cap at 0 every plan is built afresh, and the memo sees no lookup
    after = lookups()
    monkeypatch.setattr(temporal, "_PLAN_CACHE_BINS", 0)
    for config, expected in zip(configs, cached):
        assert np.array_equal(bits(run_scheme(config, ALL_INPUTS)), bits(expected))
    assert lookups() == after


# --- the last single config's channel is held, so the probe calls of one tomography run propagate once ---


def memo_configs():
    configs = [build_scheme(name, 22.5, coherence=gamma) for name in SCHEME_NAMES for gamma in (0.0, 0.3)]
    configs.append(SchemeConfig(tuple(delay_chain(np.random.default_rng(26), 6)), coherence=0.2))
    # 2048 bins: held like any other single config, as its channel is 256 bytes too
    configs.append(SchemeConfig(tuple(delay_chain(np.random.default_rng(27), 11)), coherence=0.2))
    return configs


def probe_calls(config):
    return [run_scheme(config, probe) for probe in PROBES]


def test_held_propagations_keep_every_output_bit():
    configs = memo_configs()
    held = [probe_calls(config) for config in configs]
    # A, B, A: a config that comes back after another one is propagated again, not read from a stale entry
    interleaved = [probe_calls(config) for pair in zip(configs, configs[1:]) for config in pair]
    # a new config object per call is never held: every call propagates and traces out time afresh
    fresh = [[run_scheme(SchemeConfig(c.elements, c.coherence), probe) for probe in PROBES] for c in configs]
    assert np.array_equal(bits(held), bits(fresh))
    assert np.array_equal(bits(interleaved), bits([fresh[i] for k in range(len(configs) - 1) for i in (k, k + 1)]))


def test_only_the_first_probe_call_propagates(monkeypatch):
    steps = []
    crystal_step = temporal._crystal_step

    def counting_step(amps, projectors, merge):
        steps.append(projectors)
        return crystal_step(amps, projectors, merge)

    def n_crystals(config):
        return sum(e.kind == temporal.CRYSTAL for e in config.elements)

    monkeypatch.setattr(temporal, "_crystal_step", counting_step)
    configs = memo_configs()
    for config in configs:
        steps.clear()
        probe_calls(config)
        extract_channel(config)
        assert len(steps) == n_crystals(config)  # one propagation: one step per crystal
        # kraus_operators propagates afresh, whatever is held
        kraus_operators(config)
        assert len(steps) == 2 * n_crystals(config)
    # one config is held at a time: calls that alternate between two configs propagate every time
    first, second = configs[:2]
    steps.clear()
    for probe in PROBES:
        run_scheme(first, probe)
        run_scheme(second, probe)
    assert len(steps) == len(PROBES) * (n_crystals(first) + n_crystals(second))


def test_the_memo_holds_one_read_only_single_config():
    config = build_scheme("isotropic_triple", 30.0)
    run_scheme(config, JONES_H)
    s = temporal._choi(config)
    assert s.shape == (1, 4, 4) and s.nbytes == 256
    assert not s.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        s[...] = 0.0
    # keyed on the config object: more reads of the same config propagate no more
    misses = temporal._choi.cache_info().misses
    run_scheme(config, JONES_P)
    extract_channel(config)
    assert temporal._choi(config) is s and temporal._choi.cache_info().misses == misses
    # a batch is held too, read-only, in place of the single config: one config at most
    batch = build_scheme("isotropic_triple", np.array(BATCH_THETAS))
    run_scheme(batch, ALL_INPUTS)
    held = temporal._choi(batch)
    assert held.shape == (len(BATCH_THETAS), 4, 4) and not held.flags.writeable
    assert temporal._choi.cache_info().misses == misses + 1 and temporal._choi.cache_info().currsize == 1
    # a single config on more than 1024 bins is held too
    wide = SchemeConfig(tuple(delay_chain(np.random.default_rng(27), 11)))
    run_scheme(wide, ALL_INPUTS)
    assert temporal._choi(wide) is temporal._choi(wide) and len(kraus_operators(wide)[0]) == 2048
    # the next config replaces it, whether run_scheme or extract_channel reads it
    other = build_scheme("scheme1", 30.0)
    run_scheme(other, JONES_H)
    other_s = temporal._choi(other)
    extract_channel(config)
    again = temporal._choi(config)
    assert again is not s and again.tobytes() == s.tobytes()
    assert temporal._choi(other) is not other_s


def test_kraus_operators_are_fresh_and_writable():
    # plates only: the single bin's operator is already contiguous, so a view could share the amplitudes
    for config in (SchemeConfig((half_wave(10.0), quarter_wave(30.0))), build_scheme("scheme1", 30.0, coherence=0.3)):
        expected = run_scheme(config, ALL_INPUTS)
        bins, ops = kraus_operators(config)
        again = kraus_operators(config)
        assert bins.flags.writeable and ops.flags.writeable
        assert not np.shares_memory(ops, again[1]) and not np.shares_memory(bins, again[0])
        ops[...] = 7.0
        bins[...] = 5
        assert np.array_equal(bits(kraus_operators(config)[1]), bits(again[1]))
        assert np.array_equal(bits(run_scheme(config, ALL_INPUTS)), bits(expected))
