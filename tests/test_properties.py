"""Physical invariants over arbitrary element lists, and JSON round trips (hypothesis)."""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from depolsim.channels import extract_channel
from depolsim.measurement import MeasurementRecord
from depolsim.polarization import JONES_STATES
from depolsim.temporal import (
    SchemeConfig,
    apply_element,
    collapse,
    crystal,
    half_wave,
    initial_state,
    kraus_operators,
    quarter_wave,
    run_scheme,
)
from depolsim.tomography import ChiMatrix, qpt, trace_preservation_residual

angles = st.floats(-180.0, 180.0, allow_nan=False)
elements = st.lists(
    st.one_of(
        st.builds(crystal, angles, st.integers(1, 9)),
        st.builds(half_wave, angles),
        st.builds(quarter_wave, angles),
    ),
    min_size=1,
    max_size=8,
)
gammas = st.one_of(st.just(0.0), st.floats(0.0, 0.95))
jones_vectors = (
    st.tuples(*[st.floats(-1.0, 1.0)] * 4)
    .map(lambda x: np.array([x[0] + 1j * x[1], x[2] + 1j * x[3]]))
    .filter(lambda v: np.linalg.norm(v) > 1e-3)
    .map(lambda v: v / np.linalg.norm(v))
)

CHECK = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@CHECK
@given(elements, gammas)
def test_kraus_operators_are_complete(elems, gamma):
    bins, ops = kraus_operators(SchemeConfig(tuple(elems), coherence=gamma))
    assert np.all(np.diff(bins) > 0)
    completeness = np.einsum("tki,tkj->ij", ops.conj(), ops)
    assert np.abs(completeness - np.eye(2)).max() < 1e-12


@CHECK
@given(elements, gammas)
def test_axis_images_stay_in_the_unit_ball(elems, gamma):
    channel = extract_channel(SchemeConfig(tuple(elems), coherence=gamma))
    for i in range(3):
        for sign in (1.0, -1.0):
            assert np.linalg.norm(sign * channel.m[:, i] + channel.b) <= 1.0 + 1e-12


@CHECK
@given(elements, jones_vectors)
def test_incoherent_run_scheme_matches_the_dict_collapse(elems, j):
    state = initial_state(j)
    for e in elems:
        state = apply_element(state, e)
    assert np.abs(run_scheme(SchemeConfig(tuple(elems)), j) - collapse(state)).max() < 1e-12


@CHECK
@given(elements, st.sampled_from([0.0, 0.3]))
def test_theory_chi_is_completely_positive_and_trace_preserving(elems, gamma):
    probes = np.column_stack([JONES_STATES[lbl] for lbl in ("h", "v", "p", "r")])
    chi = qpt(*run_scheme(SchemeConfig(tuple(elems), coherence=gamma), probes))
    assert np.linalg.eigvalsh(chi.matrix).min() >= -1e-12
    assert chi.clipped_mass <= 1e-12
    assert trace_preservation_residual(chi) < 1e-9


def json_round_trip(obj):
    return type(obj).from_json(json.loads(json.dumps(obj.to_json(), allow_nan=False)))


@CHECK
@given(elements, st.floats(0.0, 1.0, exclude_max=True))
def test_scheme_config_json_round_trip(elems, gamma):
    config = SchemeConfig(tuple(elems), coherence=gamma)
    back = json_round_trip(config)
    assert back.coherence == config.coherence
    assert [(e.kind, e.angle_deg, e.delay_bins) for e in back.elements] == [
        (e.kind, e.angle_deg, e.delay_bins) for e in config.elements
    ]


labels = st.sampled_from(("h", "v", "p", "m", "r", "l"))


@CHECK
@given(
    st.lists(st.tuples(labels, st.integers(0, 2**62)), min_size=1, max_size=9),
    st.integers(1, 2**62),
    st.integers(0, 2**64 - 1),
)
def test_measurement_record_json_round_trip(pairs, shots, seed):
    record = MeasurementRecord(tuple(lbl for lbl, _ in pairs), np.array([n for _, n in pairs]), shots, seed)
    back = json_round_trip(record)
    assert back.settings == record.settings
    assert np.array_equal(back.counts, record.counts)
    assert (back.shots, back.seed) == (record.shots, record.seed)


finite = st.floats(allow_nan=False, allow_infinity=False)


@CHECK
@given(st.lists(finite, min_size=32, max_size=32), st.floats(0.0, 4.0))
def test_chi_matrix_json_round_trip(parts, clipped):
    chi = ChiMatrix(np.array(parts[:16]).reshape(4, 4) + 1j * np.array(parts[16:]).reshape(4, 4), clipped)
    back = json_round_trip(chi)
    assert np.array_equal(back.matrix, chi.matrix)
    assert back.clipped_mass == chi.clipped_mass
