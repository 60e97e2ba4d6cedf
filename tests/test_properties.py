"""Physical invariants over arbitrary element lists, and JSON round trips (hypothesis)."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depolsim.channels import StokesChannel, extract_channel
from depolsim.measurement import DEFAULT_SETTINGS, MeasurementRecord
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


@CHECK
@given(elements, st.sampled_from([0.5, 0.9, 0.99, 0.999, 0.9999]), jones_vectors)
def test_near_full_coherence_approaches_the_plate_product(elems, gamma, j):
    # the gamma -> 1 twin of the gamma = 0 collapse: with W = sum_t K_t, the product of the wave plates, every
    # output is within sum_{t,u} (1 - gamma**((t - u)**2)) |a_t| |a_u| <= (1 - gamma**(D*D)) (sum_t |a_t|)**2
    # of W rho W^dagger (Frobenius norm, a_t = K_t j, D the bin span), plus B * 2**-60 for the dropped band pairs
    config = SchemeConfig(tuple(elems), coherence=gamma)
    bins, ops = kraus_operators(config)
    w = ops.sum(axis=0)
    assert np.linalg.norm(w.conj().T @ w - np.eye(2)) < 1e-12
    span = float(bins[-1] - bins[0])
    reach = np.linalg.norm(ops @ j, axis=1).sum()
    bound = (1.0 - gamma ** (span * span)) * reach**2 + len(bins) * 2.0**-60 + 1e-14
    target = w @ np.outer(j, j.conj()) @ w.conj().T
    assert np.linalg.norm(run_scheme(config, j) - target) <= bound


@CHECK
@given(elements, st.floats(0.0, 1.0, exclude_max=True))
def test_scheme_config_json_round_trip(elems, gamma):
    config = SchemeConfig(tuple(elems), coherence=gamma)
    back = SchemeConfig.from_json(json.loads(json.dumps(config.to_json(), allow_nan=False)))
    assert back.coherence == config.coherence
    assert [(e.kind, e.angle_deg, e.delay_bins) for e in back.elements] == [
        (e.kind, e.angle_deg, e.delay_bins) for e in config.elements
    ]


finite = st.floats(allow_nan=False, allow_infinity=False)


@CHECK
@given(st.lists(finite, min_size=32, max_size=32), st.floats(0.0, 4.0))
def test_chi_matrix_json_round_trip(parts, clipped):
    # `tomo` writes chi by to_json: its re, im and clipped_mass give back the same matrix and mass
    chi = ChiMatrix(np.array(parts[:16]).reshape(4, 4) + 1j * np.array(parts[16:]).reshape(4, 4), clipped)
    document = json.loads(json.dumps(chi.to_json(), allow_nan=False))
    back = ChiMatrix(np.array(document["re"]) + 1j * np.array(document["im"]), document["clipped_mass"])
    assert np.array_equal(back.matrix, chi.matrix)
    assert back.clipped_mass == chi.clipped_mass


# --- one input rule: a constructor accepts a value or refuses it with ValueError, never another exception ---

# what a decoded JSON document can hold where a number belongs, and a few things it cannot
json_leaves = st.one_of(
    st.integers(-3, 3),
    st.floats(),  # inf and NaN included
    st.booleans(),
    st.sampled_from(["1", "0.5", "-2", "1e3", "nan"]),
    st.none(),
    st.just(10**400),
)
json_numbers = st.one_of(st.integers(0, 5), st.floats(0.0, 5.0), st.integers(0, 5).map(float))


def nested(leaves, shape):
    """JSON arrays nested to exactly `shape` around `leaves`."""
    for length in reversed(shape):
        leaves = st.lists(leaves, min_size=length, max_size=length)
    return leaves


@st.composite
def json_values(draw, shape):
    """A value for an array field of `shape`: numbers in that shape, the same with one leaf of any kind swapped in,
    any leaves in that shape, or any nesting."""
    form = draw(st.sampled_from(("numbers", "one leaf", "any leaves", "any nesting")))
    if form == "any nesting":
        return draw(st.recursive(json_leaves, lambda inner: st.lists(inner, max_size=4), max_leaves=20))
    value = draw(nested(json_leaves if form == "any leaves" else json_numbers, shape))
    if form == "one leaf":
        row = value
        for _ in shape[:-1]:
            row = row[draw(st.integers(0, len(row) - 1))]
        row[draw(st.integers(0, len(row) - 1))] = draw(json_leaves)
    return value


EYE3, ZERO3 = np.eye(3).tolist(), [0, 0, 0]

# field: (its shape, the constructor given the value)
BUILT = {
    "StokesChannel m": ((3, 3), lambda v: StokesChannel(v, ZERO3)),
    "StokesChannel b": ((3,), lambda v: StokesChannel(EYE3, v)),
    "ChiMatrix re": ((4, 4), ChiMatrix),
    "MeasurementRecord counts": ((6,), lambda v: MeasurementRecord(DEFAULT_SETTINGS, v, 10, 0)),
}


@pytest.mark.parametrize("shape, build", list(BUILT.values()), ids=list(BUILT))
@CHECK
@given(data=st.data())
def test_a_constructor_accepts_or_refuses_with_value_error(shape, build, data):
    value = data.draw(json_values(shape))
    try:
        build(value)
    except ValueError:  # any other exception fails the test
        pass
