"""Physical invariants of the engine over arbitrary element lists (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from depolsim.channels import extract_channel
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
    unitary_element,
)
from _helpers import random_unitary

angles = st.floats(-180.0, 180.0, allow_nan=False)
elements = st.lists(
    st.one_of(
        st.builds(crystal, angles, st.integers(1, 9)),
        st.builds(half_wave, angles),
        st.builds(quarter_wave, angles),
        st.integers(0, 2**32 - 1).map(lambda seed: unitary_element(random_unitary(np.random.default_rng(seed)))),
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
