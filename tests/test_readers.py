"""The scheme reader only decodes: every field it reads meets its constructor's rule and nothing else.

Each field takes every value of one table, once through a document
(decoded and as text) and once through the constructor, and both must
accept it into the same config or both refuse it with ValueError.  So a
plate's `"delay_bins": null` is no delay, as `None` is in Python.
"""

import json

import numpy as np
import pytest

from depolsim.channels import build_scheme
from depolsim.measurement import DEFAULT_SETTINGS, MeasurementRecord
from depolsim.temporal import OpticalElement, SchemeConfig, collapse_with_coherence, crystal, initial_state

VALUES = (True, False, "1", "45", None, [1], 10**400, -1, 0, 1.5, 2.0)

_CRYSTAL = crystal(0.0, 1)

# field: (document of a value, constructor call of the same value)
FIELDS = {
    "plate angle": (
        lambda v: {"elements": [{"kind": "hwp", "angle_deg": v}]},
        lambda v: SchemeConfig((OpticalElement("hwp", v),))),
    "crystal angle": (
        lambda v: {"elements": [{"kind": "crystal", "angle_deg": v, "delay_bins": 1}]},
        lambda v: SchemeConfig((crystal(v, 1),))),
    "crystal delay": (
        lambda v: {"elements": [{"kind": "crystal", "angle_deg": 0, "delay_bins": v}]},
        lambda v: SchemeConfig((crystal(0.0, v),))),
    "plate delay": (
        lambda v: {"elements": [{"kind": "qwp", "angle_deg": 0, "delay_bins": v}]},
        lambda v: SchemeConfig((OpticalElement("qwp", 0.0, v),))),
    "coherence": (
        lambda v: {"coherence": v, "elements": [{"kind": "crystal", "angle_deg": 0, "delay_bins": 1}]},
        lambda v: SchemeConfig((_CRYSTAL,), coherence=v)),
}


def _outcome(build):
    """The built config's JSON form, or "refused" for a ValueError; any other exception fails the test."""
    try:
        return build().to_json()
    except ValueError:
        return "refused"


@pytest.mark.parametrize("document, construct", list(FIELDS.values()), ids=[f"SchemeConfig-{f}" for f in FIELDS])
def test_a_reader_accepts_and_refuses_what_its_constructor_does(document, construct):
    for value in VALUES:
        expected = _outcome(lambda: construct(value))
        for form in (document(value), json.dumps(document(value))):
            assert _outcome(lambda: SchemeConfig.from_json(form)) == expected, value


def test_constructors_refuse_what_is_not_their_container_with_value_error():
    for elements in (("abc",), None, "abc", 5, (_CRYSTAL, None), {_CRYSTAL}):
        with pytest.raises(ValueError, match="scheme elements must be"):
            SchemeConfig(elements)
    assert SchemeConfig([_CRYSTAL]).elements == (_CRYSTAL,)
    for settings in (None, "hvpmrl", 5, set(DEFAULT_SETTINGS), np.array(DEFAULT_SETTINGS)):
        with pytest.raises(ValueError, match="settings must be the six labels"):
            MeasurementRecord(settings, np.ones(6), 10, 0)
    assert MeasurementRecord(list(DEFAULT_SETTINGS), np.ones(6), 10, 0).settings == DEFAULT_SETTINGS


def test_build_scheme_holds_its_angle_to_the_element_rule():
    # float() read "30" as 30 degrees and True as 1, raised OverflowError for 10**400 and TypeError for a list
    for angle in ("30", True, np.True_, 10**400, [1.0, 2.0], "abc", 1j):
        with pytest.raises(ValueError, match="'scheme1' needs a number of degrees"):
            build_scheme("scheme1", angle)
    for angle in (30, np.float32(30.0), np.int64(30), np.array(30.0)):
        assert build_scheme("scheme1", angle).to_json() == build_scheme("scheme1", 30.0).to_json()
    assert build_scheme("scheme1", np.array([30.0, 40.0])).batch == 2


def test_collapse_with_coherence_holds_gamma_to_the_coherence_rule():
    # "0.5" and None raised TypeError, and False ran as gamma = 0, where SchemeConfig refuses all three
    state = initial_state([1.0, 0.0])
    for gamma in ("0.5", None, False, True, np.True_, [0.5], 10**400, 1.0, -0.1, float("nan")):
        with pytest.raises(ValueError, match=r"gamma must be a number in \[0, 1\)"):
            collapse_with_coherence(state, gamma)
        with pytest.raises(ValueError, match=r"coherence must be a number in \[0, 1\)"):
            SchemeConfig((_CRYSTAL,), coherence=gamma)
    expected = collapse_with_coherence(state, 0.5)
    for gamma in (np.float64(0.5), np.float32(0.5), np.array(0.5)):
        assert np.array_equal(collapse_with_coherence(state, gamma), expected)
    assert np.array_equal(collapse_with_coherence(state, 0), collapse_with_coherence(state, 0.0))
