"""The JSON readers only decode: every field they read meets its constructor's rule and nothing else.

For each reader, each field takes every value of one table, once through a
document (decoded and as text) and once through the constructor, and both
must accept it into the same object or both refuse it with ValueError.  So a
plate's `"delay_bins": null` is no delay, as `None` is in Python.
"""

import json

import numpy as np
import pytest

from depolsim.channels import StokesChannel, build_scheme
from depolsim.measurement import DEFAULT_SETTINGS, MeasurementRecord
from depolsim.temporal import OpticalElement, SchemeConfig, collapse_with_coherence, crystal, initial_state
from depolsim.tomography import ChiMatrix

VALUES = (True, False, "1", "45", None, [1], 10**400, -1, 0, 1.5, 2.0)


def _entry(rows, value):
    """`rows` (nested lists) with its first entry replaced by `value`."""
    if isinstance(rows[0], list):
        return [_entry(rows[0], value)] + rows[1:]
    return [value] + rows[1:]


_CRYSTAL = crystal(0.0, 1)
_RECORD = {"settings": list(DEFAULT_SETTINGS), "counts": [1] * 6, "shots": 10, "seed": 0}
_EYE3, _ZERO3 = np.eye(3).tolist(), [0.0] * 3
_CHI = (np.eye(4) / 4.0).tolist()

# (reader, field, document of a value, constructor call of the same value)
FIELDS = [
    (SchemeConfig, "plate angle",
     lambda v: {"elements": [{"kind": "hwp", "angle_deg": v}]},
     lambda v: SchemeConfig((OpticalElement("hwp", v),))),
    (SchemeConfig, "crystal angle",
     lambda v: {"elements": [{"kind": "crystal", "angle_deg": v, "delay_bins": 1}]},
     lambda v: SchemeConfig((crystal(v, 1),))),
    (SchemeConfig, "crystal delay",
     lambda v: {"elements": [{"kind": "crystal", "angle_deg": 0, "delay_bins": v}]},
     lambda v: SchemeConfig((crystal(0.0, v),))),
    (SchemeConfig, "plate delay",
     lambda v: {"elements": [{"kind": "qwp", "angle_deg": 0, "delay_bins": v}]},
     lambda v: SchemeConfig((OpticalElement("qwp", 0.0, v),))),
    (SchemeConfig, "coherence",
     lambda v: {"coherence": v, "elements": [{"kind": "crystal", "angle_deg": 0, "delay_bins": 1}]},
     lambda v: SchemeConfig((_CRYSTAL,), coherence=v)),
    (MeasurementRecord, "settings",
     lambda v: {**_RECORD, "settings": v},
     lambda v: MeasurementRecord(v, [1] * 6, 10, 0)),
    (MeasurementRecord, "count",
     lambda v: {**_RECORD, "counts": _entry(_RECORD["counts"], v)},
     lambda v: MeasurementRecord(DEFAULT_SETTINGS, _entry([1] * 6, v), 10, 0)),
    (MeasurementRecord, "shots",
     lambda v: {**_RECORD, "shots": v},
     lambda v: MeasurementRecord(DEFAULT_SETTINGS, [1] * 6, v, 0)),
    (MeasurementRecord, "seed",
     lambda v: {**_RECORD, "seed": v},
     lambda v: MeasurementRecord(DEFAULT_SETTINGS, [1] * 6, 10, v)),
    (StokesChannel, "m entry",
     lambda v: {"m": _entry(_EYE3, v), "b": _ZERO3},
     lambda v: StokesChannel(_entry(_EYE3, v), _ZERO3)),
    (StokesChannel, "b entry",
     lambda v: {"m": _EYE3, "b": _entry(_ZERO3, v)},
     lambda v: StokesChannel(_EYE3, _entry(_ZERO3, v))),
    (StokesChannel, "b",
     lambda v: {"m": _EYE3, "b": v},
     lambda v: StokesChannel(_EYE3, v)),
    (ChiMatrix, "re entry",
     lambda v: {"re": _entry(_CHI, v), "im": np.zeros((4, 4)).tolist()},
     lambda v: ChiMatrix(_entry(_CHI, v))),
    (ChiMatrix, "clipped_mass",
     lambda v: {"re": _CHI, "im": np.zeros((4, 4)).tolist(), "clipped_mass": v},
     lambda v: ChiMatrix(_CHI, v)),
]


def _outcome(build):
    """The built object's JSON form, or "refused" for a ValueError; any other exception fails the test."""
    try:
        return build().to_json()
    except ValueError:
        return "refused"


@pytest.mark.parametrize("reader, field, document, construct", FIELDS, ids=[f"{r.__name__}-{f}" for r, f, *_ in FIELDS])
def test_a_reader_accepts_and_refuses_what_its_constructor_does(reader, field, document, construct):
    for value in VALUES:
        expected = _outcome(lambda: construct(value))
        for form in (document(value), json.dumps(document(value))):
            assert _outcome(lambda: reader.from_json(form)) == expected, (field, value)


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
