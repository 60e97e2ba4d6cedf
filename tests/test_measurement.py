import json
import re

import numpy as np
import pytest

from depolsim.measurement import (
    DEFAULT_SETTINGS,
    SETTING_PAIRS,
    MeasurementRecord,
    probabilities,
    projector,
    sample_counts,
)
from depolsim.polarization import JONES_H, density_from_jones, density_from_stokes
from _helpers import random_density
import _oracle


def test_projector_examples():
    assert np.abs(projector("h") - np.array([[1, 0], [0, 0]])).max() < 1e-15
    assert abs(projector("m")[0, 0].real - 0.5) < 1e-15
    assert np.abs(projector("h") + projector("v") - np.eye(2)).max() < 1e-15
    with pytest.raises(ValueError, match="label"):
        projector("x")


def test_projectors_match_jones_outer_products():
    from depolsim.polarization import JONES_STATES

    for label, jones in JONES_STATES.items():
        assert np.abs(projector(label) - density_from_jones(jones)).max() < 1e-15


def test_probabilities_examples():
    assert np.allclose(probabilities(np.eye(2) / 2), 0.5 * np.ones(6), atol=1e-15)
    p = probabilities(density_from_jones(JONES_H))
    assert np.allclose(p, [1.0, 0.0, 0.5, 0.5, 0.5, 0.5], atol=1e-15)
    s = np.ones(3) / np.sqrt(3)
    p = probabilities(density_from_stokes(s))
    assert abs(p[0] - (1 + 1 / np.sqrt(3)) / 2) < 1e-12


def test_probabilities_equal_the_per_label_traces():
    rng = np.random.default_rng(8)
    for _ in range(200):
        rho = random_density(rng)
        per_label = np.clip([np.trace(rho @ projector(lbl)).real for lbl in DEFAULT_SETTINGS], 0.0, 1.0)
        assert np.array_equal(probabilities(rho).view(np.uint64), per_label.view(np.uint64))


def test_complementary_pairs_sum_to_one():
    rng = np.random.default_rng(0)
    for _ in range(100):
        p = dict(zip(DEFAULT_SETTINGS, probabilities(random_density(rng))))
        for plus, minus in SETTING_PAIRS:
            assert abs(p[plus] + p[minus] - 1.0) < 1e-12


def test_sample_counts_is_deterministic():
    rng = np.random.default_rng(1)
    rho = random_density(rng)
    a = sample_counts(rho, 5000, seed=123)
    b = sample_counts(rho, 5000, seed=123)
    assert np.array_equal(a.counts, b.counts)
    assert a.to_json() == b.to_json()
    c = sample_counts(rho, 5000, seed=124)
    assert not np.array_equal(a.counts, c.counts)


def test_exact_mode_rounds_expected_counts():
    rho = density_from_jones(JONES_H)
    rec = sample_counts(rho, 1000, seed=0, exact=True)
    assert list(rec.counts) == [1000, 0, 500, 500, 500, 500]


@pytest.mark.filterwarnings("error")
def test_mean_counts_beyond_int64_raise_one_value_error():
    rho = density_from_jones(JONES_H)
    assert sample_counts(rho, 2**62, seed=0, exact=True).counts[0] == 2**62
    for exact in (True, False):
        for shots in (2**63, 10**20):
            with pytest.raises(ValueError, match="int64"):
                sample_counts(rho, shots, seed=0, exact=exact)


def test_poisson_mean_tracks_probabilities():
    rho = density_from_stokes([0.3, -0.5, 0.2])
    p = probabilities(rho)
    shots = 1000
    n_seeds = 1000
    totals = np.zeros(6)
    for seed in range(n_seeds):
        totals += sample_counts(rho, shots, seed=seed).counts
    mean = totals / (n_seeds * shots)
    sigma = np.sqrt(p / shots / n_seeds)
    assert np.all(np.abs(mean - p) < 3 * sigma + 1e-12)


def test_poisson_variance_matches_mean():
    rho = np.eye(2) / 2
    shots = 400
    n_seeds = 2000
    samples = np.array([sample_counts(rho, shots, seed=s).counts for s in range(n_seeds)])
    mean = samples.mean(axis=0)
    var = samples.var(axis=0, ddof=1)
    # var(sample variance)/n gives sigma ~ mean * sqrt(2/n) for Poisson
    sigma = mean * np.sqrt(2.0 / n_seeds)
    assert np.all(np.abs(var - mean) < 3 * sigma)


def test_record_validation_and_json():
    shuffled = ("r", "v", "m", "h", "l", "p")
    rec = MeasurementRecord(shuffled, np.array([1, 4, 2, 3, 6, 5]), shots=10, seed=7)
    assert rec.count("v") == 4
    back = MeasurementRecord.from_json(rec.to_json())
    assert back.settings == rec.settings
    assert np.array_equal(back.counts, rec.counts)
    assert (back.shots, back.seed) == (rec.shots, rec.seed)
    with pytest.raises(ValueError, match="per setting"):
        MeasurementRecord(shuffled, np.array([1, 2]), shots=10, seed=0)
    with pytest.raises(ValueError, match="non-negative"):
        MeasurementRecord(shuffled, np.array([1, 2, 3, 4, 5, -1]), shots=10, seed=0)
    with pytest.raises(ValueError, match="shots"):
        sample_counts(np.eye(2) / 2, 0, seed=0)
    with pytest.raises(ValueError, match="shots"):
        MeasurementRecord(shuffled, np.ones(6), shots=0, seed=0)
    # the record holds a read-only copy: an int64 array was held as given, so a later write got past the check
    counts = np.array([1, 2, 3, 4, 5, 6], dtype=np.int64)
    held = MeasurementRecord(shuffled, counts, shots=10, seed=0)
    counts[0] = -5
    assert held.counts.tolist() == [1, 2, 3, 4, 5, 6] and not held.counts.flags.writeable
    # the settings must be h, v, p, m, r and l once each: not repeated, missing, unknown or non-string
    for settings in (("h", "v", "p", "m", "r", "r"), ("h", "v", "p", "m", "r"), ("h", "v", "p", "m", "r", "x"),
                     ("h", "v", "p", "m", "r", 5)):
        with pytest.raises(ValueError, match="once each"):
            MeasurementRecord(settings, np.ones(len(settings)), shots=10, seed=0)
        with pytest.raises(ValueError, match="once each"):
            MeasurementRecord.from_json({"settings": list(settings), "counts": [1] * len(settings), "shots": 10, "seed": 0})


def test_a_malformed_record_document_raises_value_error():
    record = {"settings": list(DEFAULT_SETTINGS), "counts": [1] * 6, "shots": 10, "seed": 0}
    for document in (
        {k: v for k, v in record.items() if k != "seed"},
        {k: v for k, v in record.items() if k != "counts"},
        [1],
        "[1]",
        "null",
        "{",
        5,
    ):
        with pytest.raises(ValueError, match="malformed measurement record JSON|Expecting"):
            MeasurementRecord.from_json(document)
    # settings that are not an array of labels are the constructor's to refuse, not read letter by letter
    for settings in (5, "hvpmrl", None):
        with pytest.raises(ValueError, match="settings must be the six labels"):
            MeasurementRecord.from_json({**record, "settings": settings})
    assert MeasurementRecord.from_json(json.dumps(record)).seed == 0


def test_a_record_document_refuses_true_and_false():
    # JSON true and false are not counts, shots or seeds: numpy and int() would read them as 1 and 0
    record = {"settings": ["r", "v", "m", "h", "l", "p"], "counts": [1] * 6, "shots": 10, "seed": 0}
    for document, message in (
        ({**record, "counts": [True, 0, 1, 1, 1, 1]}, "not true or false"),
        ({**record, "counts": [True] * 6}, "not true or false"),
        ({**record, "counts": [1, 1, 1, 1, 1, False]}, "not true or false"),
        ({**record, "shots": True}, "shots must be an integer >= 1, got True"),
        ({**record, "seed": False}, "seed must be an integer >= 0, got False"),
        ({**record, "counts": [True, 0, 1, 1, 1, 1], "shots": True, "seed": False}, "not true or false"),
    ):
        for form in (document, json.dumps(document)):
            with pytest.raises(ValueError, match=message):
                MeasurementRecord.from_json(form)
    back = MeasurementRecord.from_json(json.dumps({**record, "counts": [1, 0, 1, 1, 1, 1], "seed": 1}))
    assert back.counts.tolist() == [1, 0, 1, 1, 1, 1] and back.shots == 10 and back.seed == 1


def test_non_integral_shots_and_counts_are_rejected():
    shuffled = ("r", "v", "m", "h", "l", "p")
    rho = np.eye(2) / 2
    for shots in (10.5, 1e5 + 0.25, float("nan"), float("inf"), "10", None):
        with pytest.raises(ValueError, match="shots must be an integer"):
            sample_counts(rho, shots, seed=0)
        with pytest.raises(ValueError, match="shots must be an integer"):
            MeasurementRecord(shuffled, np.ones(6), shots=shots, seed=0)
    with pytest.raises(ValueError, match="shots must be an integer"):
        MeasurementRecord.from_json({"settings": list(shuffled), "counts": [1] * 6, "shots": 10.5, "seed": 0})
    for counts in ([1.7, 1, 1, 1, 1, 1], [float("nan")] * 6, [float("inf")] * 6, [1e19] * 6, [2**70] * 6):
        with pytest.raises(ValueError, match="counts must be integers"):
            MeasurementRecord(shuffled, counts, shots=10, seed=0)
        with pytest.raises(ValueError, match="counts must be integers"):
            MeasurementRecord.from_json({"settings": list(shuffled), "counts": counts, "shots": 10, "seed": 0})
    # integral floats and integral float shots stay accepted, as ints
    rec = MeasurementRecord(shuffled, np.ones(6), shots=10.0, seed=0)
    assert rec.counts.dtype == np.int64 and rec.shots == 10 and isinstance(rec.shots, int)
    assert sample_counts(rho, 1e5, seed=3).shots == 100_000
    assert np.array_equal(sample_counts(rho, 1e5, seed=3).counts, sample_counts(rho, 100_000, seed=3).counts)


def test_shots_and_seeds_refuse_bools():
    # True is not one shot nor seed 1, as JSON true is not in a record document
    rho = np.eye(2) / 2
    shuffled = ("r", "v", "m", "h", "l", "p")
    for flag in (True, False, np.True_, np.False_):
        for exact in (False, True):
            with pytest.raises(ValueError, match="shots must be an integer >= 1"):
                sample_counts(rho, flag, 0, exact=exact)
            with pytest.raises(ValueError, match="seed must be an integer >= 0"):
                sample_counts(rho, 10, flag, exact=exact)
        with pytest.raises(ValueError, match="shots must be an integer >= 1"):
            MeasurementRecord(shuffled, np.ones(6), shots=flag, seed=0)
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            MeasurementRecord(shuffled, np.ones(6), shots=10, seed=flag)
    assert sample_counts(rho, 1, 1).shots == 1


def test_seeds_are_checked_at_the_boundary_in_both_modes():
    rho = np.eye(2) / 2
    for exact in (False, True):
        # a bool is not an integer seed, Python's or numpy's, as JSON true is not one
        for seed in (-1, -(2**70), 1.5, -0.5, float("nan"), float("inf"), "3", None, [3], True, False, np.True_):
            with pytest.raises(ValueError, match="seed must be an integer >= 0"):
                sample_counts(rho, 100, seed, exact=exact)
        # integral values of any other numeric type stay accepted, stored as ints
        for seed, as_int in ((3.0, 3), (np.int64(7), 7), (np.uint64(2**63), 2**63), (2**70, 2**70)):
            record = sample_counts(rho, 100, seed, exact=exact)
            assert record.seed == as_int and type(record.seed) is int
    # a record checks its seed as sample_counts does, built directly or from JSON, which no longer truncates it
    shuffled = ("r", "v", "m", "h", "l", "p")
    for seed in (-7, 1.5, "abc", None, [3]):
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            MeasurementRecord(shuffled, np.ones(6), shots=10, seed=seed)
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            MeasurementRecord.from_json({"settings": list(shuffled), "counts": [1] * 6, "shots": 10, "seed": seed})
    assert MeasurementRecord(shuffled, np.ones(6), shots=10, seed=np.int64(7)).seed == 7
    # a valid seed draws PCG64's stream of that integer, whatever its type
    for seed, as_int in ((0, 0), (3.0, 3), (np.int64(7), 7), (2**70, 2**70)):
        expected = np.random.Generator(np.random.PCG64(as_int)).poisson(1000 * probabilities(rho))
        assert np.array_equal(sample_counts(rho, 1000, seed).counts, expected)


@pytest.mark.filterwarnings("error")
def test_a_non_finite_state_is_named_in_the_error():
    for position in ((0, 0), (0, 1), (1, 0), (1, 1)):
        for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.inf), complex(np.nan, 0.0)):
            rho = np.eye(2, dtype=complex) / 2
            rho[position] = bad
            for exact in (True, False):
                with pytest.raises(ValueError, match="state rho must be finite"):
                    sample_counts(rho, 10, seed=0, exact=exact)


def test_poisson_draws_are_the_stream_of_one_array_call():
    rng = np.random.default_rng(9)
    for seed in range(400):
        rho = random_density(rng) if seed % 4 else density_from_jones(JONES_H)
        shots = int(10 ** rng.uniform(0, 12))
        means = shots * probabilities(rho)
        expected = np.random.Generator(np.random.PCG64(seed)).poisson(means)
        assert np.array_equal(sample_counts(rho, shots, seed).counts, expected)


def test_probabilities_keep_the_bits_of_np_clip():
    # probabilities reads one matrix's entries in Python floats; against the stacked product clamped by np.clip, on
    # signed zeros, values beyond [0, 1] and NaN, the bits agree up to the sign of a zero wherever the product is not
    # NaN.  A NaN that enters a probability makes it NaN in both; the product also spreads a NaN through the
    # projectors' zero entries (0 * NaN), which the entry path never multiplies
    grid = [0.0, -0.0, 1.0, -1.0, 0.5, 1.5, -1e-300, 5e-324, np.nan]
    rng = np.random.default_rng(12)
    nan_in_both = nan_in_the_product_only = 0
    for _ in range(2000):
        rho = rng.choice(grid, size=(2, 2)) + 1j * rng.choice(grid, size=(2, 2))
        with np.errstate(invalid="ignore"):
            expected = _oracle.stacked_probabilities(rho)
        got, number = probabilities(rho), ~np.isnan(expected)
        # x + 0.0 turns -0.0 into +0.0 and leaves every other value as it is
        assert np.array_equal((got[number] + 0.0).view(np.uint64), (expected[number] + 0.0).view(np.uint64)), rho
        assert np.isnan(expected[np.isnan(got)]).all(), rho
        nan_in_both += int(np.isnan(got).sum())
        nan_in_the_product_only += int((np.isnan(expected) & ~np.isnan(got)).sum())
    assert nan_in_both > 0 and nan_in_the_product_only > 0
    for state in (np.eye(2)[None] / 2, np.eye(3) / 3, np.ones(2), np.ones((6, 2, 2))):
        with pytest.raises(ValueError, match=re.escape(f"must be one 2x2 matrix, got shape {np.shape(state)}")):
            probabilities(state)


def _entry_grid_states(rng, n):
    """n complex 2x2 matrices over signed zeros, subnormals, values near the float maximum and random entries,
    physical random states among them."""
    grid = np.array([0.0, -0.0, 5e-324, -5e-324, 2.5e-308, -1e-310, 1e308, -1e308, 0.5, -0.5, 1.0, 0.3, -0.7])
    states = rng.choice(grid, size=(n, 2, 2)) + 1j * rng.choice(grid, size=(n, 2, 2))
    for k in range(0, n, 3):
        mask = rng.random((2, 2, 2)) < 0.5
        states[k].real[mask[0]] = rng.normal(size=mask[0].sum())
        states[k].imag[mask[1]] = rng.normal(size=mask[1].sum())
    for k in range(1, n, 5):
        states[k] = random_density(rng)
    return states


@pytest.mark.kernel_bits
@pytest.mark.filterwarnings("error")
def test_sample_counts_keep_the_bits_of_the_probabilities_stream():
    # sample_counts reads its six means off rho's entries in Python floats; they must be shots times the stacked
    # product's probabilities bit for bit, up to the sign of a zero, and both modes must give the counts of that stream
    rng = np.random.default_rng(24)
    for k, rho in enumerate(_entry_grid_states(rng, 3000)):
        with np.errstate(over="ignore", invalid="ignore"):
            expected = _oracle.stacked_probabilities(rho)
        got = probabilities(rho)
        # x + 0.0 turns -0.0 into +0.0 and leaves every other value as it is
        assert np.array_equal((got + 0.0).view(np.uint64), (expected + 0.0).view(np.uint64)), rho
        shots = int(10 ** rng.uniform(0, 12))
        means = shots * expected
        sampled = np.random.Generator(np.random.PCG64(k)).poisson(means)
        assert np.array_equal(sample_counts(rho, shots, k).counts, sampled), rho
        assert np.array_equal(sample_counts(rho, shots, k, exact=True).counts, np.rint(means).astype(np.int64)), rho


def test_sample_counts_records_are_checked_records():
    # sample_counts builds its record without __post_init__; it must hold exactly what the checks would store
    rng = np.random.default_rng(25)
    for exact in (False, True):
        for shots, seed in ((1, 0), (10.0, np.int64(3)), (10**6, 2**70)):
            record = sample_counts(random_density(rng), shots, seed, exact=exact)
            checked = MeasurementRecord(record.settings, record.counts, record.shots, record.seed)
            assert record.settings is DEFAULT_SETTINGS and checked.settings == record.settings
            assert record.counts.dtype == np.int64 and record.counts.shape == (6,) and min(record.counts) >= 0
            assert type(record.shots) is type(record.seed) is int
            assert (record.shots, record.seed) == (checked.shots, checked.seed) == (int(shots), int(seed))
            assert MeasurementRecord.from_json(record.to_json()).to_json() == record.to_json()


@pytest.mark.filterwarnings("error")
def test_shots_beyond_the_float_range_raise_the_int64_error():
    # numpy's product raised OverflowError converting such an integer to float
    rho = density_from_jones(JONES_H)
    for exact in (True, False):
        for shots in (10**400, 2**1024):
            with pytest.raises(ValueError, match="gives mean counts beyond the int64 range"):
                sample_counts(rho, shots, seed=0, exact=exact)


def test_sample_counts_refuses_any_shape_but_2x2():
    for exact in (True, False):
        for state in (np.ones((1, 2, 2)) / 2, np.eye(3) / 3, np.ones(2), np.ones((2, 2, 1)), np.eye(4) / 4, [0.5]):
            shape = np.shape(state)
            with pytest.raises(ValueError, match=re.escape(f"must be one 2x2 matrix, got shape {shape}")):
                sample_counts(state, 10, 0, exact=exact)
        assert sample_counts([[0.5, 0], [0, 0.5]], 10, 0, exact=exact).shots == 10


def test_a_string_of_settings_is_refused():
    # a string iterates as characters; "hvpmrl" used to read as the six labels
    for settings in ("hvpmrl", "rvmhlp"):
        with pytest.raises(ValueError, match="once each"):
            MeasurementRecord(settings, np.ones(6), 10, 0)
    assert MeasurementRecord(list("hvpmrl"), np.ones(6), 10, 0).settings == DEFAULT_SETTINGS


def test_a_record_refuses_bool_counts_as_its_reader_does():
    # numpy reads a True among integers as 1 and keeps no trace of it: the constructor took these
    for counts in ([True, 1, 1, 1, 1, 1], [1, 1, 1, 1, 1, np.False_], (True,) * 6, np.ones(6, dtype=bool)):
        with pytest.raises(ValueError, match="counts must be integers, not true or false"):
            MeasurementRecord(DEFAULT_SETTINGS, counts, shots=10, seed=0)
    # nor are strings, objects or ragged nestings counts, built in Python or read
    for counts in (["1"] * 6, np.array(["1"] * 6), np.ones(6, dtype=object), [None] * 6, [1, [1], 1, 1, 1, 1]):
        with pytest.raises(ValueError, match="counts must be integers"):
            MeasurementRecord(DEFAULT_SETTINGS, counts, shots=10, seed=0)
    for counts in (["1"] * 6, [None] * 6, [1, [1], 1, 1, 1, 1]):
        with pytest.raises(ValueError, match="counts must be integers"):
            MeasurementRecord.from_json({"settings": list(DEFAULT_SETTINGS), "counts": counts, "shots": 10, "seed": 0})


def test_a_decoded_record_document_may_hold_an_array_of_counts():
    # the reader passes counts to the constructor as decoded, so an array reads as the list it holds
    document = {"settings": list(DEFAULT_SETTINGS), "shots": 10, "seed": 0}
    for counts in (np.arange(6), np.arange(6.0), np.arange(6, dtype=np.uint8)):
        record = MeasurementRecord.from_json({**document, "counts": counts})
        assert record.counts.dtype == np.int64 and record.counts.tolist() == list(range(6))
    with pytest.raises(ValueError, match="counts must be integers, not true or false"):
        MeasurementRecord.from_json({**document, "counts": np.ones(6, dtype=bool)})
