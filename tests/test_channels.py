import json
import math

import numpy as np
import pytest

from depolsim import channels, temporal
from depolsim.channels import (
    ISOTROPIC_POINT_DEG,
    SCHEME_NAMES,
    StokesChannel,
    analytic_scheme2_dop,
    build_scheme,
    compose,
    extract_channel,
    extract_chi,
    isotropy_report,
    mutually_unbiased_triad,
    s1_projection_channel,
    scheme1_rotated_crystal,
)
from depolsim.polarization import (
    JONES_H,
    JONES_P,
    JONES_R,
    JONES_STATES,
    density_from_jones,
    dop,
    jones_from_stokes,
    stokes_from_density,
)
from depolsim.temporal import SchemeConfig, crystal, run_scheme
from _helpers import random_pure_jones


def scheme_angle(rng, kind):
    return None if kind == "lyot" else float(rng.uniform(0, 180))


def test_build_scheme_validation():
    with pytest.raises(ValueError, match="unknown scheme"):
        build_scheme("cornu", 10.0)
    with pytest.raises(ValueError, match="angle"):
        build_scheme("scheme1")
    with pytest.raises(ValueError, match="finite"):
        build_scheme("scheme2", float("nan"))
    assert len(build_scheme("lyot").elements) == 2


def test_scheme1_named_angles():
    # theta = 0: nothing is depolarized
    cfg = build_scheme("scheme1", 0.0)
    assert abs(dop(run_scheme(cfg, JONES_P)) - 1.0) < 1e-12
    # theta = 90: dephasing channel of a single crystal
    cfg = build_scheme("scheme1", 90.0)
    assert abs(dop(run_scheme(cfg, JONES_H)) - 1.0) < 1e-12
    assert dop(run_scheme(cfg, JONES_P)) < 1e-12
    assert dop(run_scheme(cfg, JONES_R)) < 1e-12
    # theta = 45: exactly one of the three unbiased inputs is fully depolarized
    cfg = build_scheme("scheme1", 45.0)
    dops = {lbl: dop(run_scheme(cfg, JONES_STATES[lbl])) for lbl in "hpr"}
    lost = [lbl for lbl, value in dops.items() if value < 1e-6]
    assert lost == ["p"]


def test_scheme1_hwp_equals_rotated_crystal():
    rng = np.random.default_rng(0)
    for _ in range(50):
        theta = rng.uniform(0, 180)
        j = random_pure_jones(rng)
        rho_hwp = run_scheme(build_scheme("scheme1", theta), j)
        rho_rot = run_scheme(scheme1_rotated_crystal(theta), j)
        assert np.abs(rho_hwp - rho_rot).max() < 1e-10


def test_scheme3_fully_depolarizes_at_45():
    cfg = build_scheme("scheme3", 45.0)
    for lbl in "hpr":
        assert dop(run_scheme(cfg, JONES_STATES[lbl])) < 1e-12


def test_extract_channel_examples():
    identity_cfg = SchemeConfig((crystal(0.0, 1), crystal(90.0, 1)))
    ch = extract_channel(identity_cfg)
    assert np.abs(ch.m - np.eye(3)).max() < 1e-12
    assert np.abs(ch.b).max() < 1e-12

    ch = extract_channel(build_scheme("single_crystal", 0.0))
    assert np.abs(ch.m - np.diag([1.0, 0.0, 0.0])).max() < 1e-12
    assert np.abs(ch.b).max() < 1e-12

    ch = extract_channel(build_scheme("lyot"))
    assert np.abs(ch.m).max() < 1e-12
    assert np.abs(ch.b).max() < 1e-12


def test_extract_channel_linearity_for_all_schemes():
    rng = np.random.default_rng(1)
    for kind in SCHEME_NAMES:
        for _ in range(20):
            cfg = build_scheme(kind, scheme_angle(rng, kind))
            ch = extract_channel(cfg)
            for _ in range(5):
                j = random_pure_jones(rng)
                s_in = stokes_from_density(density_from_jones(j))
                s_out = stokes_from_density(run_scheme(cfg, j))
                assert np.abs(s_out - ch.apply(s_in)).max() < 1e-10


def test_channel_maps_unit_ball_into_unit_ball():
    rng = np.random.default_rng(2)
    for kind in SCHEME_NAMES:
        cfg = build_scheme(kind, scheme_angle(rng, kind))
        ch = extract_channel(cfg)
        for _ in range(1000):
            s = rng.normal(size=3)
            s *= rng.uniform(0, 1) ** (1 / 3) / np.linalg.norm(s)
            assert np.linalg.norm(ch.apply(s)) <= 1 + 1e-9


def test_compose_examples():
    proj_45 = StokesChannel(np.outer([0, 1, 0], [0, 1, 0]), np.zeros(3))
    proj_0 = s1_projection_channel()
    lyot_map = compose(proj_45, proj_0)
    assert np.abs(lyot_map.m).max() < 1e-15 and np.abs(lyot_map.b).max() < 1e-15

    ch = extract_channel(build_scheme("scheme2", 33.0))
    same = compose(StokesChannel(np.eye(3), np.zeros(3)), ch)
    assert np.abs(same.m - ch.m).max() < 1e-15 and np.abs(same.b - ch.b).max() < 1e-15


def test_equal_crystals_are_not_two_independent_projections():
    # equal-length crystals recombine the middle bin coherently, so scheme 1
    # is not the composition of the two single-crystal projection maps
    theta = 45.0
    u = np.array([np.cos(np.deg2rad(2 * theta)), np.sin(np.deg2rad(2 * theta)), 0.0])
    proj_theta = StokesChannel(np.outer(u, u), np.zeros(3))
    composed = compose(s1_projection_channel(), proj_theta)
    actual = extract_channel(build_scheme("scheme1", theta))
    assert np.abs(composed.m - actual.m).max() > 0.1


def test_analytic_scheme2_dop_values():
    for s1 in (-1.0, -0.3, 0.0, 0.7, 1.0):
        assert abs(analytic_scheme2_dop(0.0, s1) - 1.0) < 1e-12
    # the symmetric-triad floor at theta = 45
    assert abs(analytic_scheme2_dop(45.0, 1 / np.sqrt(3)) - 1 / np.sqrt(6)) < 1e-12
    # derived: cos(180) = -1, cos(360) = 1 give D^2 = (1 - s1^2)/4
    assert analytic_scheme2_dop(45.0, 1.0) < 1e-12
    assert abs(dop(run_scheme(build_scheme("scheme2", 45.0), JONES_H))) < 1e-12
    with pytest.raises(ValueError, match="s1"):
        analytic_scheme2_dop(10.0, 1.2)
    # a bool or a numeric string is no number: a bool ran as 1 or 0, and a string raised TypeError
    for s1 in (np.nan, np.inf, -np.inf, "0.5", True, None):
        with pytest.raises(ValueError, match="s1"):
            analytic_scheme2_dop(10.0, s1)
    for theta in (np.nan, np.inf, -np.inf, "30", True, None):
        with pytest.raises(ValueError, match="theta"):
            analytic_scheme2_dop(theta, 0.5)


@pytest.mark.kernel_bits
def test_analytic_scheme2_dop_on_an_angle_array_has_the_bits_of_its_scalar_calls():
    # np.cos runs numpy's SIMD loops on an array: each entry must still equal its own scalar call, bit for bit
    rng = np.random.default_rng(35)
    thetas = np.concatenate([[0.0, -0.0, 45.0, 90.0, 1e-9, -30.0, 720.5], np.arange(0.0, 90.0, 0.37),
                             rng.uniform(-360.0, 360.0, 500)])
    for s1 in (0.0, np.sqrt(1.0 / 3.0), 1.0, -0.4):
        array = analytic_scheme2_dop(thetas, s1)
        scalars = np.array([analytic_scheme2_dop(theta, s1) for theta in thetas.tolist()])
        assert array.shape == thetas.shape and np.array_equal(array.view(np.uint64), scalars.view(np.uint64)), s1
    ints, floats = np.arange(0, 91, 5), np.arange(0.0, 91.0, 5.0)
    assert np.array_equal(analytic_scheme2_dop(ints, 0.5), analytic_scheme2_dop(floats, 0.5))
    # the array form refuses what the scalar form refuses, and an array that is not 1-D or is empty
    for theta in (np.array([0.0, np.nan]), np.array([np.inf]), np.array([True, False]), np.array(["30", "40"]),
                  np.zeros((2, 2)), np.array([[30.0]]), np.array([])):
        with pytest.raises(ValueError, match="theta"):
            analytic_scheme2_dop(theta, 0.5)
    assert analytic_scheme2_dop(np.array(30.0), 0.5) == analytic_scheme2_dop(30.0, 0.5)


def test_engine_matches_scheme2_closed_form():
    # convention-locking test for the quarter-wave plate signs
    rng = np.random.default_rng(3)
    for _ in range(100):
        theta = rng.uniform(0, 180)
        j = random_pure_jones(rng)
        s1 = stokes_from_density(density_from_jones(j))[0]
        engine = dop(run_scheme(build_scheme("scheme2", theta), j))
        assert abs(engine - analytic_scheme2_dop(theta, s1)) < 1e-9


def test_scheme2_depolarizes_equal_s1_inputs_identically():
    rng = np.random.default_rng(4)
    for _ in range(20):
        theta = rng.uniform(0, 180)
        cfg = build_scheme("scheme2", theta)
        dops = [
            dop(run_scheme(cfg, jones_from_stokes(s)))
            for s in mutually_unbiased_triad(-1 / np.sqrt(3))
        ]
        assert max(dops) - min(dops) < 1e-12


def test_scheme3_is_s1_projection_after_scheme2():
    rng = np.random.default_rng(5)
    for _ in range(20):
        theta = rng.uniform(0, 180)
        ch3 = extract_channel(build_scheme("scheme3", theta))
        expected = compose(s1_projection_channel(), extract_channel(build_scheme("scheme2", theta)))
        assert np.abs(ch3.m - expected.m).max() < 1e-9
        assert np.abs(ch3.b - expected.b).max() < 1e-9


def test_scheme3_dop_range_for_symmetric_inputs():
    j = jones_from_stokes(mutually_unbiased_triad(1 / np.sqrt(3))[0])
    dops = [dop(run_scheme(build_scheme("scheme3", t), j)) for t in np.arange(0.0, 90.5, 1.0)]
    assert max(dops) <= 1 / np.sqrt(3) + 1e-9
    assert abs(max(dops) - 1 / np.sqrt(3)) < 1e-6
    assert min(dops) < 1e-9


def test_mutually_unbiased_triad():
    limit = 1 / np.sqrt(3)
    for sign in (1.0, -1.0):
        triad = mutually_unbiased_triad(sign * limit)
        for v in triad:
            assert abs(np.linalg.norm(v) - 1.0) < 1e-12
            assert abs(v[0] - sign * limit) < 1e-12
        for i in range(3):
            for k in range(i + 1, 3):
                assert abs(triad[i] @ triad[k]) < 1e-12
    # s1 = 0 puts the triad in the S2/S3 plane
    for v in mutually_unbiased_triad(0.0):
        assert v[0] == 0.0
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
    with pytest.raises(ValueError, match="sqrt"):
        mutually_unbiased_triad(0.8)
    # float() read a numeric string as its number, and a bool as 1 or 0
    for s1 in ("0.5", True, False, None):
        with pytest.raises(ValueError, match="s1 must be a number with"):
            mutually_unbiased_triad(s1)
    # deterministic construction
    a = mutually_unbiased_triad(-limit)
    b = mutually_unbiased_triad(-limit)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_isotropy_report():
    isotropic, lam = isotropy_report(extract_channel(build_scheme("scheme1", ISOTROPIC_POINT_DEG)))
    assert isotropic
    assert abs(lam - 1 / 3) < 1e-4

    isotropic, lam = isotropy_report(StokesChannel(np.eye(3), np.zeros(3)))
    assert isotropic and abs(lam - 1.0) < 1e-12

    isotropic, _ = isotropy_report(extract_channel(build_scheme("single_crystal", 0.0)))
    assert not isotropic


def test_isotropy_report_of_an_overflowing_map_is_not_isotropic():
    # M^T M overflows to inf, and inf - inf on its diagonal is NaN: no floating-point warning, and no isotropy
    assert isotropy_report(StokesChannel(1e200 * np.eye(3), np.zeros(3))) == (False, math.inf)


def test_scheme1_isotropic_point_dops():
    cfg = build_scheme("scheme1", ISOTROPIC_POINT_DEG)
    for lbl in "hpr":
        assert abs(dop(run_scheme(cfg, JONES_STATES[lbl])) - 1 / 3) < 1e-6


def test_scheme1_two_equal_dops_at_67_5():
    cfg = build_scheme("scheme1", 67.5)
    dops = sorted(dop(run_scheme(cfg, JONES_STATES[lbl])) for lbl in "hpr")
    assert abs(dops[2] - dops[1]) < 1e-6
    assert dops[1] - dops[0] > 0.1


def test_isotropic_triple_shrink_is_monotone():
    thetas = np.arange(0.0, 45.1, 2.5)
    lams = []
    for theta in thetas:
        isotropic, lam = isotropy_report(extract_channel(build_scheme("isotropic_triple", theta)))
        assert isotropic
        lams.append(lam)
        # analytic shrink factor of the three-unit assembly
        predicted = abs(np.cos(np.deg2rad(2 * theta))) * np.cos(np.deg2rad(theta)) ** 4
        assert abs(lam - predicted) < 1e-9
    assert abs(lams[0] - 1.0) < 1e-6
    assert lams[-1] < 1e-6
    assert all(lams[i + 1] < lams[i] for i in range(len(lams) - 1))


def test_stokes_channel_json_round_trip():
    # `map` writes the channel by to_json, whose keys are the constructor's: the document rebuilds the same channel
    ch = extract_channel(build_scheme("scheme2", 27.0))
    back = StokesChannel(**json.loads(json.dumps(ch.to_json())))
    assert np.array_equal(back.m, ch.m)
    assert np.array_equal(back.b, ch.b)


def test_stokes_channel_refuses_what_its_reader_refuses():
    # m 3x3 and b a 3-vector, of finite int or float entries
    eye, zero = np.eye(3), np.zeros(3)
    for m, b in (
        ([["1", 0, 0], [0, 1, 0], [0, 0, 1]], zero),
        ([[None, 0, 0], [0, 1, 0], [0, 0, 1]], zero),
        ([[[1], 0, 0], [0, 1, 0], [0, 0, 1]], zero),
        ([[10**400, 0, 0], [0, 1, 0], [0, 0, 1]], zero),
        (eye, [0, 0, 10**400]),
        (eye, [0, "45", 0]),
        (eye, [None, 0, 0]),
        (eye, [[1], 0, 0]),
        (eye, None),
        (eye, 1.5),
        (eye, "abc"),
        (eye, {"x": 1}),
        ([[1.0, 0.0, 0.0]], zero),
        (np.full((3, 3), np.nan), zero),
        (eye, [0.0, -np.inf, 0.0]),
        (np.arange(9.0), zero),
        (eye, zero[:, None]),
        (np.eye(4), np.zeros(4)),
        (eye.astype(bool), zero),
        (eye, [True, False, False]),
        (eye + 0j, zero),
        (eye.astype(object), zero),
    ):
        with pytest.raises(ValueError, match="StokesChannel [mb] must be"):
            StokesChannel(m, b)
    ch = StokesChannel([[1, 0, 0], [0, 1, 0], [0, 0, 1]], np.zeros(3, dtype=np.float32))
    assert ch.m.dtype == float and ch.b.dtype == float and np.array_equal(ch.m, eye)
    # the channel holds read-only copies: float arrays were held as given, so a later write got past the check
    m, b = np.eye(3), np.zeros(3)
    ch = StokesChannel(m, b)
    m[0, 0], b[0] = np.nan, np.inf
    assert np.array_equal(ch.m, eye) and np.array_equal(ch.b, zero)
    assert not ch.m.flags.writeable and not ch.b.flags.writeable


@pytest.mark.parametrize("gamma", (0.0, 0.3))
def test_extract_channel_holds_what_the_checked_constructor_would(gamma):
    # extract_channel skips StokesChannel's checks, as S is finite: its fields are those the checked constructor
    # keeps of the same read-out of the same (held) S
    rng = np.random.default_rng(27)
    configs = [build_scheme(kind, scheme_angle(rng, kind), coherence=gamma) for kind in SCHEME_NAMES]
    for n_crystals in (3, 5):
        elements = [crystal(float(rng.uniform(0, 180)), 3**k) for k in range(n_crystals)]
        configs.append(SchemeConfig(tuple(elements), coherence=gamma or 0.9))
    for config in configs:
        channel = extract_channel(config)
        checked = StokesChannel(*channels._affine_from_choi(temporal._choi(config)[0]))
        assert type(channel) is StokesChannel and channel.__dict__.keys() == checked.__dict__.keys()
        for got, expected in ((channel.m, checked.m), (channel.b, checked.b)):
            assert got.dtype == expected.dtype == float and got.shape == expected.shape
            assert got.tobytes() == expected.tobytes() and np.isfinite(got).all()
        assert channel.m.flags.c_contiguous and checked.m.flags.c_contiguous


def test_extract_channel_map_is_read_only():
    # extract_channel skips StokesChannel's copies, and its m and b were writeable, so a later write got past the
    # constructor's check
    channel = extract_channel(build_scheme("scheme1", 30.0, coherence=0.3))
    for array in (channel.m, channel.b):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = np.nan
        # nor through a writeable base the array is a view of
        assert array.base is None or not array.base.flags.writeable


def test_extract_chi_matrix_is_read_only():
    # extract_chi skips ChiMatrix's copy, and its chi was writeable, so a later write got past the constructor's check
    chi = extract_chi(build_scheme("scheme1", 30.0, coherence=0.3))
    with pytest.raises(ValueError, match="read-only"):
        chi.matrix[0, 0] = np.nan


def test_stokes_channel_refuses_a_bool_among_numbers():
    # numpy reads a True or False among numbers as 1 or 0 and keeps no trace of it: the constructor took these
    for m, b in (
        ([[True, 0, 0], [0, 1, 0], [0, 0, 1]], [0, 0, 0]),
        (np.eye(3), [0.0, np.False_, 0.0]),
        ([np.array([True, False, False]), [0, 1, 0], [0, 0, 1]], np.zeros(3)),
    ):
        with pytest.raises(ValueError, match="StokesChannel [mb] must be .*, not true or false"):
            StokesChannel(m, b)
