import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depolsim.channels import (
    SCHEME_NAMES,
    ISOTROPIC_POINT_DEG,
    StokesChannel,
    affine_from_outputs,
    build_scheme,
    extract_channel,
    extract_chi,
)
from depolsim.measurement import DEFAULT_SETTINGS, MeasurementRecord, projector, sample_counts
from depolsim.polarization import (
    JONES_STATES,
    PSD_ATOL,
    SIGMAS,
    density_from_jones,
    density_from_stokes,
    state_fidelity,
    stokes_from_density,
)
from depolsim.temporal import run_scheme
from depolsim.tomography import (
    CHI_BASIS,
    ChiMatrix,
    LinearEstimate,
    _sphere_mle,
    process_fidelity,
    qpt,
    qst_linear,
    qst_mle,
    trace_preservation_residual,
)
from _helpers import random_density
import _oracle
from _oracle import log_likelihood, negative_log_likelihood, rho_from_params

QPT_LABELS = ("h", "v", "p", "r")


def scheme_outputs(cfg):
    return {lbl: run_scheme(cfg, JONES_STATES[lbl]) for lbl in QPT_LABELS}


def qpt_from_scheme_outputs(outputs):
    """qpt() taking a {'h': rho, 'v': rho, 'p': rho, 'r': rho} mapping."""
    return qpt(*(outputs[lbl] for lbl in QPT_LABELS))


def record_for(rho, shots=100_000, seed=0, exact=False):
    return sample_counts(rho, shots, seed=seed, exact=exact)


def test_qst_linear_noiseless_round_trip():
    for rho in (density_from_jones(JONES_STATES["h"]), np.eye(2) / 2):
        est = qst_linear(record_for(rho, shots=10**6, exact=True))
        assert est.physical
        assert np.abs(est.rho - rho).max() < 2e-6


def test_qst_linear_flags_unphysical_noise():
    # near-pure state at low counts: some seed pushes the Stokes estimate
    # outside the sphere and the PSD flag must trip
    rho = density_from_stokes([0.0, 0.0, 0.999])
    flagged = None
    for seed in range(100):
        est = qst_linear(record_for(rho, shots=100, seed=seed))
        if not est.physical:
            flagged = est
            break
    assert flagged is not None
    assert np.linalg.eigvalsh(flagged.rho).min() < 0


def test_closed_form_physical_flag_matches_the_eigenvalue_test():
    # 10**5 random records of 0 to 40 counts per setting, with every pair holding counts; the flag must equal
    # the eigvalsh test wherever the smallest eigenvalue is not within 1e-13 of -PSD_ATOL
    rng = np.random.default_rng(31)
    counts = rng.integers(0, 41, size=(100_000, 6))
    counts[:, 0::2] += counts[:, 0::2] + counts[:, 1::2] == 0
    estimates = [qst_linear(MeasurementRecord(DEFAULT_SETTINGS, row, shots=100, seed=0)) for row in counts]
    smallest = np.linalg.eigvalsh(np.array([est.rho for est in estimates]))[:, 0]
    away = np.abs(smallest + PSD_ATOL) > 1e-13
    flags = np.array([est.physical for est in estimates])
    assert away.all() and np.array_equal(flags, smallest >= -PSD_ATOL)
    assert 10_000 < flags.sum() < 90_000  # both sides are well represented
    # unit Stokes vectors lie on the sphere, inside the tolerance
    for row in ([7, 0, 3, 3, 5, 5], [0, 4, 1, 1, 2, 2]):
        assert qst_linear(MeasurementRecord(DEFAULT_SETTINGS, row, shots=100, seed=0)).physical


def test_qst_linear_requires_counts_in_every_pair():
    rec = MeasurementRecord(("h", "v", "p", "m", "r", "l"), np.array([5, 5, 5, 5, 0, 0]), 10, 0)
    with pytest.raises(ValueError, match="undefined"):
        qst_linear(rec)
    with pytest.raises(ValueError, match="six"):
        MeasurementRecord(("h", "v"), np.array([5, 5]), 10, 0)


def test_qst_mle_noiseless_recovers_state():
    rho = density_from_jones(JONES_STATES["r"])
    est = qst_mle(record_for(rho, shots=10**6, exact=True))
    assert state_fidelity(est, rho) > 1 - 1e-9


def test_qst_mle_output_is_always_physical():
    rng = np.random.default_rng(0)
    for seed in range(10):
        rho = random_density(rng)
        est = qst_mle(record_for(rho, shots=200, seed=seed))
        assert np.linalg.eigvalsh(est).min() >= -1e-15
        assert abs(np.trace(est).real - 1.0) < 1e-12


def test_qst_mle_statistical_accuracy():
    rng = np.random.default_rng(1)
    rho = random_density(rng)
    est = qst_mle(record_for(rho, shots=10**5, seed=42))
    assert state_fidelity(est, rho) > 0.999


def test_qst_mle_beats_projected_linear_inversion():
    rng = np.random.default_rng(2)
    for seed in range(10):
        rho = random_density(rng)
        rec = record_for(rho, shots=500, seed=seed)
        projs = np.stack([projector(lbl) for lbl in rec.settings])
        counts = rec.counts.astype(float)

        lin = qst_linear(rec).rho
        vals, vecs = np.linalg.eigh(lin)
        vals = np.clip(vals, 0, None)
        lin_psd = (vecs * (vals / vals.sum())) @ vecs.conj().T

        def loglike(candidate):
            p = np.einsum("sij,ji->s", projs, candidate).real
            return float(counts @ np.log(np.clip(p, 1e-15, None)) - rec.shots * p.sum())

        assert loglike(qst_mle(rec)) >= loglike(lin_psd) - 1e-9


def test_mle_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    rho = random_density(rng)
    rec = record_for(rho, shots=2000, seed=5)
    projs = np.stack([projector(lbl) for lbl in rec.settings])
    counts = rec.counts.astype(float)
    shots = float(rec.shots)

    for _ in range(100):
        t = rng.normal(size=4)
        if abs(t[0]) < 0.1 or abs(t[1]) < 0.1:
            t[:2] += np.sign(t[:2] + 1e-12) * 0.2
        _, grad = negative_log_likelihood(t, counts, projs, shots)
        fd = np.empty(4)
        h = 1e-6
        for k in range(4):
            up, dn = t.copy(), t.copy()
            up[k] += h
            dn[k] -= h
            f_up, _ = negative_log_likelihood(up, counts, projs, shots)
            f_dn, _ = negative_log_likelihood(dn, counts, projs, shots)
            fd[k] = (f_up - f_dn) / (2 * h)
        denom = max(1.0, float(np.linalg.norm(grad)))
        assert np.linalg.norm(grad - fd) / denom < 1e-6


def psd_projected(rho):
    vals, vecs = np.linalg.eigh(rho)
    vals = np.clip(vals, 0, None)
    return (vecs * (vals / vals.sum())) @ vecs.conj().T


def assert_density(rho, tol=1e-12):
    assert np.abs(rho - rho.conj().T).max() <= tol
    assert abs(np.trace(rho) - 1.0) <= tol
    assert np.linalg.eigvalsh(rho).min() >= -tol


def test_qst_mle_mixed_record_beats_projected_linear():
    rec = record_for(np.eye(2) / 2, shots=1000, seed=0)
    est = qst_mle(rec)
    assert_density(est)
    ll_lin = log_likelihood(psd_projected(qst_linear(rec).rho), rec)
    assert log_likelihood(est, rec) >= ll_lin - 1e-12 * abs(ll_lin)


# qst_mle outputs of the L-BFGS-B optimizer (Newton-polished, gradient-norm
# tolerance 1e-8) that the closed form replaced, as Stokes vectors:
# (settings, counts, shots, S).  Interior and boundary records and zero-count
# axes.  The rows with repeated labels must be rejected: a record holds each
# of the six labels exactly once.
REFERENCE_MLE = [
    ("hvpmrl", [1615, 8166, 8108, 1995, 2927, 7165], 10000, (-0.6697679173908597, 0.6050678016430762, -0.41993658343242174)),
    ("hvpmrl", [47591, 52290, 26411, 73800, 6191, 93717], 100000, (-0.04704598472181898, -0.4728921974633523, -0.8760659807022461)),
    ("hvpmrl", [65190, 34814, 58623, 41242, 3691, 96322], 100000, (0.30374785008599664, 0.17404496069694086, -0.9261895953526041)),
    ("hvpmrl", [21, 968, 464, 559, 660, 323], 1000, (-0.9465823172375532, -0.08390324299023429, 0.31135536370665934)),
    ("hvpmrl", [1031, 19, 638, 332, 528, 491], 1000, (0.956526400422133, 0.28974453755100243, 0.03324677811206846)),
    ("hvpmrl", [98922, 1201, 60683, 38985, 48451, 51629], 100000, (0.975755141183595, 0.21657430626862575, -0.03158281681620702)),
    ("hvpmrl", [765, 262, 901, 57, 569, 414], 1000, (0.47097900104486334, 0.8693267757275036, 0.14983236492161883)),
    ("hvpmrl", [4, 5, 9, 0, 7, 5], 10, (-0.07383219722745016, 0.989878791936514, 0.1211972933974797)),
    ("hvpmrl", [0, 5, 7, 2, 2, 8], 10, (-0.7789051659344869, 0.41736338358100833, -0.46809672988217005)),
    ("hvpmrl", [4, 4, 3, 4, 0, 14], 10, (0.0, -0.0714743299239615, -0.997442439523164)),
    ("hvpmrl", [0, 1000, 480, 520, 510, 490], 1000, (-0.9995554752004738, -0.026667061992056755, 0.013331159044383523)),
    ("hvpmrl", [0, 500, 0, 500, 250, 250], 500, (-0.7071067811865476, -0.7071067811865476, 0.0)),
    ("hvpmrl", [7, 0, 3, 0, 0, 5], 10, (0.7253166627644516, 0.3867438647856248, -0.5695128811246655)),
    ("hvpmrlhv", [400, 600, 500, 500, 500, 500, 420, 580], 1000, (-0.1800000000000001, 0.0, 0.0)),
    ("hvpmrlhv", [64, 26, 19, 72, 83, 22, 77, 18], 100, (0.5243243243243244, -0.5824175824175825, 0.580952380952381)),
    ("hvpmrlh", [400, 600, 500, 500, 500, 500, 420], 1000, (-0.1851168181786645, 0.0, 0.0)),
    ("hvpmrlhv", [14, 79, 29, 72, 20, 91, 23, 92], 100, (-0.6432068617756939, -0.4237984430925956, -0.6377145228054286)),
    ("hvpmrlhv", [466, 544, 145, 847, 126, 923, 455, 527], 1000, (-0.07227991675787115, -0.6767099202599108, -0.7326931809804843)),
    ("hvpmrlhv", [1, 8, 5, 6, 8, 0, 0, 11], 10, (-0.7793142870511559, -0.0530069116483598, 0.6243873071383271)),
    ("hvpmrlh", [50, 91, 50, 59, 83, 37, 36], 100, (-0.2874012734514468, -0.08256880733948314, 0.3833333333333179)),
    ("hvpmrll", [12520, 87711, 64590, 35806, 70021, 29874, 29865], 100000, (-0.7501770909199748, 0.28670464958763303, 0.4022252145441308)),
    ("hvpmrlh", [0, 600, 500, 500, 500, 500, 0], 1000, (-1.0, 0.0, 0.0)),
    ("hvpmrlvp", [72072, 27755, 5813, 94411, 42370, 57955, 27825, 5905], 100000, (0.4433941552316098, -0.882808548290658, -0.15508284937860817)),
    ("hvpmrlpvp", [9692, 309, 5912, 4086, 6391, 3473, 5915, 307, 5726], 10000, (0.9383999999999998, 0.174251921066261, 0.295823195458232)),
    ("hvpmrlmr", [8, 5, 11, 0, 8, 11, 0, 3], 10, (0.12716765384690565, 0.9804320816870379, -0.15027082555803956)),
    ("hvpmrlp", [7, 4, 8, 3, 0, 12, 7], 10, (0.17198958574588558, 0.31204596013231417, -0.9343697882316513)),
    ("hvpmrlrrm", [990, 10, 3, 0, 1000, 0, 997, 1001, 2], 1000, (0.5568577470125633, 0.4525209476314486, 0.6965157870047367)),
    ("hvpmrlpph", [1, 82, 38, 54, 54, 70, 34, 45, 0], 100, (-0.9813981083988152, -0.1646178779138124, -0.09878616857830053)),
]


def test_qst_mle_matches_the_reference_optimizer():
    assert len(REFERENCE_MLE) >= 20
    for labels, counts, shots, s_ref in REFERENCE_MLE:
        if len(labels) != 6:
            with pytest.raises(ValueError, match="once each"):
                MeasurementRecord(tuple(labels), np.array(counts), shots, 0)
            continue
        rec = MeasurementRecord(tuple(labels), np.array(counts), shots, 0)
        est = qst_mle(rec)
        assert_density(est)
        assert np.abs(stokes_from_density(est) - s_ref).max() <= 1e-8, (labels, counts)


def test_records_with_duplicated_labels_are_rejected():
    with pytest.raises(ValueError, match="once each"):
        MeasurementRecord(tuple("hvpmrlhv"), np.array([400, 600, 500, 500, 500, 500, 420, 580]), 1000, 0)
    with pytest.raises(ValueError, match="once each"):
        MeasurementRecord(tuple("hvpmrlh"), np.array([400, 600, 500, 500, 500, 500, 420]), 1000, 0)


LABELS = ("h", "v", "p", "m", "r", "l")


@st.composite
def records(draw):
    labels = tuple(draw(st.permutations(LABELS)))
    size = draw(st.sampled_from([20, 1000, 10**6]))
    counts = draw(st.lists(st.integers(0, size), min_size=len(labels), max_size=len(labels)))
    for plus, minus in (("h", "v"), ("p", "m"), ("r", "l")):
        if sum(n for lbl, n in zip(labels, counts) if lbl in (plus, minus)) == 0:
            counts[labels.index(plus)] = 1
    return MeasurementRecord(labels, np.array(counts), draw(st.integers(1, 2 * size)), 0)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(records(), st.integers(0, 2**32 - 1))
def test_qst_mle_maximizes_the_likelihood_over_the_ball(rec, seed):
    est = qst_mle(rec)
    assert_density(est)
    s_hat = stokes_from_density(est)
    best = log_likelihood(est, rec)
    rng = np.random.default_rng(seed)
    # uniform points in the ball, points on the sphere, and small steps around the estimate
    directions = rng.normal(size=(96, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    candidates = np.concatenate([
        directions[:32] * rng.uniform(size=(32, 1)) ** (1 / 3),
        directions[32:64],
        s_hat + directions[64:80] * 1e-3,
        s_hat + directions[80:] * 1e-6,
    ])
    candidates /= np.maximum(1.0, np.linalg.norm(candidates, axis=1, keepdims=True))
    candidate_rhos = [rho_from_params(t) for t in rng.normal(size=(8, 4))]
    candidate_rhos += [(np.eye(2) + sum(x * sig for x, sig in zip(s, SIGMAS))) / 2 for s in candidates]
    for rho in candidate_rhos:
        assert best >= log_likelihood(rho, rec) - 1e-9 * abs(best)
    lin = qst_linear(rec).rho
    if np.linalg.eigvalsh(lin).min() >= 0.0:
        assert np.abs(est - lin).max() <= 1e-15


def boundary_axes(rng):
    """Per-axis counts (a, b) of 110 records whose linear estimate lies outside the ball, in three groups.

    60 sampled from pure states (a third on a Stokes axis, where a zero
    count is likely) at 10**2 to 10**6 shots; 30 near a pole at 10**3 to
    10**9 counts per axis, with 0 to 3 counts on its far side, where 1 - s
    of that axis is far below the float resolution of s**2 - 1; and 20
    pure states on a Stokes axis with no count on its far side, whose
    multiplier lies just past that axis' corner.  Three records from the
    last group are written out.
    """
    def outside(axes):
        return sum(((a - b) / (a + b)) ** 2 for a, b in axes) > 1.0

    def pair(n, s):
        a = int(rng.binomial(n, (1.0 + s) / 2.0))
        return a, n - a

    sampled, near_pole, past_corner = [], [], [[(100170, 0), (50113, 50136), (49992, 49889)]]
    past_corner += [[(10078, 0), (4996, 5025), (5027, 5074)], [(1076, 0), (494, 488), (506, 500)]]
    while len(sampled) < 60:
        s = rng.normal(size=3)
        if rng.random() < 1 / 3:
            s = np.eye(3)[rng.integers(3)] * rng.choice([-1.0, 1.0])
        shots = int(10 ** rng.integers(2, 7))
        axes = [pair(shots, si) for si in s / np.linalg.norm(s)]
        if all(a + b for a, b in axes) and outside(axes):
            sampled.append(axes)
    while len(near_pole) < 30:
        n = int(10 ** rng.uniform(3, 9))
        far = int(rng.integers(4))
        axes = [pair(n, rng.normal() * 3 / np.sqrt(n)) for _ in range(2)]
        axes.insert(int(rng.integers(3)), (n - far, far) if rng.random() < 0.5 else (far, n - far))
        if outside(axes):
            near_pole.append(axes)
    while len(past_corner) < 22:
        shots = int(10 ** rng.uniform(3, 6))
        axes = [pair(shots, 0.0), pair(shots, 0.0)]
        axes.insert(int(rng.integers(3)), (shots, 0) if rng.random() < 0.5 else (0, shots))
        if outside(axes):
            past_corner.append(axes)
    return sampled, near_pole, past_corner


def record_of(axes):
    counts = np.array([n for pair in axes for n in pair])
    return MeasurementRecord(LABELS, counts, max(a + b for a, b in axes), 0)


@pytest.fixture(scope="module")
def boundary_groups():
    return boundary_axes(np.random.default_rng(47))


def test_boundary_mle_matches_a_40_digit_oracle(boundary_groups):
    # within 2 units in the last place of 1, near a pole too, against nested bisection in decimals
    records = [axes for group in boundary_groups for axes in group]
    assert len(records) >= 100
    for axes in records:
        s = stokes_from_density(qst_mle(record_of(axes)))
        assert np.abs(s - _oracle.sphere_mle(axes)).max() <= 4.5e-16, axes


def test_boundary_mle_takes_a_handful_of_newton_steps(boundary_groups):
    # the multiplier search takes Newton steps only, and stops on its own criteria: no bisection follows a
    # Newton step that rounds to zero, or one within the noise of the root ("bracket" ends a search whose
    # Newton steps closed the bracket onto two adjacent floats)
    for axes in (axes for group in boundary_groups for axes in group):
        s, mu, steps = _sphere_mle(axes)
        taken, end = steps[:-1], steps[-1]
        assert len(taken) <= 8 and set(taken) == {"newton"}, (axes, steps)
        assert end in ("converged", "zero step", "root", "bracket"), (axes, steps)
    # a zero-count axis leaves its end point at the corner mu = (a + b)/4: these roots lie just past it
    for axes in boundary_groups[2]:
        corner = max((a + b) / 4.0 for a, b in axes if a * b == 0)
        s, mu, steps = _sphere_mle(axes)
        assert corner < mu < corner * (1 + 1e-3), (axes, mu)
    s, mu, steps = _sphere_mle([(100170, 0), (50113, 50136), (49992, 49889)])
    assert abs(mu - 25042.509) < 1e-3


def test_rho_from_params_is_normalized():
    rng = np.random.default_rng(4)
    for _ in range(50):
        rho = rho_from_params(rng.normal(size=4))
        assert abs(np.trace(rho).real - 1.0) < 1e-12
        assert np.linalg.eigvalsh(rho).min() >= -1e-15


def test_qpt_identity_channel():
    outs = {lbl: density_from_jones(JONES_STATES[lbl]) for lbl in QPT_LABELS}
    chi = qpt_from_scheme_outputs(outs)
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    assert np.abs(chi.matrix - expected).max() < 1e-12
    assert chi.clipped_mass < 1e-12
    # Jones vectors in place of the output density matrices
    with pytest.raises(ValueError, match="four 2x2"):
        qpt(*(JONES_STATES[lbl] for lbl in QPT_LABELS))


def test_qpt_single_crystal_dephasing():
    # derived: dephasing along S1 is rho -> (rho + Z rho Z)/2, chi = diag(1/2,0,0,1/2)
    chi = qpt_from_scheme_outputs(scheme_outputs(build_scheme("single_crystal", 0.0)))
    assert np.abs(chi.matrix - np.diag([0.5, 0.0, 0.0, 0.5])).max() < 1e-12


def test_qpt_lyot_is_uniform_pauli_mixture():
    chi = qpt_from_scheme_outputs(scheme_outputs(build_scheme("lyot")))
    assert np.abs(chi.matrix - np.eye(4) / 4).max() < 1e-12


def test_qpt_warns_on_non_cp_inputs():
    # transpose map: valid-looking outputs, but not completely positive
    outs = [
        density_from_jones(JONES_STATES["h"]),
        density_from_jones(JONES_STATES["v"]),
        density_from_jones(JONES_STATES["p"]),
        density_from_jones(JONES_STATES["l"]),
    ]
    with pytest.warns(UserWarning, match="clipped"):
        chi = qpt(*outs)
    assert chi.clipped_mass > 0.1
    assert np.linalg.eigvalsh(chi.matrix).min() >= -1e-15
    assert abs(np.trace(chi.matrix).real - 1.0) < 1e-12


def test_trace_preservation_residual_noiseless():
    rng = np.random.default_rng(5)
    for kind in SCHEME_NAMES:
        theta = None if kind == "lyot" else float(rng.uniform(0, 180))
        chi = qpt_from_scheme_outputs(scheme_outputs(build_scheme(kind, theta)))
        assert trace_preservation_residual(chi) < 1e-8


def test_apply_chi_matches_scheme_action():
    rng = np.random.default_rng(6)
    for kind in ("scheme1", "scheme2", "scheme3"):
        theta = float(rng.uniform(0, 180))
        cfg = build_scheme(kind, theta)
        chi = qpt_from_scheme_outputs(scheme_outputs(cfg))
        for lbl in ("m", "l"):
            expected = run_scheme(cfg, JONES_STATES[lbl])
            got = _oracle.apply_chi(chi.matrix, density_from_jones(JONES_STATES[lbl]))
            assert np.abs(got - expected).max() < 1e-9


def test_chi_maps_match_the_pauli_pair_sums():
    rng = np.random.default_rng(16)
    for _ in range(200):
        chi = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        for mat in (chi, chi @ chi.conj().T / np.trace(chi @ chi.conj().T).real):
            assert abs(trace_preservation_residual(mat) - _oracle.trace_preservation_residual(mat)) < 1e-14
            assert trace_preservation_residual(ChiMatrix(mat)) == trace_preservation_residual(mat)


def test_process_fidelity_examples():
    chi_id = ChiMatrix(np.diag([1.0, 0.0, 0.0, 0.0]))
    chi_lyot = ChiMatrix(np.eye(4) / 4)
    assert abs(process_fidelity(chi_id, chi_id) - 1.0) < 1e-12
    # derived on commuting diagonals: F = (sqrt(1 * 1/4))^2 = 1/4
    assert abs(process_fidelity(chi_id, chi_lyot) - 0.25) < 1e-12
    assert abs(process_fidelity(chi_lyot, chi_id) - 0.25) < 1e-12


@pytest.mark.filterwarnings("error")
def test_process_fidelity_rejects_a_chi_without_positive_finite_trace():
    chi_id = ChiMatrix(np.diag([1.0, 0.0, 0.0, 0.0]))
    for trace in (0.0, -1.0, np.nan, np.inf):
        bad = np.diag([trace, 0.0, 0.0, 0.0])
        pairs = [(bad, chi_id), (chi_id, bad)]
        if np.isfinite(trace):
            pairs.append((ChiMatrix(bad), chi_id))
        else:  # a ChiMatrix refuses the entry itself
            with pytest.raises(ValueError, match="chi matrix must be finite"):
                ChiMatrix(bad)
        for pair in pairs:
            with pytest.raises(ValueError, match="positive finite trace"):
                process_fidelity(*pair)


@pytest.mark.filterwarnings("error")
def test_process_fidelity_refuses_a_non_finite_chi_entry():
    # a NaN above the diagonal, which LAPACK's lower-triangle eigh never reads, used to give F = 1.0,
    # and one below it LinAlgError
    chi_lyot = np.eye(4, dtype=complex) / 4
    for position in ((0, 1), (1, 0), (2, 3), (3, 2)):
        for bad in (np.nan, np.inf, complex(0.0, np.nan), complex(0.0, -np.inf)):
            chi = chi_lyot.copy()
            chi[position] = bad
            for pair in ((chi, chi_lyot), (chi_lyot, chi)):
                with pytest.raises(ValueError, match="must be finite"):
                    process_fidelity(*pair)
            with pytest.raises(ValueError, match="chi matrix must be finite"):  # the entry itself, at construction
                ChiMatrix(chi)


@pytest.mark.filterwarnings("error")
def test_qpt_refuses_non_finite_outputs():
    outputs = [density_from_jones(JONES_STATES[label]) for label in QPT_LABELS]
    for k in range(4):
        for position in ((0, 0), (0, 1), (1, 0), (1, 1)):
            for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.nan)):
                changed = [rho.copy() for rho in outputs]
                changed[k][position] = bad
                with pytest.raises(ValueError, match="must be finite"):
                    qpt(*changed)
    assert qpt(*outputs).clipped_mass < 1e-12


@pytest.mark.filterwarnings("error")
def test_qpt_refuses_outputs_without_positive_finite_trace():
    # four zero outputs used to give a NaN chi, and four diag(f, f) at the float maximum an all-zero chi, each
    # with a RuntimeWarning; outputs of negative trace leave nothing once the negative mass is clipped
    f = np.finfo(float).max
    for output in (np.zeros((2, 2)), np.diag([f, f]), -np.eye(2)):
        with pytest.raises(ValueError, match="positive finite trace"):
            qpt(output, output, output, output)


def oracle_channel_from_chi(chi):
    """Affine Stokes map of the channel a chi matrix encodes: the reference chi action on the four probes."""
    probes = (density_from_jones(JONES_STATES[lbl]) for lbl in QPT_LABELS)
    return affine_from_outputs(*(_oracle.apply_chi(chi.matrix, rho) for rho in probes))


def test_channel_from_chi_round_trip():
    rng = np.random.default_rng(7)
    for kind in SCHEME_NAMES:
        theta = None if kind == "lyot" else float(rng.uniform(0, 180))
        cfg = build_scheme(kind, theta)
        direct = extract_channel(cfg)
        via_chi = oracle_channel_from_chi(qpt_from_scheme_outputs(scheme_outputs(cfg)))
        assert np.abs(via_chi.m - direct.m).max() < 1e-9
        assert np.abs(via_chi.b - direct.b).max() < 1e-9


def test_channel_from_chi_isotropic_point():
    chi = qpt_from_scheme_outputs(scheme_outputs(build_scheme("scheme1", ISOTROPIC_POINT_DEG)))
    singular_values = np.linalg.svd(oracle_channel_from_chi(chi).m, compute_uv=False)
    assert np.abs(singular_values - 1 / 3).max() < 1e-4


def test_chi_basis_sanity():
    # I, X, Y, Z with the phase-flip last: X has +1 eigenstate |p>,
    # Y has +1 eigenstate |r>, Z = |h><h| - |v><v|
    x, y, z = CHI_BASIS[1], CHI_BASIS[2], CHI_BASIS[3]
    p = JONES_STATES["p"]
    r = JONES_STATES["r"]
    assert np.abs(x @ p - p).max() < 1e-12
    assert np.abs(y @ r - r).max() < 1e-12
    assert np.abs(z - np.diag([1, -1])).max() < 1e-15


def test_chi_json_round_trip():
    chi = qpt_from_scheme_outputs(scheme_outputs(build_scheme("scheme2", 30.0)))
    back = ChiMatrix.from_json(chi.to_json())
    assert np.abs(back.matrix - chi.matrix).max() < 1e-15
    assert back.clipped_mass == chi.clipped_mass
    with pytest.raises(ValueError, match="basis"):
        ChiMatrix.from_json({"basis": ["I", "Z", "X", "Y"], "re": np.eye(4).tolist(), "im": np.zeros((4, 4)).tolist()})


def test_chi_json_errors_are_value_errors():
    re, im = (np.eye(4) / 4.0).tolist(), np.zeros((4, 4)).tolist()
    documents = [
        {},
        [],
        None,
        "[]",
        "null",
        json.dumps({"re": re, "im": im}).replace("0.25", "1e999", 1),
        {"re": re[:1], "im": im},
        {"re": "abc", "im": im},
        {"re": re, "im": "abc"},
        {"re": re},
        {"re": re, "im": im, "clipped_mass": "1e999"},
        {"re": re, "im": im, "clipped_mass": float("inf")},
        {"re": re, "im": im, "clipped_mass": None},
        {"re": re, "im": im, "basis": 3},
        {"re": [[10**400] * 4] * 4, "im": im},
        "[" * 100_000,
        {"re": [["0.25", 0, 0, 0]] + re[1:], "im": im},
        {"re": re, "im": [["0", 0, 0, 0]] + im[1:]},
        {"re": re, "im": im, "clipped_mass": "0.5"},
        {"re": re, "im": im, "basis": "IXYZ"},
    ]
    for document in documents:
        with pytest.raises(ValueError):
            ChiMatrix.from_json(document)
    assert ChiMatrix.from_json({"re": re, "im": im}).clipped_mass == 0.0


def test_chi_json_refuses_true_false_and_a_negative_or_non_finite_clipped_mass():
    re, im = (np.eye(4) / 4.0).tolist(), np.zeros((4, 4)).tolist()
    flagged = [[True if (i, k) == (0, 0) else x for k, x in enumerate(row)] for i, row in enumerate(im)]
    for document in (
        {"re": [[True] * 4] * 4, "im": im},
        {"re": re, "im": flagged},
    ):
        for form in (document, json.dumps(document)):
            with pytest.raises(ValueError, match="not true or false"):
                ChiMatrix.from_json(form)
    for clipped in (-5, -5.0, -1e-300, "-5", True, False):
        with pytest.raises(ValueError, match="clipped_mass must be a finite number >= 0"):
            ChiMatrix.from_json({"re": re, "im": im, "clipped_mass": clipped})
    for clipped in (-5.0, float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="clipped_mass must be a finite number >= 0"):
            ChiMatrix(np.eye(4) / 4.0, clipped)
    for clipped in (0, 0.0, -0.0, 0.25, 1e300):
        assert ChiMatrix.from_json({"re": re, "im": im, "clipped_mass": clipped}).clipped_mass == clipped


def test_noiseless_pipeline_reaches_theory_fidelity():
    rng = np.random.default_rng(8)
    for kind in ("scheme1", "isotropic_triple"):
        theta = float(rng.uniform(0, 90))
        cfg = build_scheme(kind, theta)
        outs = scheme_outputs(cfg)
        chi_theory = qpt_from_scheme_outputs(outs)
        recon = {
            lbl: qst_mle(record_for(outs[lbl], shots=10**11, seed=i, exact=True))
            for i, lbl in enumerate(QPT_LABELS)
        }
        chi_hat = qpt_from_scheme_outputs(recon)
        assert process_fidelity(chi_hat, chi_theory) > 1 - 1e-9


def test_tomography_pipeline_keeps_the_bits_of_numpys_wrappers():
    # sample_counts, qpt and the fidelity call LAPACK and einsum without numpy's Python wrappers; over fixed
    # (scheme, theta, coherence, shots, seed) cases, exact and sampled, every estimate, chi-hat, clipped mass and
    # fidelity has the bits of the wrapped pipeline on the same host
    cases = [
        ("scheme1", 0.0, 0.0, 100_000, 3),
        ("scheme1", 30.0, 0.0, 10_000, 11),
        ("scheme2", 10.0, 0.0, 1_000, 5),
        ("scheme3", 60.0, 0.3, 100_000, 17),
        ("isotropic_triple", ISOTROPIC_POINT_DEG, 0.0, 1_000, 23),
        ("isotropic_triple", 20.0, 0.3, 10_000, 29),
        ("lyot", None, 0.0, 1_000, 31),
        ("single_crystal", 45.0, 0.0, 100, 37),
    ]
    bits = lambda x: np.asarray(x, dtype=float if np.isrealobj(x) else complex).view(np.uint64).tolist()
    clipped_masses = []
    for scheme, theta, coherence, shots, seed in cases:
        config = build_scheme(scheme, theta, coherence)
        outputs = [run_scheme(config, JONES_STATES[lbl]) for lbl in QPT_LABELS]
        chi_theory = qpt(*outputs)
        expected_theory, expected_theory_clipped = _oracle.wrapped_qpt(*outputs)
        assert bits(chi_theory.matrix) == bits(expected_theory), scheme
        assert bits(chi_theory.clipped_mass) == bits(expected_theory_clipped)
        for exact in (True, False):
            records = [sample_counts(rho, shots, seed + i, exact=exact) for i, rho in enumerate(outputs)]
            expected_records = [_oracle.wrapped_sample_counts(rho, shots, seed + i, exact) for i, rho in enumerate(outputs)]
            for record, expected in zip(records, expected_records):
                assert record.counts.dtype == expected.counts.dtype == np.int64
                assert record.counts.tolist() == expected.counts.tolist(), (scheme, exact)
            estimates = [qst_mle(record) for record in records]
            assert bits(estimates) == bits([qst_mle(record) for record in expected_records])
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # a large clipped mass warns; it is compared below
                chi_hat = qpt(*estimates)
            expected_hat, expected_clipped = _oracle.wrapped_qpt(*estimates)
            assert bits(chi_hat.matrix) == bits(expected_hat), (scheme, exact)
            assert bits(chi_hat.clipped_mass) == bits(expected_clipped), (scheme, exact)
            clipped_masses.append(chi_hat.clipped_mass)
            expected_fidelity = _oracle.wrapped_state_fidelity(
                expected_hat / _oracle.trace(expected_hat), expected_theory / _oracle.trace(expected_theory))
            assert bits(process_fidelity(chi_hat, chi_theory)) == bits(expected_fidelity), (scheme, exact)
    # both branches of the projection ran: nothing clipped, and negative eigenvalues clipped
    assert min(clipped_masses) == 0.0 < max(clipped_masses)


def test_traces_add_the_real_diagonal_left_to_right():
    # qpt, process_fidelity and the fidelity take Re tr in Python floats, left to right, alike on every Python: `sum`
    # compensates from Python 3.12 (1.0 on the first diagonal), and `math.fsum` raises OverflowError on the second
    from depolsim.polarization import _trace

    f = np.finfo(float).max
    for diagonal, expected in (
        ([1e17, 1.0, -1e17, 0.0], 0.0),  # 1e17 + 1.0 rounds to 1e17
        ([f, f, -f, -f], np.inf),
        ([0.25, -0.0, 0.5 + 7.0j, 0.25], 1.0),  # only real parts count
        ([0.5], 0.5),
        ([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0], 36.0),
    ):
        matrix = np.full((len(diagonal),) * 2, 3.0 - 1.0j)
        matrix[np.diag_indices(len(diagonal))] = diagonal
        trace = _trace(matrix)
        assert type(trace) is float and trace == expected, diagonal
    assert np.isnan(_trace(np.diag([0.25, np.nan, 0.5]).astype(complex)))


def test_qpt_returns_a_checked_chi_matrix():
    # qpt and the theory chi skip ChiMatrix's checks; what they return must be what the checks would store
    config = build_scheme("scheme1", 30.0)
    outputs = [run_scheme(config, JONES_STATES[lbl]) for lbl in QPT_LABELS]
    estimates = [qst_mle(record_for(rho, 1_000, seed)) for seed, rho in enumerate(outputs)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        chis = [qpt(*outputs), qpt(*estimates), extract_chi(config)]
    for chi in chis:
        checked = ChiMatrix(chi.matrix, chi.clipped_mass)
        assert chi.matrix.dtype == complex and chi.matrix.shape == (4, 4)
        assert type(chi.clipped_mass) is float and chi.clipped_mass == checked.clipped_mass
        assert ChiMatrix.from_json(chi.to_json()).to_json() == chi.to_json()


def test_qpt_returns_an_exactly_hermitian_chi():
    # the rebuild from eigenvectors left diagonal imaginary parts such as -3.4e-18 (scheme1, theta 30, 1000 shots,
    # seed 5) and off-diagonal pairs that were not exact conjugates; qpt Hermitian-averages it
    for scheme, theta in (("scheme1", 30.0), ("scheme2", 10.0), ("isotropic_triple", 20.0), ("lyot", None)):
        outputs = [run_scheme(build_scheme(scheme, theta), JONES_STATES[lbl]) for lbl in QPT_LABELS]
        for exact in (True, False):
            estimates = [qst_mle(record_for(rho, 1_000, 5 + i, exact)) for i, rho in enumerate(outputs)]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                chis = (qpt(*outputs), qpt(*estimates))
            for chi in chis:
                assert np.array_equal(chi.matrix, chi.matrix.conj().T), (scheme, exact)
                assert chi.matrix.diagonal().imag.view(np.uint64).tolist() == [0] * 4, (scheme, exact)  # +0.0


def test_linear_estimate_checks_its_fields():
    # LinearEstimate("abc", 5) used to store a string as rho and 5 as physical
    for rho, physical in (("abc", 5), ("abc", True), (np.eye(2) / 2, 5), (np.eye(2) / 2, np.True_),
                          (np.eye(2) / 2, "yes"), (np.full((2, 2), np.nan), True), (np.eye(3) / 3, False)):
        with pytest.raises(ValueError, match="LinearEstimate"):
            LinearEstimate(rho, physical)
    estimate = LinearEstimate(np.eye(2, dtype=int), False)
    assert estimate.rho.dtype == complex and estimate.physical is False
    record = record_for(density_from_stokes([0.6, 0.0, 0.0]), 1_000, 3)
    assert qst_linear(record).physical is True


def test_chi_matrix_refuses_a_clipped_mass_that_is_not_a_finite_number():
    # a numeric string used to raise TypeError, and True was kept as the clipped mass
    for clipped in ("0.5", True, False, np.True_, None, [0.1], -1.0, -1e-300, np.nan, np.inf, complex(0.1, 0.0)):
        with pytest.raises(ValueError, match="clipped_mass must be a finite number >= 0"):
            ChiMatrix(np.eye(4) / 4, clipped)
    for clipped in (0, 0.5, np.float64(0.25), np.float32(0.5), np.int64(0)):
        chi = ChiMatrix(np.eye(4) / 4, clipped)
        assert type(chi.clipped_mass) is float and chi.clipped_mass == float(clipped)


def test_process_fidelity_keeps_taking_square_matrices_of_any_size():
    # every square size takes the same Python-float trace; on these diagonals it is numpy's `trace().real`
    pure = np.array([[0.8, 0.4], [0.4, 0.2]], dtype=complex)
    for a, b in ((np.eye(2), pure), (3.0 * pure, np.eye(2) / 2), (np.eye(8), np.diag(np.arange(1.0, 9.0)))):
        a, b = a.astype(complex), b.astype(complex)
        expected = state_fidelity(a / a.trace().real, b / b.trace().real)
        assert process_fidelity(a, b) == expected
    assert process_fidelity(np.eye(2), np.eye(2)) == pytest.approx(1.0, abs=1e-12)


def test_chi_matrix_refuses_a_matrix_its_reader_refuses():
    # the constructor keeps the JSON reader's rule: a 4x4 matrix of finite entries, not a flat 16-vector
    for matrix in (np.full((4, 4), np.nan), np.arange(16), np.eye(2), np.eye(4)[None], np.eye(4, dtype=bool)):
        with pytest.raises(ValueError, match="chi matrix must be"):
            ChiMatrix(matrix)
    assert ChiMatrix(np.eye(4, dtype=int)).matrix.dtype == complex
    # the records hold read-only copies: complex arrays were held as given, so a later write got past the check
    matrix, rho = np.eye(4, dtype=complex) / 4, np.eye(2, dtype=complex) / 2
    chi, estimate = ChiMatrix(matrix), LinearEstimate(rho, True)
    matrix[0, 0] = rho[0, 0] = np.nan
    assert np.array_equal(chi.matrix, np.eye(4) / 4) and np.array_equal(estimate.rho, np.eye(2) / 2)
    assert not chi.matrix.flags.writeable and not estimate.rho.flags.writeable


def test_array_holding_records_compare_by_identity():
    # with the dataclass == on an ndarray field, a == b raised ValueError and hash() TypeError.  A SchemeConfig
    # compares by identity too, as the engine's Choi memo keys on the object: two lyot configs share their
    # elements, which the dataclass == read as equal
    for make in (
        lambda: ChiMatrix(np.eye(4) / 4),
        lambda: StokesChannel(np.eye(3), np.zeros(3)),
        lambda: LinearEstimate(np.eye(2) / 2, True),
        lambda: build_scheme("lyot"),
    ):
        a, b = make(), make()
        assert a == a and a != b and hash(a) == hash(a) and len({a, b}) == 2


def test_chi_matrix_and_linear_estimate_refuse_a_bool_among_numbers():
    # numpy reads a True or False among numbers as 1 or 0 and keeps no trace of it: the constructors took these
    flagged = [[True, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    for matrix in (flagged, [[0.25, np.False_, 0, 0]] + flagged[1:], [np.zeros(4, dtype=bool)] + flagged[1:]):
        with pytest.raises(ValueError, match="chi matrix must be .*, not true or false"):
            ChiMatrix(matrix)
    for rho in ([[True, 0], [0, 0]], [[0.5, 0j], [np.False_, 0.5]]):
        with pytest.raises(ValueError, match="LinearEstimate rho must be .*, not true or false"):
            LinearEstimate(rho, True)


def test_chi_matrix_refuses_a_clipped_mass_past_the_float_range():
    # float(10**400) raised OverflowError
    for clipped in (10**400, -(10**400)):
        with pytest.raises(ValueError, match="clipped_mass must be a finite number >= 0"):
            ChiMatrix(np.eye(4) / 4, clipped)
        with pytest.raises(ValueError, match="clipped_mass must be a finite number >= 0"):
            ChiMatrix.from_json({"re": (np.eye(4) / 4).tolist(), "im": np.zeros((4, 4)).tolist(), "clipped_mass": clipped})
    assert ChiMatrix(np.eye(4) / 4, 2**70).clipped_mass == float(2**70)


def test_a_decoded_chi_document_may_hold_arrays():
    # re and im are read by the constructor's rule, so arrays read as the lists they hold
    chi = ChiMatrix.from_json({"re": np.eye(4) / 4, "im": np.zeros((4, 4), dtype=int)})
    listed = ChiMatrix.from_json({"re": (np.eye(4) / 4).tolist(), "im": np.zeros((4, 4)).tolist()})
    assert chi.matrix.tobytes() == listed.matrix.tobytes()
    with pytest.raises(ValueError, match="chi matrix JSON im must be .*, not true or false"):
        ChiMatrix.from_json({"re": np.eye(4) / 4, "im": np.zeros((4, 4), dtype=bool)})
