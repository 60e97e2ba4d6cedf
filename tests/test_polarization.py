import ast
import itertools
import re
import warnings
from pathlib import Path

import numpy as np
import numpy._core.einsumfunc
import numpy.linalg._umath_linalg
import pytest

import depolsim.polarization
from depolsim.polarization import (
    JONES_H,
    JONES_L,
    JONES_M,
    JONES_P,
    JONES_R,
    JONES_V,
    SIGMA1,
    SIGMA2,
    SIGMA3,
    density_from_jones,
    density_from_stokes,
    dop,
    dop_from_determinant,
    jones_from_stokes,
    state_fidelity,
    stokes_from_density,
)
from depolsim.polarization import _stokes_to_density
from _helpers import random_density, random_pure_jones, random_unitary, signed_zero_matrices
import _oracle

I2 = np.eye(2)


def test_sigma_operators_match_projector_definitions():
    # the exact matrices must agree with |+><+| - |-><-| for each pair
    for sigma, plus, minus in (
        (SIGMA1, JONES_H, JONES_V),
        (SIGMA2, JONES_P, JONES_M),
        (SIGMA3, JONES_R, JONES_L),
    ):
        built = np.outer(plus, plus.conj()) - np.outer(minus, minus.conj())
        assert np.abs(sigma - built).max() < 1e-15


def test_density_from_jones_basis_states():
    assert np.abs(density_from_jones(JONES_H) - np.array([[1, 0], [0, 0]])).max() < 1e-15
    assert np.abs(density_from_jones(JONES_P) - np.array([[0.5, 0.5], [0.5, 0.5]])).max() < 1e-15
    expected_r = np.array([[0.5, -0.5j], [0.5j, 0.5]])
    assert np.abs(density_from_jones(JONES_R) - expected_r).max() < 1e-15


def test_density_from_jones_rejects_unnormalized():
    with pytest.raises(ValueError, match="not normalized"):
        density_from_jones([1.0, 1.0])


def test_stokes_of_named_states():
    assert np.allclose(stokes_from_density(density_from_jones(JONES_H)), [1, 0, 0], atol=1e-15)
    assert np.allclose(stokes_from_density(I2 / 2), [0, 0, 0], atol=1e-15)
    assert np.allclose(stokes_from_density(density_from_jones(JONES_R)), [0, 0, 1], atol=1e-15)
    with pytest.raises(ValueError, match="2x2"):
        stokes_from_density(np.eye(3))


def test_density_from_stokes_examples():
    assert np.abs(density_from_stokes([0, 0, 0]) - I2 / 2).max() < 1e-15
    assert np.abs(density_from_stokes([1, 0, 0]) - density_from_jones(JONES_H)).max() < 1e-15
    s = np.ones(3) / np.sqrt(3.0)
    rho = density_from_stokes(s)
    assert abs(np.linalg.det(rho)) < 1e-12  # unit Stokes vector means a pure state


def test_density_from_stokes_rejects_outside_ball():
    with pytest.raises(ValueError, match="outside"):
        density_from_stokes([0.8, 0.8, 0.0])
    with pytest.raises(ValueError, match="outside"):
        density_from_stokes([1e200, 0.0, 0.0])


def test_stokes_density_round_trip():
    rng = np.random.default_rng(1)
    for _ in range(300):
        rho = random_density(rng)
        back = density_from_stokes(stokes_from_density(rho))
        assert np.abs(back - rho).max() < 1e-12
        s = rng.normal(size=3)
        s *= rng.uniform(0, 1) / np.linalg.norm(s)
        assert np.abs(stokes_from_density(density_from_stokes(s)) - s).max() < 1e-12


def test_dop_examples():
    assert dop(I2 / 2) == 0.0
    assert abs(dop(density_from_jones(JONES_H)) - 1.0) < 1e-15
    # derived: diag(2/3, 1/3) has D = sqrt(1 - 8/9) = 1/3 by either formula
    rho = np.diag([2 / 3, 1 / 3]).astype(complex)
    assert abs(dop(rho) - 1 / 3) < 1e-12
    assert abs(dop_from_determinant(rho) - 1 / 3) < 1e-12


def test_dop_identity_between_formulas():
    rng = np.random.default_rng(2)
    for _ in range(2000):
        rho = random_density(rng)
        assert abs(dop(rho) - dop_from_determinant(rho)) < 1e-10


def test_dop_from_determinant_takes_one_2x2_matrix():
    # the determinant is a d - b c of one matrix; np.linalg.det took a stack and returned an array
    for rho in (np.eye(2)[None] / 2, np.eye(3) / 3, np.ones(2) / 2, np.ones((2, 2, 1)) / 2):
        with pytest.raises(ValueError, match=re.escape(f"must be one 2x2 matrix, got shape {np.shape(rho)}")):
            dop_from_determinant(rho)
    assert type(dop_from_determinant(I2 / 2)) is float


def test_dop_unitary_invariance():
    rng = np.random.default_rng(3)
    for _ in range(200):
        rho = random_density(rng)
        u = random_unitary(rng)
        assert abs(dop(u @ rho @ u.conj().T) - dop(rho)) < 1e-10


def test_dop_from_determinant_clamps_and_rejects():
    # radicand in [-1e-10, 0) clamps to zero
    rho = I2 / 2 + np.diag([1e-11, -1e-11])
    assert dop_from_determinant(rho) == 0.0
    with pytest.raises(ValueError, match="physical"):
        dop_from_determinant(I2 / 2 + np.diag([1e-4, -1e-4]) * 1j)
    # an all-NaN rho gave nan with a RuntimeWarning, and an infinite one gave 1.0
    for rho in (np.full((2, 2), np.nan), np.array([[np.inf, 0.0], [0.0, 0.0]])):
        with pytest.raises(ValueError, match="finite"):
            dop_from_determinant(rho)


def test_state_fidelity_examples():
    rho_h = density_from_jones(JONES_H)
    rho_v = density_from_jones(JONES_V)
    assert abs(state_fidelity(rho_h, rho_h) - 1.0) < 1e-12
    assert state_fidelity(rho_h, rho_v) < 1e-12
    assert abs(state_fidelity(rho_h, I2 / 2) - 0.5) < 1e-12


def test_state_fidelity_symmetric():
    rng = np.random.default_rng(4)
    for _ in range(100):
        a, b = random_density(rng), random_density(rng)
        assert abs(state_fidelity(a, b) - state_fidelity(b, a)) < 1e-10


def test_jones_from_stokes_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(100):
        j = random_pure_jones(rng)
        s = stokes_from_density(density_from_jones(j))
        j2 = jones_from_stokes(s)
        assert np.abs(stokes_from_density(density_from_jones(j2)) - s).max() < 1e-10
    with pytest.raises(ValueError, match="pure"):
        jones_from_stokes([0.5, 0.0, 0.0])


def eigh_jones_from_stokes(s):
    """The former form of jones_from_stokes: the top eigenvector of rho(s / |s|), its largest component made real
    and positive."""
    s = np.asarray(s, dtype=float)
    vals, vecs = np.linalg.eigh(density_from_stokes(s / np.linalg.norm(s)))
    j = vecs[:, np.argmax(vals)]
    return j * np.exp(-1j * np.angle(j[int(np.argmax(np.abs(j)))]))


def test_jones_from_stokes_matches_the_eigh_form():
    rng = np.random.default_rng(47)
    vectors = rng.normal(size=(2000, 3))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    # the poles, and vectors off unit length within the tolerance
    vectors = np.vstack([vectors, [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]], vectors[:100] * (1.0 + 1e-7)])
    for s in vectors:
        assert np.abs(jones_from_stokes(s) - eigh_jones_from_stokes(s)).max() <= 1e-15, s
    # on a tie the h component is the real positive one; past the tolerance, or not finite, is no pure state
    for s, expected in (([0.0, 0.0, 1.0], JONES_R), ([0.0, -1.0, 0.0], JONES_M * -1.0)):
        j = jones_from_stokes(s)
        assert j[0].imag == 0.0 and j[0].real > 0.0 and np.abs(j - expected).max() <= 1e-15
    for bad in ([1.0 + 2e-6, 0.0, 0.0], [np.nan, 0.0, 1.0], [1e200, 1e200, 0.0], [0.0, np.inf, 0.0]):
        with pytest.raises(ValueError, match="pure"):
            jones_from_stokes(bad)


def test_stokes_to_density_keeps_the_bits_of_the_matrix_sum():
    # signed zeros and subnormals are where building the four entries could differ from the sum of matrices
    grid = [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.0**-1074 * 3, 0.5, -0.25]
    rng = np.random.default_rng(43)
    vectors = [list(s) for s in itertools.product(grid, repeat=3)]
    vectors += rng.uniform(-1.0, 1.0, size=(2000, 3)).tolist()
    vectors += (rng.normal(size=(500, 3)) * 10.0 ** rng.integers(-300, 1, size=(500, 1))).tolist()
    for s in vectors:
        for form in (s, np.array(s)):
            got, expected = _stokes_to_density(form), _oracle.former_stokes_to_density(form)
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert got.tobytes() == expected.tobytes(), s


@pytest.mark.kernel_bits
def test_stokes_from_density_keeps_the_bits_of_the_three_ufuncs():
    # signed zeros are where re01 - (-re10) could differ from re01 + re10: all 256 sign patterns of zeros
    # come first; a strided, a broadcast and a Fortran-ordered array and nested lists are read through a copy
    rng = np.random.default_rng(44)
    signed = signed_zero_matrices(rng)
    uniform = rng.uniform(-1.0, 1.0, size=(3, 250, 2, 2)) + 1j * rng.uniform(-1.0, 1.0, size=(3, 250, 2, 2))
    forms = [
        signed,
        signed[0],
        signed.reshape(1000, 4, 2, 2)[:, 0],
        uniform[:, ::3],
        np.broadcast_to(signed[5], (7, 3, 2, 2)),
        np.asfortranarray(signed[7]),
        np.asfortranarray(uniform),
        signed[:3].tolist(),
        signed[9].tolist(),
        signed[:0],
    ]
    for form in forms:
        got, expected = stokes_from_density(form), _oracle.former_stokes_from_density(form)
        assert got.dtype == expected.dtype and got.shape == expected.shape == np.shape(form)[:-2] + (3,)
        assert got.tobytes() == expected.tobytes()
    # one matrix at a time, each takes the single-matrix path in Python floats
    for matrix in signed:
        assert stokes_from_density(matrix).tobytes() == _oracle.former_stokes_from_density(matrix).tobytes()
    for bad in (np.zeros(4), np.zeros((2, 3)), np.zeros((3, 2, 2, 1)), signed[:10, 0], [[1.0, 0.0]]):
        with pytest.raises(ValueError, match="must be 2x2"):
            stokes_from_density(bad)


@pytest.mark.kernel_bits
@pytest.mark.filterwarnings("error")
def test_single_matrix_read_outs_keep_nan_and_inf_bits():
    # a NaN's sign bit is where Python's unary minus would part from the stack's multiplication by -1.0
    stacked = []
    for position in itertools.product(range(2), range(2)):
        for bad in (np.nan, -np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(0.0, -np.nan), complex(0.0, np.inf)):
            rho = np.array([[0.5, -0.0 + 0.25j], [0.25 - 0.0j, 0.5]])
            rho[position] = bad
            stacked.append(rho)
    stacked = np.array(stacked)
    with np.errstate(invalid="ignore"):  # the stack's sqrt and minimum meet the NaNs in numpy
        s, d = stokes_from_density(stacked), dop(stacked)
    for rho, s_row, d_row in zip(stacked, s, d):
        assert stokes_from_density(rho).tobytes() == s_row.tobytes()
        single = dop(rho)
        assert type(single) is float and np.float64(single).tobytes() == d_row.tobytes()
    nan_rho = np.full((2, 2), np.nan, dtype=complex)
    assert np.isnan(dop(nan_rho)) and np.isnan(dop(nan_rho[None])[0])
    assert dop(np.array([[1.0, 1.0], [1.0, 0.0]], dtype=complex)) == 1.0  # |S| = sqrt(5), clamped


@pytest.mark.filterwarnings("error")
def test_state_fidelity_refuses_non_finite_entries():
    # LAPACK's eigh reads the lower triangle only: a NaN above the diagonal used to give F = 1, one below it
    # LinAlgError; every position and both arguments now raise ValueError
    good = np.eye(2, dtype=complex) / 2
    for position in itertools.product(range(2), range(2)):
        for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(0.0, np.inf)):
            rho = good.copy()
            rho[position] = bad
            for pair in ((rho, good), (good, rho)):
                with pytest.raises(ValueError, match="must be finite"):
                    state_fidelity(*pair)
    assert state_fidelity(good, good) == pytest.approx(1.0)


# every subscript string the library hands its einsum kernel, with operand shapes as the library passes them
LIBRARY_EINSUMS = {
    "ica,jbd->ijbadc": [(4, 2, 2), (4, 2, 2)],
    "mab,ncd->mnbadc": [(4, 2, 2), (4, 2, 2)],
    "kbd,ap,cq->badckpq": [(4, 2, 2), (2, 2), (2, 2)],
    "...i,...i->...": [(5, 3), (5, 3)],
    "trc,tmcn->tmrn": [(3, 4, 2), (3, 1, 2, 16)],
    "trk,tsk->trs": [(3, 4, 16), (3, 4, 16)],
    "tbadc,bn,dn->tnac": [(3, 2, 2, 2, 2), (2, 4), (2, 4)],
    "ijxy,xy->ij": [(4, 4, 4, 8), (4, 8)],
    "xykac,kac->xy": [(4, 4, 4, 2, 2), (4, 2, 2)],
    "mnxy,xykac->mnkac": [(4, 4, 4, 4), (4, 4, 4, 2, 2)],
    "nji,mjl->mnil": [(4, 2, 2), (4, 2, 2)],
    "mnxy,xy->mn": [(4, 4, 4, 4), (4, 4)],
    "mnkac,kac->mn": [(4, 4, 4, 2, 2), (4, 2, 2)],
    "...j,ij->...i": [(50, 3), (3, 3)],
    "ij,jk->ik": [(3, 3), (3, 3)],
    "ji,jk->ik": [(3, 3), (3, 3)],
    "mn,mnil->il": [(4, 4), (4, 4, 2, 2)],
    "ik,k,jk->ij": [(4, 4), (4,), (4, 4)],
    "ij,jk,kl->il": [(4, 4), (4, 4), (4, 4)],
}


@pytest.mark.kernel_bits
def test_einsum_kernel_binding_gives_np_einsum_bytes():
    # the library calls numpy's einsum kernel without np.einsum's dispatch; the kernel is the same object
    # np.einsum ends in, and on every subscript string in the package's source its bits are np.einsum's
    assert depolsim.polarization._einsum is numpy._core.einsumfunc.c_einsum
    sources = Path(depolsim.polarization.__file__).parent.glob("*.py")
    used = {m for path in sources for m in re.findall(r'_einsum\(\s*"([^"]+)"', path.read_text())}
    assert used == LIBRARY_EINSUMS.keys()
    rng = np.random.default_rng(45)

    def part(shape):
        # about a third of the entries are +0.0 or -0.0
        x = rng.normal(size=shape)
        zero = rng.random(shape) < 0.3
        x[zero] = rng.choice([0.0, -0.0], size=int(zero.sum()))
        return x

    def operand(shape, kind):
        if kind == "real":
            return part(shape)
        z = np.empty(shape, dtype=complex)
        z.real, z.imag = part(shape), part(shape)
        return z

    for subscripts, shapes in LIBRARY_EINSUMS.items():
        # every mix of real and complex operands, such as the complex eigenvectors around real eigenvalues
        for kinds in itertools.product(("real", "complex"), repeat=len(shapes)):
            for _ in range(20):
                operands = [operand(shape, kind) for shape, kind in zip(shapes, kinds)]
                got = np.asarray(depolsim.polarization._einsum(subscripts, *operands))
                expected = np.asarray(np.einsum(subscripts, *operands))
                assert got.dtype == expected.dtype and got.shape == expected.shape
                assert np.array_equal(got.reshape(-1).view(np.uint64), expected.reshape(-1).view(np.uint64)), (
                    subscripts, kinds)


def test_the_einsum_kernel_is_the_librarys_only_matrix_product():
    # every product in the package goes through _einsum, so no BLAS call (@, dot, matmul, inner, vdot, tensordot)
    # and no np.linalg routine but LAPACK's eigh, bound as _eigh, with its fallback and its LinAlgError
    products = {"dot", "matmul", "inner", "vdot", "tensordot"}
    found = []
    for path in sorted(Path(depolsim.polarization.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found.append(f"{where} @")
            elif isinstance(node, ast.Attribute) and node.attr in products:
                found.append(f"{where} .{node.attr}")
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
                  and node.value.attr == "linalg" and node.attr not in ("LinAlgError", "eigh")):
                found.append(f"{where} linalg.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
                names = {alias.name for alias in node.names}
                if names & products or ("linalg" in node.module and names != {"eigh_lo"}):
                    found.append(f"{where} from {node.module} import {sorted(names)}")
    assert found == []


@pytest.mark.kernel_bits
def test_eigh_kernel_binding_gives_np_linalg_eigh_bytes():
    # the library calls LAPACK's Hermitian eigensolver without np.linalg.eigh's Python wrapper; the gufunc is the
    # one np.linalg.eigh ends in, and its eigenvalues and eigenvectors have np.linalg.eigh's bits on Hermitian 2x2
    # and 4x4 matrices of every rank, with +0.0 and -0.0 entries
    assert depolsim.polarization._eigh_lo is numpy.linalg._umath_linalg.eigh_lo
    eigh = depolsim.polarization._eigh
    rng = np.random.default_rng(47)

    def hermitian(n, rank):
        g = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
        h = g @ g.conj().T
        # about a third of the off-diagonal pairs and diagonal imaginary parts become signed zeros
        for i, k in itertools.combinations_with_replacement(range(n), 2):
            if rng.random() < 0.3:
                zero = rng.choice([0.0, -0.0])
                h[i, k] = complex(zero, rng.choice([0.0, -0.0])) if i != k else complex(h[i, i].real, zero)
                h[k, i] = h[i, k].conjugate() if i != k else h[i, i]
        return h

    matrices = [np.zeros((n, n), dtype=complex) for n in (2, 4)] + [np.eye(n, dtype=complex) / n for n in (2, 4)]
    matrices += [density_from_jones(j) for j in (JONES_H, JONES_P, JONES_R)]
    matrices += [hermitian(n, rank) for _ in range(100) for n in (2, 4) for rank in range(1, n + 1)]
    for h in matrices:
        got_vals, got_vecs = eigh(h)
        expected_vals, expected_vecs = np.linalg.eigh(h)
        assert got_vals.dtype == np.float64 and got_vecs.dtype == np.complex128
        assert np.array_equal(got_vals.view(np.uint64), expected_vals.view(np.uint64))
        assert np.array_equal(got_vecs.view(np.uint64), expected_vecs.view(np.uint64))
    # a non-finite entry gives np.linalg.eigh's outcome, with no RuntimeWarning: LinAlgError where LAPACK does not
    # converge (a NaN below the diagonal of a 4x4, for one), else the same bits
    raised = 0
    for n, bad in itertools.product((2, 4), (complex(np.nan, 0.0), complex(0.0, np.nan), np.inf, -np.inf)):
        for position in itertools.combinations_with_replacement(range(n), 2):
            h = np.eye(n, dtype=complex)
            h[position[::-1]] = bad
            outcomes = []
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for solver in (eigh, np.linalg.eigh):
                    try:
                        vals, vecs = solver(h)
                        outcomes.append((vals.view(np.uint64).tolist(), vecs.view(np.uint64).tolist()))
                    except np.linalg.LinAlgError as exc:
                        outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1], (n, bad, position)
            raised += outcomes[0] == "Eigenvalues did not converge"
    assert raised > 0


@pytest.mark.filterwarnings("error")
def test_eigh_restores_the_callers_error_state():
    # _eigh sets np.linalg.eigh's error state around LAPACK, pre-built once, and must hand the caller's back after
    # a normal call and after LinAlgError, warning nothing either way
    eigh = depolsim.polarization._eigh
    nan_matrix = np.ones((4, 4), dtype=complex)
    nan_matrix[2, 1] = np.nan  # below the diagonal, where LAPACK reads it and fails to converge
    for state in ({}, {"all": "raise"}, {"divide": "warn", "over": "ignore", "under": "raise", "invalid": "print"}):
        with np.errstate(**state):
            before, call = np.geterr(), np.geterrcall()
            vals, _ = eigh(np.diag([3.0, 1.0, 2.0, 0.0]).astype(complex))
            assert vals.tolist() == [0.0, 1.0, 2.0, 3.0]
            assert np.geterr() == before and np.geterrcall() is call
            with pytest.raises(np.linalg.LinAlgError):
                eigh(nan_matrix)
            assert np.geterr() == before and np.geterrcall() is call
