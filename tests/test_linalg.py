"""Core linear algebra: norms, exponentials, PSD roots, eigenstructure."""

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from ptqm.errors import (DimensionError, NotPositiveSemidefiniteError, SingularMatrixError,
                         ValidationError)
from ptqm.linalg import (
    BlockLayout,
    _within_scale,
    EigenStructure,
    congruence_solve,
    eigen_decompose,
    matrix_exponential,
    norm_within,
    operator_norm,
    psd_square_root,
    solve_stack,
)
from ptqm.sampling import random_instance


def taylor_expm(a, terms=60):
    """Independent oracle: truncated power series."""
    a = np.asarray(a, dtype=complex)
    out = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, terms + 1):
        term = term @ a / k
        out = out + term
    return out


def test_operator_norm_known_values():
    assert operator_norm(np.zeros((3, 3))) == 0.0
    # largest singular value, not spectral radius: nilpotent has norm 2
    assert operator_norm(np.array([[0.0, 2.0], [0.0, 0.0]])) == 2.0
    assert abs(operator_norm(np.diag([1.0, -3.0, 2.0])) - 3.0) < 1e-15


def test_operator_norm_unitary_invariance():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    assert abs(operator_norm(q @ a) - operator_norm(a)) < 1e-12


def test_norm_within_matches_the_exact_norm_on_a_stack():
    rng = np.random.default_rng(7)
    stack = rng.normal(size=(6, 5, 5)) + 1j * rng.normal(size=(6, 5, 5))
    exact = operator_norm(stack)
    bounds = exact * np.array([0.5, 1 - 1e-9, 1 + 1e-9, 2.0, 3.0, 1e300])
    np.testing.assert_array_equal(norm_within(stack, bounds), exact <= bounds)
    assert norm_within(stack[0], np.inf) is True
    assert norm_within(stack[0], exact[0] * (1 - 1e-9)) is False
    assert norm_within(np.zeros((3, 3)), 1e-300) is True
    assert norm_within(stack, exact.max()).all()


def test_norm_within_screens_at_the_edges_of_the_float_range():
    """D / bound is squared, not D: a defect near 1e-170 or 1e200 is
    screened at a bound of its own scale without underflow or overflow."""
    d = np.outer([1.0, 1.0j], [1.0, 0.0])  # rank 1: ||D||_F = ||D||_2 = sqrt(2)
    for scale in (1e-170, 1e200):
        assert norm_within(scale * d, scale * 2.0 * np.sqrt(2.0))
        assert not norm_within(scale * d, scale * np.sqrt(2.0) * (1 - 1e-9))
        assert norm_within(scale * d, scale * np.sqrt(2.0) * (1 + 1e-9))


def test_within_scale_decides_as_the_exact_norms_do():
    """||D||_2 <= tol * max(1, ||R||_2) for R near 1e-170, 1 and 1e200,
    where ||R||_F overflows, and D on either side of the bound."""
    rng = np.random.default_rng(8)
    tol = 1e-9
    refs, defects = [], []
    for scale in (1e-170, 1.0, 1e200):
        for factor in (0.5, 1 - 1e-9, 1 + 1e-9, 2.0):
            r = scale * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
            u = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            bound = tol * max(1.0, operator_norm(r))
            refs.append(r)
            defects.append(factor * bound * u / operator_norm(u))
    refs, defects = np.array(refs), np.array(defects)
    with np.errstate(over="ignore"):
        assert np.isinf(np.linalg.norm(refs[-1]))
    exact = operator_norm(defects) <= tol * np.maximum(1.0, operator_norm(refs))
    np.testing.assert_array_equal(_within_scale(defects, refs, tol), exact)
    np.testing.assert_array_equal(exact, np.tile([True, True, False, False], 3))
    assert _within_scale(defects[-3], refs[-3], tol).shape == ()


def test_matrix_exponential_zero_and_diagonal():
    assert np.allclose(matrix_exponential(np.zeros((3, 3))), np.eye(3))
    got = matrix_exponential(np.diag([1.0, 2.0]))
    assert np.allclose(np.diag(got), [np.e, np.e ** 2], atol=1e-14)


def test_matrix_exponential_matches_taylor():
    rng = np.random.default_rng(23)
    for _ in range(20):
        d = int(rng.integers(2, 7))
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        a = a * (rng.uniform(0.1, 5.0) / operator_norm(a))
        assert operator_norm(matrix_exponential(a) - taylor_expm(a)) <= 1e-9


def test_matrix_exponential_scale_argument():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(3, 3))
    t = 1.7
    direct = matrix_exponential(a, -1j * t)
    assert operator_norm(direct - taylor_expm(-1j * t * a)) <= 1e-10


def test_matrix_exponential_rejects_nonfinite_scale():
    with pytest.raises(ValidationError):
        matrix_exponential(np.eye(2), np.inf)


def test_psd_square_root_roundtrip():
    rng = np.random.default_rng(31)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    a = g @ g.conj().T
    b = psd_square_root(a)
    assert operator_norm(b @ b - a) <= 1e-10 * operator_norm(a)
    assert operator_norm(b - b.conj().T) <= 1e-12 * operator_norm(b)


def test_psd_square_root_clamps_tiny_negatives():
    # eigenvalue -1e-13 is rounding noise, not indefiniteness
    a = np.diag([1.0, -1e-13])
    b = psd_square_root(a)
    assert b[1, 1] == 0.0


def test_psd_square_root_rejects_indefinite():
    with pytest.raises(NotPositiveSemidefiniteError):
        psd_square_root(np.diag([1.0, -0.5]))
    with pytest.raises(ValidationError):
        psd_square_root(np.array([[0.0, 1.0], [0.0, 0.0]]))  # not Hermitian


def test_eigen_decompose_diagonal():
    a = np.diag([3.0, -1.0, 3.0])
    es = eigen_decompose(a)
    # two clusters: -1 simple, 3 with multiplicity 2, semisimple
    pairs = sorted((ev.real, m) for ev, m in zip(es.eigenvalues, es.multiplicities))
    assert pairs == [(-1.0, 1), (3.0, 2)]
    assert tuple(es.multiplicities) == tuple(es.geometric_multiplicities)
    assert es.residual <= 1e-12


def test_eigen_decompose_reconstruction_random():
    rng = np.random.default_rng(17)
    for _ in range(10):
        d = int(rng.integers(2, 8))
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        es = eigen_decompose(a)
        psi, j = es.assemble()
        scale = max(1.0, operator_norm(a))
        assert operator_norm(a @ psi - psi @ j) <= 1e-8 * scale
        assert es.residual <= 1e-8 * scale


def test_eigen_decompose_exact_jordan_block():
    a = np.array([[2.0, 1.0], [0.0, 2.0]])
    es = eigen_decompose(a)
    assert list(es.multiplicities) == [2]
    assert list(es.geometric_multiplicities) == [1]
    assert len(es.chains[0]) == 1 and len(es.chains[0][0]) == 2
    psi, j = es.assemble()
    assert abs(j[0, 1] - 1.0) < 1e-14
    assert operator_norm(a @ psi - psi @ j) <= 1e-12


def test_eigen_decompose_hidden_jordan_block():
    # similarity-transformed Jordan block: eigenvalues split ~sqrt(eps),
    # so the cluster tolerance must sit above the splitting radius
    rng = np.random.default_rng(41)
    j0 = np.array([[0.5, 1.0, 0], [0, 0.5, 0], [0, 0, -1.0]], dtype=complex)
    v = rng.normal(size=(3, 3))
    h = v @ j0 @ np.linalg.inv(v)
    es = eigen_decompose(h, cluster_tol=1e-6)
    ms = sorted(zip(es.multiplicities, es.geometric_multiplicities))
    assert ms == [(1, 1), (2, 1)]
    psi, j = es.assemble()
    assert operator_norm(h @ psi - psi @ j) <= 1e-9 * operator_norm(h)


def test_eigen_decompose_mixed_complex_spectrum():
    a = np.diag([1.0 + 2.0j, 1.0 - 2.0j, 0.5])
    es = eigen_decompose(a)
    got = sorted(np.round(es.eigenvalues, 12).tolist(), key=lambda z: (z.real, z.imag))
    assert got == [0.5, 1.0 - 2.0j, 1.0 + 2.0j]


def test_eigen_structure_assemble_shapes():
    es = eigen_decompose(np.array([[1.0, 1.0], [0.0, 3.0]]))
    psi, j = es.assemble()
    assert psi.shape == (2, 2) and j.shape == (2, 2)
    assert isinstance(es, EigenStructure)
    assert sum(es.multiplicities) == 2


def test_validators_reject_bad_input():
    with pytest.raises(ValidationError):
        eigen_decompose(np.array([[1.0, 2.0, 3.0]]))  # not square
    with pytest.raises(ValidationError):
        eigen_decompose(np.array([[np.nan, 0], [0, 1.0]]))
    with pytest.raises(ValidationError):
        operator_norm(np.array([]))


def test_block_layout_matches_blockwise_assembly():
    lam = 0.5 + 0.7j
    units = [(lam, 2, True), (-1.0 + 0j, 3, False), (2.0 + 0j, 1, False), (1.5 - 0.2j, 1, True)]
    layout = BlockLayout.from_units(units)

    assert np.array_equal(layout.eigenvalues,
                          [lam, lam, np.conj(lam), np.conj(lam), -1, -1, -1, 2,
                           1.5 - 0.2j, 1.5 + 0.2j])
    assert layout.chains == ((0, 2), (2, 2), (4, 3), (7, 1), (8, 1), (9, 1))
    assert layout.units == ((0, 4), (4, 3), (7, 1), (8, 2))
    assert layout.paired == (True, False, False, True)
    assert layout.n_real == 2

    # reference: one Jordan block per chain, one swap or identity block per unit
    def jordan(z, n):
        return z * np.eye(n) + np.diag(np.ones(n - 1), 1)

    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    j_ref = sla.block_diag(jordan(lam, 2), jordan(np.conj(lam), 2), jordan(-1.0, 3),
                           jordan(2.0, 1), jordan(1.5 - 0.2j, 1), jordan(1.5 + 0.2j, 1))
    k_ref = sla.block_diag(np.kron(swap, np.eye(2)), np.eye(3), np.eye(1), swap)
    j, k = layout.matrices()
    assert np.array_equal(j, j_ref) and np.array_equal(k, k_ref)


def loop_matrices(layout):
    """The chain-by-chain and unit-by-unit assembly BlockLayout.matrices replaced."""
    d = layout.eigenvalues.shape[0]
    nilpotent = np.zeros((d, d))
    for offset, length in layout.chains:
        rows = np.arange(offset, offset + length - 1)
        nilpotent[rows, rows + 1] = 1.0
    k = np.zeros((d, d), dtype=complex)
    for (offset, span), pair in zip(layout.units, layout.paired):
        cols = np.arange(offset, offset + span)
        k[cols, np.roll(cols, span // 2) if pair else cols] = 1.0
    return np.diag(layout.eigenvalues) + nilpotent, k


# (eigenvalue, order, paired) units; signed zeros, as eig can return them
layout_units = st.lists(
    st.tuples(st.builds(complex, st.sampled_from([0.0, -0.0, 1.5, -2.25]),
                        st.sampled_from([0.0, -0.0, 0.5])),
              st.integers(1, 3), st.booleans()),
    min_size=1, max_size=12)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(layout_units)
def test_block_layout_matrices_match_the_loop_assembly_bitwise(units):
    layout = BlockLayout.from_units(units)
    for got, want in zip(layout.matrices(), loop_matrices(layout)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_congruence_solve_stack_and_singular_basis():
    rng = np.random.default_rng(3)
    c = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    x = rng.normal(size=(4, 3, 3)) + 1j * rng.normal(size=(4, 3, 3))
    r = congruence_solve(c, x, "C")
    assert np.allclose(c @ r @ c.conj().T, x, atol=1e-12)
    assert np.array_equal(r[2], congruence_solve(c, x[2], "C"))
    with pytest.raises(SingularMatrixError, match="C is numerically singular"):
        congruence_solve(np.zeros((3, 3)), x[0], "C")


@pytest.mark.parametrize("d", [1, 2, 3, 8, 16])
def test_solve_stack_equals_per_matrix_solve(d):
    rng = np.random.default_rng(d)
    c = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    x = rng.normal(size=(7, d, d)) + 1j * rng.normal(size=(7, d, d))
    assert np.array_equal(solve_stack(c, x[0]), np.linalg.solve(c, x[0]))
    stacked = solve_stack(c, x)
    assert stacked.shape == x.shape
    np.testing.assert_array_equal(stacked, [np.linalg.solve(c, m) for m in x])
    # a right division by C, as the propagator stack takes it
    right = solve_stack(c.T, x.swapaxes(-1, -2)).swapaxes(-1, -2)
    np.testing.assert_array_equal(right, [np.linalg.solve(c.T, m.T).T for m in x])


def test_solve_stack_with_jordan_chain_basis():
    inst = random_instance(np.random.default_rng(4), 6, kind="ep")
    assert not np.allclose(inst["j0"], np.diag(np.diag(inst["j0"])))
    psi = inst["psi0"]
    rng = np.random.default_rng(9)
    x = rng.normal(size=(5, 6, 6)) + 1j * rng.normal(size=(5, 6, 6))
    np.testing.assert_array_equal(solve_stack(psi, x), [np.linalg.solve(psi, m) for m in x])
    r = congruence_solve(psi, x, "Psi")
    np.testing.assert_array_equal(r, [congruence_solve(psi, m, "Psi") for m in x])


def test_congruence_solve_singular_stack_keeps_message():
    x = np.ones((4, 3, 3), dtype=complex)
    with pytest.raises(SingularMatrixError, match="^C is numerically singular$"):
        congruence_solve(np.zeros((3, 3)), x, "C")
    with pytest.raises(SingularMatrixError, match="^C is numerically singular$"):
        congruence_solve(np.zeros((3, 3)), x[0], "C")



@pytest.mark.parametrize("name, value", [("cluster_tol", np.nan), ("cluster_tol", np.inf),
                                         ("rank_tol", np.nan), ("cluster_tol", 0.0)])
def test_eigen_decompose_rejects_a_non_finite_tolerance(name, value):
    with pytest.raises(ValidationError, match=f"^{name} must be finite and positive"):
        eigen_decompose(np.array([[1.0, 2.0], [0.0, 3.0]]), **{name: value})


@pytest.mark.parametrize("call, kind, message", [
    (lambda: operator_norm(np.zeros((1, 0))), ValidationError, "A is empty"),
    (lambda: operator_norm(np.zeros(3)), DimensionError,
     r"A must be 2-dimensional, got shape \(3,\)"),
])
def test_linalg_input_errors(call, kind, message):
    with pytest.raises(kind, match=f"^{message}$"):
        call()
