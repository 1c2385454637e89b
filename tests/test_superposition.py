"""Superposition-free states, free Kraus operators, free evolution."""

from pathlib import Path

import numpy as np
import pytest

from ptqm.canonical import pt_canonical_form
from ptqm.dilation import uniform_bound
from ptqm.dynamics import TimeGrid, default_grid, propagator, propagator_stack
from ptqm.errors import (BrokenSymmetryError, DimensionError, NumericalError, PreconditionError,
                         ValidationError)
from ptqm.linalg import operator_norm, psd_square_root
from ptqm.matio import load_matrix_file
from ptqm.sampling import (
    random_free_basis,
    random_free_kraus,
    random_free_state,
    random_instance,
)
from ptqm.superposition import (
    free_basis,
    free_kraus_defect,
    is_free_kraus,
    is_incoherent,
    is_superposition_free,
    verify_free_evolution,
)
from ptqm.symmetry import validate_pt_pair


SX = np.array([[0.0, 1.0], [1.0, 0.0]])


def bender(r, s, theta):
    h = np.array([[r * np.exp(1j * theta), s], [s, r * np.exp(-1j * theta)]])
    return h, validate_pt_pair(SX, np.eye(2))


def oblique_basis():
    # normalized but deliberately non-orthogonal
    c1 = np.array([1.0, 0.0], dtype=complex)
    c2 = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    return free_basis([c1, c2])


def test_free_basis_validation():
    with pytest.raises(ValidationError):
        free_basis([np.array([1.0, 0.0]), np.array([2.0, 0.0])])  # dependent
    basis = oblique_basis()
    assert basis.dim == 2
    for v in basis.vectors:
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12


def test_basis_projector_is_free():
    basis = oblique_basis()
    rho = np.outer(basis.vectors[0], basis.vectors[0].conj())
    ok, dec = is_superposition_free(rho, basis)
    assert ok
    assert np.allclose(dec.weights, [1.0, 0.0], atol=1e-10)


def test_mixture_of_projectors_is_free():
    basis = oblique_basis()
    rho = 0.3 * np.outer(basis.vectors[0], basis.vectors[0].conj()) \
        + 0.7 * np.outer(basis.vectors[1], basis.vectors[1].conj())
    ok, dec = is_superposition_free(rho, basis)
    assert ok
    assert np.allclose(dec.weights, [0.3, 0.7], atol=1e-10)


def test_superposed_state_is_not_free():
    basis = oblique_basis()
    xi = basis.vectors[0] + basis.vectors[1]
    xi /= np.linalg.norm(xi)
    ok, dec = is_superposition_free(np.outer(xi, xi.conj()), basis)
    assert not ok
    assert dec.residual > 0.1  # far from diagonal, not a tolerance case


def test_incoherent_against_computational_basis():
    comp = free_basis([np.eye(2)[:, 0], np.eye(2)[:, 1]])
    ok, dec = is_incoherent(np.diag([0.3, 0.7]).astype(complex), comp)
    assert ok and np.allclose(dec.weights, [0.3, 0.7])
    plus = np.full((2, 2), 0.5, dtype=complex)
    ok, _ = is_incoherent(plus, comp)
    assert not ok
    # maximally mixed state is incoherent in any orthonormal basis
    ok, _ = is_incoherent(np.eye(2, dtype=complex) / 2, comp)
    assert ok


def test_incoherent_requires_orthonormal_basis():
    with pytest.raises(PreconditionError):
        is_incoherent(np.eye(2, dtype=complex) / 2, oblique_basis())


def test_identity_and_permutation_are_free_kraus():
    basis = oblique_basis()
    assert is_free_kraus(np.eye(2), basis)
    comp = free_basis([np.eye(3)[:, i] for i in range(3)])
    perm = np.eye(3)[:, [2, 0, 1]]
    assert is_free_kraus(perm, comp)


def test_hadamard_mixer_is_not_free():
    comp = free_basis([np.eye(2)[:, 0], np.eye(2)[:, 1]])
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    assert not is_free_kraus(hadamard, comp)
    # K|0> lands exactly between the basis rays: defect 1 - 1/sqrt(2)
    defect = free_kraus_defect(hadamard, comp)
    assert abs(defect - (1.0 - 1.0 / np.sqrt(2.0))) <= 1e-12


def test_annihilating_kraus_is_free():
    basis = oblique_basis()
    # rank-one map sending c2 somewhere, c1 to zero
    c1, c2 = basis.vectors
    dual = np.linalg.inv(basis.matrix).conj().T
    k = np.outer(c2, dual[:, 1].conj())  # c1 -> 0, c2 -> c2
    assert is_free_kraus(k, basis)


def test_random_free_kraus_and_closure():
    rng = np.random.default_rng(149)
    for _ in range(20):
        d = int(rng.integers(2, 5))
        basis = random_free_basis(rng, d)
        k = random_free_kraus(rng, basis)
        assert is_free_kraus(k, basis)
        rho = random_free_state(rng, basis)
        out = k @ rho @ k.conj().T
        tr = np.trace(out).real
        if tr > 1e-8:
            ok, _ = is_superposition_free(out / tr, basis)
            assert ok


def test_kraus_completion_sum_identity():
    # the defect operator completes c U(t) to a trace-preserving pair
    h, pair = bender(1.0, 1.0, np.pi / 6)
    dec = pt_canonical_form(h, pair)
    c = uniform_bound(dec)
    from ptqm.dynamics import propagator
    for t in (0.0, 1.7, 6.3):
        ku = c * propagator(h, t)
        f = psd_square_root(np.eye(2) - ku.conj().T @ ku)
        total = f.conj().T @ f + ku.conj().T @ ku
        assert operator_norm(total - np.eye(2)) <= 1e-9


def test_verify_free_evolution_unbroken():
    h, pair = bender(1.0, 1.0, np.pi / 6)
    dec = pt_canonical_form(h, pair)
    c = uniform_bound(dec)
    rep = verify_free_evolution(h, pair, c)
    assert rep.ok
    assert rep.worst_defect <= 1e-8
    assert rep.min_contraction_margin >= -1e-8


def test_verify_free_evolution_hermitian_full_scale():
    h = np.array([[1.0, 0.4], [0.4, -0.5]])
    pair = validate_pt_pair(np.eye(2), np.eye(2))
    rep = verify_free_evolution(h, pair, 1.0)
    assert rep.ok


def test_verify_free_evolution_rejects_broken():
    h, pair = bender(1.0, 0.5, np.pi / 2)
    with pytest.raises(BrokenSymmetryError):
        verify_free_evolution(h, pair, 0.5)


def test_verify_free_evolution_flags_expansive_scale():
    h, pair = bender(1.0, 1.0, np.pi / 6)
    dec = pt_canonical_form(h, pair)
    c = uniform_bound(dec)
    rep = verify_free_evolution(h, pair, 4.0 * c, TimeGrid(0.0, 10.0, 51))
    assert not rep.ok
    assert rep.min_contraction_margin < 0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("c", [1e154, 1e155])
def test_verify_free_evolution_overflow_names_first_t(c):
    golden = Path(__file__).with_name("golden") / "inputs"
    h, p, t = (load_matrix_file(golden / f"{n}_unbroken2.json") for n in "hpt")
    pair = validate_pt_pair(p, t)
    dec = pt_canonical_form(h, pair)
    times = default_grid().times
    with np.errstate(over="ignore", invalid="ignore"):
        finite = [np.all(np.isfinite((c * u).conj().T @ (c * u)))
                  for u in (propagator_stack(dec, [s])[0] for s in times)]
    first = finite.index(False)
    with pytest.raises(NumericalError, match=f"not finite at t = {times[first]:.6f}$"):
        verify_free_evolution(h, pair, c, decomp=dec)


def test_free_basis_rejects_a_zero_vector():
    with pytest.raises(ValidationError, match="basis vector 0 is zero"):
        free_basis([np.array([0.0, 0.0]), np.array([1.0, 0.0])])


@pytest.mark.parametrize("c", [np.nan, np.inf, 0.0, -1.0])
def test_verify_free_evolution_rejects_a_scale_that_is_not_finite_and_positive(c):
    """A NaN or infinite c is an input error, not an overflow at t = 0."""
    h, pair = bender(1.0, 1.0, np.pi / 6)
    with pytest.raises(ValidationError, match=r"^c must be finite and positive, got "):
        verify_free_evolution(h, pair, c)


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1e-8])
def test_verify_free_evolution_rejects_a_tolerance_that_is_not_finite_and_positive(tol):
    """A NaN tol used to give a failing report whose worst defect is 0."""
    h, pair = bender(1.0, 1.0, np.pi / 6)
    with pytest.raises(ValidationError, match=r"^tol must be finite and positive, got "):
        verify_free_evolution(h, pair, 0.5, tol=tol)


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1e-8])
def test_free_kraus_defect_rejects_a_tolerance_that_is_not_finite_and_positive(tol):
    """A NaN tol used to count every image as annihilated: a defect of 0."""
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    with pytest.raises(ValidationError, match=r"^tol must be finite and positive, got "):
        free_kraus_defect(hadamard, free_basis(np.eye(2)), tol)


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1e-9])
def test_is_incoherent_checks_the_tolerance_before_the_basis(tol):
    """A NaN tol used to skip the orthonormality gate for an oblique basis."""
    basis = free_basis([[1.0, 0.0], [1.0, 1.0]])
    with pytest.raises(ValidationError, match=r"^tol must be finite and positive, got "):
        is_incoherent(np.eye(2) / 2.0, basis, tol)


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1e-9])
def test_is_superposition_free_rejects_a_tolerance_that_is_not_finite_and_positive(tol):
    with pytest.raises(ValidationError, match=r"^tol must be finite and positive, got "):
        is_superposition_free(np.eye(2) / 2.0, free_basis(np.eye(2)), tol)


@pytest.mark.parametrize("vectors, expected", [
    ([[1e200, 1e200], [1.0, -1.0]], [[1.0, 1.0], [1.0, -1.0]]),
    ([[1e-170, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]),
    ([[3e-320, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]),
])
def test_free_basis_normalises_vectors_whose_norm_leaves_the_float_range(vectors, expected):
    """The squares of these entries over- or underflow; under the warning
    filter that used to end in a RuntimeWarning."""
    basis = free_basis(vectors)
    for v, e in zip(basis.vectors, expected):
        e = np.array(e) / np.linalg.norm(e)
        assert np.max(np.abs(v - e)) <= 1e-15


@pytest.mark.parametrize("call, kind, message", [
    (lambda b: is_superposition_free(np.eye(3) / 3.0, b), DimensionError,
     "rho dimension does not match the basis"),
    (lambda b: free_kraus_defect(np.eye(3), b), DimensionError,
     "K dimension does not match the basis"),
    (lambda b: free_basis([[1.0, 0.0], [1.0, 0.0, 0.0]]), DimensionError,
     "basis vectors have mixed dimensions"),
    (lambda b: free_basis([[1.0, 0.0]]), ValidationError,
     "need 2 basis vectors for dimension 2, got 1"),
])
def test_superposition_input_errors(call, kind, message):
    with pytest.raises(kind, match=f"^{message}$"):
        call(free_basis(np.eye(2)))
