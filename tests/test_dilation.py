"""Contraction scaling and unitary dilation of unbroken evolution."""

import numpy as np
import pytest
import scipy.linalg as sla

import ptqm.dilation as dilation
import ptqm.dynamics as dynamics
from ptqm.bender import BenderParams, bender_hamiltonian
from ptqm.canonical import pt_canonical_form
from ptqm.dilation import embedded_evolution_check, halmos_dilation, uniform_bound
from ptqm.dynamics import TimeGrid, propagator, propagator_stack
from ptqm.errors import (BrokenSymmetryError, DimensionError, NotPositiveSemidefiniteError,
                         PreconditionError, ValidationError)
from ptqm.linalg import operator_norm
from ptqm.symmetry import PTPair, validate_pt_pair

SX = np.array([[0.0, 1.0], [1.0, 0.0]])
IDENTITY_PAIR = validate_pt_pair(np.eye(2), np.eye(2))


def bender(r, s, theta):
    return bender_hamiltonian(BenderParams(r, s, theta))


def test_uniform_bound_hermitian_is_slack():
    # Psi unitary up to column scaling, so ||Psi|| ||Psi^-1|| = 1
    h, pair = bender(0.0, 1.0, 0.0)
    dec = pt_canonical_form(h, pair)
    assert abs(uniform_bound(dec) - 0.99) <= 1e-12
    assert abs(uniform_bound(dec, slack=0.5) - 0.5) <= 1e-12


def test_uniform_bound_rejects_broken():
    h, pair = bender(2.0, 1.0, np.pi / 2)
    dec = pt_canonical_form(h, pair)
    with pytest.raises(BrokenSymmetryError):
        uniform_bound(dec)
    with pytest.raises(ValidationError):
        uniform_bound(pt_canonical_form(*bender(0.0, 1.0, 0.0)), slack=1.5)


def test_uniform_bound_caps_propagator_norm():
    # c ||U(t)|| < 1 for all t, checked on a long grid
    h, pair = bender(1.0, 1.0, np.pi / 3)
    dec = pt_canonical_form(h, pair)
    c = uniform_bound(dec)
    for t in np.linspace(0.0, 50.0, 101):
        assert c * operator_norm(propagator(h, t)) < 1.0


def test_halmos_identity_full_strength():
    res = halmos_dilation(np.eye(2), 1.0)
    expect = np.block([[np.eye(2), np.zeros((2, 2))],
                       [np.zeros((2, 2)), -np.eye(2)]])
    assert np.array_equal(res.V, expect)
    assert res.unitarity_residual <= 1e-15


def test_halmos_half_strength_defects():
    res = halmos_dilation(np.eye(2), 0.5)
    root3_half = np.sqrt(3.0) / 2.0
    assert operator_norm(res.V[:2, 2:] - root3_half * np.eye(2)) <= 1e-12
    assert operator_norm(res.V[2:, :2] - root3_half * np.eye(2)) <= 1e-12
    assert operator_norm(res.V[:2, :2] - 0.5 * np.eye(2)) <= 1e-15
    assert res.unitarity_residual <= 1e-12


def test_halmos_unitarity_random_contractions():
    rng = np.random.default_rng(83)
    for _ in range(20):
        d = int(rng.integers(2, 6))
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        u = a / (1.01 * operator_norm(a))
        res = halmos_dilation(u, 0.9)
        assert res.unitarity_residual <= 1e-9
        assert operator_norm(res.V[:d, :d] - 0.9 * u) <= 1e-15


def test_halmos_rejects_expansive_input():
    with pytest.raises(PreconditionError):
        halmos_dilation(2.0 * np.eye(2), 1.0)
    with pytest.raises(ValidationError):
        halmos_dilation(np.eye(2), 0.0)
    with pytest.raises(ValidationError):
        halmos_dilation(np.eye(2), 1.5)


def _with_singular_values(rng, sigma):
    """A matrix with the given singular values between random unitaries."""
    d = len(sigma)
    q1, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    q2, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return (q1 * np.asarray(sigma)) @ q2.conj().T


def test_halmos_margin_between_the_gates_is_not_psd():
    # sigma_max^2 = 1 + 1e-11 clears the -1e-10 contraction gate and falls
    # below the positive semidefinite floor of the defect operators
    rng = np.random.default_rng(89)
    u = _with_singular_values(rng, [np.sqrt(1.0 + 1e-11), 0.7, 0.2])
    with pytest.raises(NotPositiveSemidefiniteError, match="below the positive semidefinite floor"):
        halmos_dilation(u, 1.0)


def test_halmos_defects_square_to_the_gram_complements():
    rng = np.random.default_rng(101)
    c = 0.9
    for d in (2, 3, 5):
        for _ in range(4):
            a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            u = a / (1.01 * operator_norm(a))
            v = halmos_dilation(u, c).V
            d_l, d_r = v[:d, d:], v[d:, :d]
            ud = u.conj().T
            assert np.array_equal(d_l, d_l.conj().T)
            assert np.array_equal(d_r, d_r.conj().T)
            assert operator_norm(d_l @ d_l - (np.eye(d) - c * c * u @ ud)) <= 1e-12
            assert operator_norm(d_r @ d_r - (np.eye(d) - c * c * ud @ u)) <= 1e-12


def test_embedded_hermitian_exact():
    h = SX
    rho = np.array([[0.7, 0.1], [0.1, 0.3]], dtype=complex)
    rep = embedded_evolution_check(h, IDENTITY_PAIR, rho, TimeGrid(0.0, 5.0, 51))
    assert rep.max_deviation <= 1e-10
    # unitary U makes the success probability exactly c^2
    assert np.max(np.abs(rep.success_probabilities - rep.c ** 2)) <= 1e-12
    assert rep.unitarity_residual <= 1e-9


def test_embedded_unbroken_matches_direct():
    h, pair = bender(1.0, 1.0, np.pi / 6)
    rho = np.array([[0.6, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]])
    rep = embedded_evolution_check(h, pair, rho, TimeGrid(0.0, 10.0, 101))
    assert rep.max_deviation <= 1e-8
    assert rep.unitarity_residual <= 1e-9
    assert np.all(rep.success_probabilities > 0.0)
    assert np.all(rep.success_probabilities <= 1.0 + 1e-12)


def test_embedded_time_zero_point():
    h, pair = bender(1.0, 1.0, 0.4)
    rho = np.diag([0.5, 0.5]).astype(complex)
    rep = embedded_evolution_check(h, pair, rho, TimeGrid(0.0, 0.0, 1))
    assert rep.max_deviation <= 1e-12
    assert abs(rep.success_probabilities[0] - rep.c ** 2) <= 1e-12


def test_embedded_rejects_broken():
    h, pair = bender(2.0, 1.0, np.pi / 2)
    rho = np.diag([0.5, 0.5]).astype(complex)
    with pytest.raises(BrokenSymmetryError):
        embedded_evolution_check(h, pair, rho)


@pytest.mark.parametrize("u, message", [
    (np.zeros((2, 3)), r"U must be square, got shape \(2, 3\)"),
    (np.zeros(2), r"U must be 2-dimensional, got shape \(2,\)"),
    (np.zeros((2, 2, 2)), r"U must be 2-dimensional, got shape \(2, 2, 2\)"),
])
def test_dilation_input_errors(u, message):
    with pytest.raises(DimensionError, match=f"^{message}$"):
        halmos_dilation(u, 0.5)


def _unbroken_instance():
    """The instance of test_embedded_unbroken_matches_direct."""
    h, pair = bender(1.0, 1.0, np.pi / 6)
    rho = np.array([[0.6, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]])
    return h, pair, rho, TimeGrid(0.0, 10.0, 101)


def _small_rotation(d, seed):
    """expm(1e-6 i K) for a random Hermitian K."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return sla.expm(1e-6j * (a + a.conj().T))


_R = _small_rotation(2, 103)
# each fault spoils one factor of the SVD c U = W Sigma X^dag
_SVD_FAULTS = {
    "sigma_scaled": lambda w, s, xh: (w, s * (1.0 + 1e-6), xh),
    "w_rotated": lambda w, s, xh: (w @ _R, s, xh),
    "x_rotated": lambda w, s, xh: (w, s, _R @ xh),
    "w_scaled": lambda w, s, xh: (w * (1.0 + 1e-6), s, xh),
}


@pytest.mark.parametrize("fault", list(_SVD_FAULTS))
def test_embedded_check_flags_a_planted_svd_fault(monkeypatch, fault):
    h, pair, rho, grid = _unbroken_instance()
    dec = pt_canonical_form(h, pair)
    svd = np.linalg.svd

    def planted(a, *args, **kwargs):
        factors = svd(a, *args, **kwargs)
        # only the SVD with vectors of one matrix, the one halmos_dilation takes
        if np.ndim(a) == 2 and not isinstance(factors, np.ndarray):
            return _SVD_FAULTS[fault](*factors)
        return factors

    monkeypatch.setattr(np.linalg, "svd", planted)
    rep = embedded_evolution_check(h, pair, rho, grid, decomp=dec)
    assert rep.unitarity_residual > 1e-8


def test_embedded_check_builds_one_dilation_at_the_largest_norm(monkeypatch):
    """halmos_dilation runs once per check, on c U at the first grid point
    of largest ||c U||_2, the first smallest eigenvalue of I - c^2 U^dag U,
    here an interior one, whichever chunk holds it."""
    h, pair, rho, grid = _unbroken_instance()
    dec = pt_canonical_form(h, pair)
    u = propagator_stack(dec, grid.times)
    cu = uniform_bound(dec) * u
    k = int(np.argmin(np.linalg.eigvalsh(np.eye(2) - cu.conj().swapaxes(-1, -2) @ cu)[:, 0]))
    assert 0 < k < grid.num_points - 1
    calls = []
    build = dilation.halmos_dilation

    def counted(a, c):
        calls.append((np.array(a), c))
        return build(a, c)

    monkeypatch.setattr(dilation, "halmos_dilation", counted)
    for points in (None, 7):
        if points is not None:
            monkeypatch.setattr(dynamics, "GRID_CHUNK_BYTES", points * 16 * 2 ** 2)
        calls.clear()
        rep = embedded_evolution_check(h, pair, rho, grid, decomp=dec)
        assert len(calls) == 1
        assert calls[0][1] == rep.c
        assert np.array_equal(calls[0][0], u[k])
        assert rep.checked_time == grid.times[k]


def test_embedded_check_takes_no_svd_on_the_grid(monkeypatch):
    """The grid pass reads the margin from eigvalsh of I - c^2 U^dag U;
    the one SVD is halmos_dilation's, of one matrix, at the checked point."""
    h, pair, rho, grid = _unbroken_instance()
    dec = pt_canonical_form(h, pair)
    shapes = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    embedded_evolution_check(h, pair, rho, grid, decomp=dec)
    assert shapes and all(len(shape) == 2 for shape in shapes)


def test_embedded_margin_between_the_gates_is_not_psd(monkeypatch):
    # the input of test_halmos_margin_between_the_gates_is_not_psd, as the
    # propagator at every grid point
    rng = np.random.default_rng(89)
    u = _with_singular_values(rng, [np.sqrt(1.0 + 1e-11), 0.7, 0.2])
    h = np.diag([1.0, 2.0, 3.0])
    pair = validate_pt_pair(np.eye(3), np.eye(3))
    dec = pt_canonical_form(h, pair)
    c = uniform_bound(dec)
    monkeypatch.setattr(dilation, "propagator_stack",
                        lambda decomp, t: np.repeat(u[None] / c, len(t), axis=0))
    with pytest.raises(NotPositiveSemidefiniteError, match="below the positive semidefinite floor"):
        embedded_evolution_check(h, pair, np.eye(3) / 3, TimeGrid(0.0, 1.0, 5), decomp=dec)
