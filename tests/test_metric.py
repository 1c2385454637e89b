"""Metric operator construction, eta inner products, sign characteristics."""

import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptqm import metric
from ptqm.canonical import REAL_SIMPLE, BlockDescriptor, CanonicalDecomposition, pt_canonical_form
from ptqm.errors import DimensionError, NumericalError, SingularMatrixError, ValidationError
from ptqm.linalg import BlockLayout, operator_norm
from ptqm.metric import (
    RECON_TOL,
    SignCharacteristic,
    basis_coefficients,
    build_metric,
    eta_inner,
    eta_trace,
    is_positive_definite,
    structure_matrix,
    verify_metric,
)
from ptqm.sampling import random_density, random_instance
from ptqm.symmetry import validate_pt_pair
from test_linalg import layout_units


SX = np.array([[0.0, 1.0], [1.0, 0.0]])


def bender(r, s, theta):
    h = np.array([[r * np.exp(1j * theta), s], [s, r * np.exp(-1j * theta)]])
    return h, validate_pt_pair(SX, np.eye(2))


def test_verify_metric_pins_operator_norm():
    # eta = I fails to intertwine diag(i, -i); the defect has norm 2
    assert verify_metric(np.diag([1.0j, -1.0j]), np.eye(2)) == 2.0
    # Hermitian H: the identity is always a valid metric
    assert verify_metric(np.array([[1.0, 2.0], [2.0, -1.0]]), np.eye(2)) == 0.0


def test_structure_matrix_shapes():
    h, pair = bender(1.0, 0.5, np.pi / 2)
    dec = pt_canonical_form(h, pair)
    s = structure_matrix(dec, SignCharacteristic(()))
    assert np.array_equal(s, np.array([[0, 1], [1, 0]], dtype=complex))
    h, pair = bender(1.0, 1.0, np.pi / 6)
    dec = pt_canonical_form(h, pair)
    s = structure_matrix(dec, SignCharacteristic((1, -1)))
    assert np.array_equal(s, np.diag([1.0, -1.0]).astype(complex))


def loop_structure_matrix(layout, epsilons):
    """The unit-by-unit assembly structure_matrix replaced."""
    d = layout.eigenvalues.shape[0]
    s = np.zeros((d, d), dtype=complex)
    eps = iter(epsilons)
    for (offset, span), paired in zip(layout.units, layout.paired):
        cols = np.arange(offset, offset + span)
        s[cols, cols[::-1]] = 1 if paired else next(eps)
    return s


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(layout_units, st.randoms(use_true_random=False))
def test_structure_matrix_matches_the_loop_assembly_bitwise(units, random):
    layout = BlockLayout.from_units(units)
    signs = SignCharacteristic(tuple(random.choice((1, -1)) for _ in range(layout.n_real)))
    decomp = SimpleNamespace(layout=layout, dim=layout.eigenvalues.shape[0])
    got = structure_matrix(decomp, signs)
    assert got.tobytes() == loop_structure_matrix(layout, signs.epsilons).tobytes()


@pytest.mark.parametrize("epsilons", [(1,), (1, 1, -1)])
def test_structure_matrix_needs_one_sign_per_real_unit(epsilons):
    h, pair = bender(1.0, 1.0, np.pi / 6)
    with pytest.raises(ValidationError, match="^sign characteristic has .* 2 real blocks$"):
        structure_matrix(pt_canonical_form(h, pair), SignCharacteristic(epsilons))


def test_metric_intertwines_unbroken():
    h, pair = bender(1.0, 1.0, np.pi / 6)
    dec = pt_canonical_form(h, pair)
    met = build_metric(dec)
    assert met.positive_definite
    assert verify_metric(h, met.eta) <= 1e-10 * operator_norm(met.eta)
    # Hermitian and invertible
    assert operator_norm(met.eta - met.eta.conj().T) <= 1e-14


def test_metric_inner_table_unbroken():
    h, pair = bender(1.0, 1.0, np.pi / 6)
    dec = pt_canonical_form(h, pair)
    met = build_metric(dec)
    psi1, psi2 = dec.Psi[:, 0], dec.Psi[:, 1]
    assert abs(eta_inner(psi1, psi1, met.eta) - 1.0) <= 1e-12
    assert abs(eta_inner(psi2, psi2, met.eta) - 1.0) <= 1e-12
    assert abs(eta_inner(psi1, psi2, met.eta)) <= 1e-12


def test_metric_inner_table_broken_and_jordan():
    for r, s, theta in [(1.0, 0.5, np.pi / 2), (1.0, 1.0, np.pi / 2)]:
        h, pair = bender(r, s, theta)
        dec = pt_canonical_form(h, pair)
        met = build_metric(dec)
        assert not met.positive_definite
        psi1, psi2 = dec.Psi[:, 0], dec.Psi[:, 1]
        # self-orthogonal basis vectors, unit cross pairing
        assert abs(eta_inner(psi1, psi1, met.eta)) <= 1e-12
        assert abs(eta_inner(psi2, psi2, met.eta)) <= 1e-12
        assert abs(abs(eta_inner(psi1, psi2, met.eta)) - 1.0) <= 1e-12


def test_metric_jordan_inertia():
    h, pair = bender(1.0, 1.0, np.pi / 2)
    met = build_metric(pt_canonical_form(h, pair))
    evals = np.linalg.eigvalsh(met.eta)
    assert (evals < 0).sum() == 1 and (evals > 0).sum() == 1


def test_metric_sign_characteristic_flips_definiteness():
    h, pair = bender(1.0, 1.0, np.pi / 6)
    dec = pt_canonical_form(h, pair)
    met = build_metric(dec, SignCharacteristic((-1, -1)))
    assert not met.positive_definite
    # still a valid metric for H
    assert verify_metric(h, met.eta) <= 1e-10 * operator_norm(met.eta)
    mixed = build_metric(dec, SignCharacteristic((1, -1)))
    evals = np.linalg.eigvalsh(mixed.eta)
    assert (evals < 0).sum() == 1 and (evals > 0).sum() == 1


def test_metric_sign_count_must_match_real_blocks():
    h, pair = bender(1.0, 1.0, np.pi / 6)
    dec = pt_canonical_form(h, pair)
    with pytest.raises(ValidationError):
        build_metric(dec, SignCharacteristic((1,)))
    with pytest.raises(ValidationError):
        SignCharacteristic((1, 2))


def test_positivity_iff_unbroken_random():
    rng = np.random.default_rng(71)
    for _ in range(25):
        d = int(rng.integers(2, 7))
        inst = random_instance(rng, d, "mixed")
        ct = 1e-6 if inst["kind"] == "ep" else None
        dec = pt_canonical_form(inst["h"], inst["pair"], cluster_tol=ct)
        met = build_metric(dec)
        assert is_positive_definite(met) == dec.spectral_class.unbroken
        scale = max(1.0, operator_norm(inst["h"])) * operator_norm(met.eta)
        assert verify_metric(inst["h"], met.eta) <= 1e-8 * scale


def test_eta_trace_matches_inner_for_pure_states():
    rng = np.random.default_rng(83)
    h, pair = bender(1.0, 1.0, np.pi / 6)
    met = build_metric(pt_canonical_form(h, pair))
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v /= np.linalg.norm(v)
    rho = np.outer(v, v.conj())
    assert abs(eta_trace(rho, met.eta) - eta_inner(v, v, met.eta)) <= 1e-12


def test_basis_coefficients_reconstruction():
    rng = np.random.default_rng(37)
    inst = random_instance(rng, 4, "unbroken")
    dec = pt_canonical_form(inst["h"], inst["pair"])
    rho = random_density(rng, 4)
    coef = basis_coefficients(rho, dec)
    back = dec.Psi @ coef @ dec.Psi.conj().T
    assert operator_norm(back - rho) <= 1e-10
    # Hermitian coefficient matrix for Hermitian input
    assert operator_norm(coef - coef.conj().T) <= 1e-10 * operator_norm(coef)


def _plant_identity_defect(monkeypatch, eps):
    """Make basis_coefficients' solve return R + Psi^-1 (eps I) Psi^-dag, so
    that its reconstruction misses rho by eps I, one eps per stack entry."""
    solve = metric.congruence_solve

    def planted(c, x, name):
        shift = np.asarray(eps)[..., None, None] * np.eye(c.shape[0])
        return solve(c, x, name) + solve(c, shift, name)

    monkeypatch.setattr(metric, "congruence_solve", planted)


def test_reconstruction_gate_passes_beyond_the_frobenius_screen(monkeypatch):
    # at d=4 the defect eps I has Frobenius norm 2 eps: above the screen's
    # floor RECON_TOL, while its 2-norm eps stays within the exact gate
    rng = np.random.default_rng(61)
    inst = random_instance(rng, 4, "unbroken")
    dec = pt_canonical_form(inst["h"], inst["pair"])
    rho = random_density(rng, 4)
    assert operator_norm(rho) <= 1.0
    eps = 0.6 * RECON_TOL
    _plant_identity_defect(monkeypatch, eps)
    coef = basis_coefficients(rho, dec)
    back = dec.Psi @ coef @ dec.Psi.conj().T
    assert np.linalg.norm(back - rho) > RECON_TOL
    assert abs(operator_norm(back - rho) - eps) <= 1e-3 * eps


def test_reconstruction_gate_names_first_failing_exact_defect(monkeypatch):
    # entry 0 lies inside the band only the exact norm clears; entries 1
    # and 2 lie above the bound, and the error carries the 2-norm of entry 1
    rng = np.random.default_rng(67)
    inst = random_instance(rng, 4, "unbroken")
    dec = pt_canonical_form(inst["h"], inst["pair"])
    rhos = np.stack([random_density(rng, 4) for _ in range(3)])
    eps = np.array([0.6, 1.1, 5.0]) * RECON_TOL
    _plant_identity_defect(monkeypatch, eps)
    with pytest.raises(NumericalError, match="^coefficient reconstruction defect ") as info:
        basis_coefficients(rhos, dec)
    reported = float(re.search(r"defect (\S+)$", str(info.value)).group(1))
    assert abs(reported - eps[1]) <= 1e-3 * eps[1]


def test_eta_trace_equals_structure_weighted_coefficients():
    # Tr(eta rho) = Tr(S R): reversal pattern contracts the coefficients
    rng = np.random.default_rng(59)
    inst = random_instance(rng, 4, "complex")
    dec = pt_canonical_form(inst["h"], inst["pair"])
    met = build_metric(dec)
    rho = random_density(rng, 4)
    coef = basis_coefficients(rho, dec)
    s = structure_matrix(dec, met.signs)
    lhs = eta_trace(rho, met.eta)
    rhs = np.trace(s @ coef)
    assert abs(lhs - rhs) <= 1e-10


def test_metric_rejects_near_singular_basis():
    # weakly coupled near-defective pair: eta condition ~ 1e14
    pair = validate_pt_pair(np.eye(2), np.eye(2))
    h = np.array([[0.0, 1.0], [1e-14, 0.0]])
    dec = pt_canonical_form(h, pair)
    with pytest.raises(SingularMatrixError):
        build_metric(dec)


@pytest.mark.parametrize("met_tol", [np.nan, np.inf])
def test_build_metric_rejects_a_non_finite_tolerance(met_tol):
    """A NaN met_tol used to switch the intertwining gate off."""
    h, pair = bender(1.0, 1.0, np.pi / 6)
    with pytest.raises(ValidationError, match="met_tol must be finite and positive"):
        build_metric(pt_canonical_form(h, pair), met_tol=met_tol)


def _ill_conditioned():
    """H = diag(1, 2), P = T = I, in the basis Psi = diag(1, 1e-15): both
    residuals are exactly 0, so the record passes its gate, and its
    condition number is 1e15."""
    blocks = tuple(BlockDescriptor(REAL_SIMPLE, complex(x), 1) for x in (1.0, 2.0))
    return CanonicalDecomposition(np.diag([1.0, 2.0]), 2.0, np.eye(2), np.diag([1.0, 1e-15]),
                                  blocks)


@pytest.mark.parametrize("call, kind, message", [
    (lambda dec: verify_metric(np.eye(2), np.eye(3)), DimensionError,
     r"H and eta dimensions differ: \(2, 2\) vs \(3, 3\)"),
    (lambda dec: eta_inner([1.0, 0.0, 0.0], [1.0, 0.0], np.eye(2)), DimensionError,
     "vector dimensions do not match eta"),
    (lambda dec: eta_inner([1.0, 0.0], [1.0, 0.0, 0.0], np.eye(2)), DimensionError,
     "vector dimensions do not match eta"),
    (lambda dec: eta_trace(np.eye(3) / 3.0, np.eye(2)), DimensionError,
     r"rho and eta dimensions differ: \(3, 3\) vs \(2, 2\)"),
    (lambda dec: basis_coefficients(np.eye(3) / 3.0, dec), DimensionError,
     r"rho dimension \(3, 3\) does not match basis \(2, 2\)"),
    (lambda dec: build_metric(_ill_conditioned()),
     SingularMatrixError, "Psi is numerically singular"),
    (lambda dec: build_metric(_ill_conditioned(), SignCharacteristic(epsilons=(1,))),
     ValidationError, "sign characteristic has 1 entries, decomposition has 2 real blocks"),
])
def test_metric_input_errors(call, kind, message):
    """A bad sign vector is reported before a singular Psi."""
    h, pair = bender(1.0, 1.0, np.pi / 6)
    with pytest.raises(kind, match=f"^{message}$"):
        call(pt_canonical_form(h, pair))
