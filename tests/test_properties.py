"""Property tests of the identities the eta-inner product rests on.

Hypothesis draws seeds, instance kinds, PT-pair kinds and dimensions up
to 64 for the random-instance samplers, and parameters of the two-level
family. The runs are derandomized and keep no example database, so the
suite is deterministic; tests/conftest.py keeps Hypothesis's other
caches out of the checkout. The frame-covariance test draws its
instances from fixed seeds.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ptqm.bender import BenderParams, bender_eigensystem, bender_hamiltonian
from ptqm.canonical import pt_canonical_form
from ptqm.dilation import embedded_evolution_check
from ptqm.dynamics import TimeGrid, invariant_report, propagator_stack, validate_density
from ptqm.linalg import dagger, operator_norm
from ptqm.metric import build_metric, eta_trace, verify_metric
from ptqm.sampling import random_density, random_instance, random_unitary
from ptqm.symmetry import validate_pt_pair

SETTINGS = settings(max_examples=100, derandomize=True, database=None, deadline=None)

seeds = st.integers(0, 2**32 - 1)
kinds = st.sampled_from(("unbroken", "complex", "ep", "mixed"))
simple_kinds = st.sampled_from(("unbroken", "complex"))
pair_kinds = st.sampled_from(("trivial", "swap", "real_involution", "householder_t"))
dims = st.integers(2, 64)


@SETTINGS
@given(seeds, dims, kinds, pair_kinds)
def test_instance_identities(seed, d, kind, pair_kind):
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, d, kind, pair_kind)
    h, pair = inst["h"], inst["pair"]
    dec = pt_canonical_form(h, pair, cluster_tol=1e-6)
    eta = build_metric(dec).eta
    eta_norm = operator_norm(eta)

    # H^dag eta = eta H
    assert verify_metric(h, eta) <= 1e-9 * eta_norm * max(1.0, operator_norm(h))

    # PT conj(Psi) = Psi K
    k_defect = pair.pt @ np.conj(dec.Psi) - dec.Psi @ dec.K
    assert operator_norm(k_defect) <= 1e-9 * operator_norm(dec.Psi)

    # Tr(eta rho(t)) is conserved
    rho = random_density(rng, d)
    base = eta_trace(rho, eta)
    m = validate_density(rho)
    u = propagator_stack(dec, TimeGrid(0.0, 2.0, 5).times)
    for rho_t in u @ m @ dagger(u):
        drift = abs(eta_trace(rho_t, eta) - base)
        assert drift <= 1e-9 * eta_norm * max(1.0, operator_norm(rho_t))


@SETTINGS
@given(st.floats(0.1, 3.0), st.floats(0.1, 3.0), st.floats(0.0, np.pi),
       st.sampled_from((1.0, -1.0)))
def test_two_level_closed_form_matches_canonical_form(r, s, theta, sign):
    assume(abs(r * np.sin(theta) / s) <= 0.95)
    p = BenderParams(r, sign * s, theta)
    es = bender_eigensystem(p)
    h, pair = bender_hamiltonian(p)
    dec = pt_canonical_form(h, pair)
    assert dec.spectral_class.tag == "Unbroken"
    assert np.allclose(np.diag(dec.J), sorted(es.eigenvalues), atol=1e-9 * (r + s))
    # the canonical basis is an eigenbasis that the closed-form metric
    # makes orthogonal with positive norms
    gram = dec.Psi.conj().T @ es.eta.eta @ dec.Psi
    assert abs(gram[0, 1]) <= 1e-9 * operator_norm(gram)
    assert min(gram[0, 0].real, gram[1, 1].real) > 0.0


# Over 100 examples up to d = 64 the largest deviation reads 3.2e-15 of
# max |R(t)|; rounding in the two solves of R = Psi^-1 rho Psi^-dag is of
# order cond(Psi)^2 eps, below 3e-14 for the samplers' cond(Psi) <= 11.
# 1e-13 stays above both, while a wrong exponent moves an entry by O(1).
SUPERPOSITION_TOL = 1e-13


@SETTINGS
@given(seeds, dims, simple_kinds, pair_kinds)
def test_stationary_superposition_of_simple_spectra(seed, d, kind, pair_kind):
    """|R_ab(t)| = e^{(Im lam_a + Im lam_b) t} |R_ab(0)| for the eta-inner
    product coefficients of a simple spectrum, so every |R_ab| is
    constant when H is unbroken (every Im lam is 0)."""
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, d, kind, pair_kind)
    report = invariant_report(inst["h"], inst["pair"], random_density(rng, d),
                              TimeGrid(0.0, 5.0, 11), cluster_tol=1e-6)
    im = np.asarray(report.decomposition.layout.eigenvalues).imag
    assert kind == "complex" or not im.any()
    r = np.abs(report.coefficient_series)
    expected = np.exp(np.multiply.outer(report.times, im[:, None] + im[None, :])) * r[0]
    scale = r.max(axis=(1, 2), keepdims=True)
    assert np.all(np.abs(r - expected) <= SUPERPOSITION_TOL * scale)


# Over the 16 x 12 draws below (d from 2 to 12), the largest deviations
# between the two frames, in units of eps max(1, ||H||_2) cond(Psi), read
# 17 for the eigenvalues, 52 for |R_ab(t)| (of max |R(t)|), 4 for cond(Psi),
# 11 for eta, 95 for the Tr(eta rho(t)) series (of its largest value), and,
# on unbroken H, 3 for the uniform bound c and 5 for the dilation's success
# probabilities.
# FRAME_TOL stays 100 times above all of them, while a frame-dependent
# choice moves a number by O(1).
FRAME_TOL = 1e4
FRAME_GRID = TimeGrid(0.0, 5.0, 11)


@pytest.mark.parametrize("pair_kind", ["trivial", "swap", "real_involution", "householder_t"])
@pytest.mark.parametrize("kind", ["unbroken", "complex", "ep", "mixed"])
def test_a_change_of_frame_moves_nothing_but_rounding(kind, pair_kind):
    """H' = V H V^dag, P' = V P V^dag and T' = V T V^T, for a unitary V,
    describe the same system in another basis: v -> P'T' conj(v) is V
    (v -> PT conj(v)) V^dag. So the block kinds and orders, the
    eigenvalues, |R_ab(t)| and cond(Psi) must agree, on every kind of
    spectrum, and so must the uniform bound c and the success
    probabilities of the dilation on an unbroken H. Psi' = V Psi D for a diagonal D of unit entries (the phase
    or sign that normalises each chain, read off a frame-dependent
    dominant entry), which leaves every |R_ab| and cond(Psi) unchanged.

    eta' = V eta V^dag and the Tr(eta rho(t)) series are checked on real
    spectra only, where D is a sign per chain and commutes with the sign
    structure S. On a conjugate pair the two phases of D do not cancel in
    S, and today eta depends on the frame: over these draws it moves by
    up to 2.1 times its norm (the mixed draw of seed 10 at d = 3, pair
    trivial).
    """
    for seed in range(12):
        rng = np.random.default_rng([seed, len(kind), len(pair_kind)])
        d = int(rng.integers(2, 13))
        inst = random_instance(rng, d, kind, pair_kind)
        h, pair = inst["h"], inst["pair"]
        v = random_unitary(rng, d)
        rho = random_density(rng, d)
        moved = validate_pt_pair(v @ pair.parity @ dagger(v), v @ pair.time_reversal @ v.T)
        h_moved, rho_moved = v @ h @ dagger(v), v @ rho @ dagger(v)
        a = invariant_report(h, pair, rho, FRAME_GRID, cluster_tol=1e-6)
        b = invariant_report(h_moved, moved, rho_moved, FRAME_GRID, cluster_tol=1e-6)
        da, db = a.decomposition, b.decomposition
        assert [(x.kind, x.order) for x in db.blocks] == [(x.kind, x.order) for x in da.blocks]
        bound = FRAME_TOL * np.finfo(float).eps * max(1.0, da.h_norm) * da.condition_number
        assert np.max(np.abs(db.layout.eigenvalues - da.layout.eigenvalues)) <= bound
        ra, rb = np.abs(a.coefficient_series), np.abs(b.coefficient_series)
        assert np.all(np.abs(rb - ra) <= bound * ra.max(axis=(1, 2), keepdims=True))
        assert abs(db.condition_number - da.condition_number) <= bound * da.condition_number
        if all(x.kind != "ComplexConjugatePair" for x in da.blocks):
            eta = a.metric.eta
            assert operator_norm(v @ eta @ dagger(v) - b.metric.eta) <= bound * operator_norm(eta)
            traces = a.eta_trace_series
            assert np.max(np.abs(b.eta_trace_series - traces)) <= bound * np.max(np.abs(traces))
        if kind == "unbroken":
            ea = embedded_evolution_check(h, pair, rho, FRAME_GRID, decomp=da)
            eb = embedded_evolution_check(h_moved, moved, rho_moved, FRAME_GRID, decomp=db)
            assert abs(eb.c - ea.c) <= bound * ea.c
            assert np.all(np.abs(eb.success_probabilities - ea.success_probabilities) <= bound)
