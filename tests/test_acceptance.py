"""Acceptance suite: ten numbered criteria, one verdict line each."""

import numpy as np

from ptqm.bender import BenderParams, bender_hamiltonian, expansion_coefficients, s0_eta
from ptqm.canonical import classify_spectrum, pt_canonical_form
from ptqm.dilation import embedded_evolution_check, uniform_bound
from ptqm.dynamics import TimeGrid, propagator_stack, validate_density
from ptqm.linalg import dagger, eigen_decompose, matrix_exponential, operator_norm
from ptqm.metric import build_metric, eta_inner, eta_trace
from ptqm.sampling import random_density, random_instance
from ptqm.superposition import free_basis, is_free_kraus, verify_free_evolution
from ptqm.symmetry import validate_pt_pair

GRID = TimeGrid(0.0, 10.0, 201)
KINDS = ("unbroken", "complex", "ep", "mixed")


def bender(r, s, theta):
    return bender_hamiltonian(BenderParams(r, s, theta))


def _verdict(n: int, label: str, ok: bool) -> None:
    print(f"[{n}/10] {label}: {'PASS' if ok else 'FAIL'}")
    assert ok


def _decompose(inst):
    return pt_canonical_form(inst["h"], inst["pair"], cluster_tol=1e-6)


def test_criterion_01_eta_inner_tables():
    rng = np.random.default_rng(1001)
    worst_unbroken = 0.0
    for _ in range(50):
        inst = random_instance(rng, 2, "unbroken")
        dec = _decompose(inst)
        eta = build_metric(dec).eta
        table = np.array([[eta_inner(dec.Psi[:, i], dec.Psi[:, j], eta)
                           for j in range(2)] for i in range(2)])
        worst_unbroken = max(worst_unbroken,
                             float(np.max(np.abs(table - np.eye(2)))))
    worst_other = 0.0
    cross = np.array([[0.0, 1.0], [1.0, 0.0]])
    for kind in ("complex", "ep"):
        for _ in range(25):
            inst = random_instance(rng, 2, kind)
            dec = _decompose(inst)
            eta = build_metric(dec).eta
            table = np.array([[eta_inner(dec.Psi[:, i], dec.Psi[:, j], eta)
                               for j in range(2)] for i in range(2)])
            worst_other = max(worst_other,
                              float(np.max(np.abs(table - cross))))
    _verdict(1, "eta inner tables", worst_unbroken <= 1e-9 and worst_other <= 1e-9)


def test_criterion_02_universal_conservation():
    rng = np.random.default_rng(1002)
    worst = 0.0
    for i in range(200):
        d = int(rng.integers(2, 7))
        inst = random_instance(rng, d, KINDS[i % 4])
        dec = _decompose(inst)
        eta = build_metric(dec).eta
        rho = random_density(rng, d)
        base = eta_trace(rho, eta)
        m = validate_density(rho)
        u = propagator_stack(dec, GRID.times)
        for rho_t in u @ m @ dagger(u):
            worst = max(worst, abs(eta_trace(rho_t, eta) - base))
    _verdict(2, "universal conservation", worst <= 1e-8)


def test_criterion_03_case_invariants():
    from ptqm.dynamics import invariant_report

    rho = np.array([[0.6, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]])
    ok = True

    h, pair = bender(1.0, 0.8, np.pi / 2)
    rep = invariant_report(h, pair, rho, GRID)
    ok &= rep.drift["R_1_2"] <= 1e-8 and rep.drift["R_2_1"] <= 1e-8
    ok &= rep.t_cap is None or rep.t_cap >= 10.0

    h, pair = bender(1.0, 1.0, np.pi / 2)
    rep = invariant_report(h, pair, rho, GRID)
    ok &= rep.drift["R_1_2+R_2_1"] <= 1e-8
    r12 = rep.coefficient_series[:, 0, 1]
    r22_0 = rep.coefficient_series[0, 1, 1]
    for k in range(1, len(rep.times)):
        expect = abs(rep.times[k] * r22_0)
        ok &= abs(abs(r12[k] - r12[0]) - expect) <= 1e-6 * expect

    h, pair = bender(1.0, 1.0, np.pi / 6)
    rep = invariant_report(h, pair, rho, GRID)
    ok &= rep.drift["R_1_1"] <= 1e-8 and rep.drift["R_2_2"] <= 1e-8

    _verdict(3, "case invariants", bool(ok))


def test_criterion_04_classification_boundary():
    pair = validate_pt_pair(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2))
    mismatches = 0
    for theta in np.linspace(0.0, np.pi, 2001):
        if abs(theta - np.pi / 2) <= 1e-8:
            continue
        h, _ = bender(1.0, 1.0, theta)
        cls = classify_spectrum(h, pair)
        disc = 1.0 - np.sin(theta) ** 2
        mismatches += int(cls.unbroken != (disc > 0))
    _verdict(4, "classification boundary", mismatches == 0)


def test_criterion_05_positivity_iff_unbroken():
    rng = np.random.default_rng(1005)
    exceptions = 0
    for i in range(200):
        d = int(rng.integers(2, 7))
        inst = random_instance(rng, d, KINDS[i % 4])
        dec = _decompose(inst)
        met = build_metric(dec)
        exceptions += int(met.positive_definite != dec.spectral_class.unbroken)
    _verdict(5, "positivity iff unbroken", exceptions == 0)


def test_criterion_06_s0_formula():
    rng = np.random.default_rng(1006)
    worst = 0.0
    for _ in range(1000):
        x, y = rng.normal(size=2) + 1j * rng.normal(size=2)
        alpha = rng.uniform(0.0, np.pi / 2 - 0.05)
        c1, c2 = expansion_coefficients(x, y, alpha)
        worst = max(worst, abs(s0_eta(x, y, alpha) - (abs(c1) ** 2 + abs(c2) ** 2)))
    probe_ok = abs(s0_eta(1.0, 0.0, np.pi / 3) - 2.0) <= 1e-12
    diverges = s0_eta(1.0, 0.0, np.pi / 2 - 1e-4) > 1e4
    _verdict(6, "S0 formula", worst <= 1e-10 and probe_ok and diverges)


def test_criterion_07_canonical_residuals():
    rng = np.random.default_rng(1007)
    ok = True
    for i in range(200):
        d = int(rng.integers(2, 7))
        inst = random_instance(rng, d, KINDS[i % 4])
        h, pair = inst["h"], inst["pair"]
        dec = _decompose(inst)
        sim = operator_norm(np.linalg.solve(dec.Psi, h @ dec.Psi) - dec.J)
        kres = operator_norm(pair.pt @ np.conj(dec.Psi) - dec.Psi @ dec.K)
        ok &= sim <= 1e-8 * operator_norm(h)
        ok &= kres <= 1e-8 * operator_norm(dec.Psi)
    _verdict(7, "canonical residuals", bool(ok))


def test_criterion_08_dilation():
    rng = np.random.default_rng(1008)
    worst_unit = 0.0
    worst_dev = 0.0
    grid = TimeGrid(0.0, 10.0, 101)
    for _ in range(50):
        d = int(rng.integers(2, 5))
        inst = random_instance(rng, d, "unbroken")
        rho = random_density(rng, d)
        rep = embedded_evolution_check(inst["h"], inst["pair"], rho, grid)
        worst_unit = max(worst_unit, rep.unitarity_residual)
        worst_dev = max(worst_dev, rep.max_deviation)
    _verdict(8, "dilation", worst_unit <= 1e-9 and worst_dev <= 1e-8)


def test_criterion_09_free_operation():
    rng = np.random.default_rng(1009)
    ok = True
    grid = TimeGrid(0.0, 10.0, 101)
    for _ in range(50):
        d = int(rng.integers(2, 5))
        inst = random_instance(rng, d, "unbroken")
        c = uniform_bound(pt_canonical_form(inst["h"], inst["pair"]))
        rep = verify_free_evolution(inst["h"], inst["pair"], c, grid)
        ok &= rep.ok
    mixer = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    basis = free_basis([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
    ok &= not is_free_kraus(mixer, basis)
    _verdict(9, "free operation", bool(ok))


def _taylor_expm(a: np.ndarray, terms: int = 60) -> np.ndarray:
    out = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, terms + 1):
        term = term @ a / k
        out = out + term
    return out


def test_criterion_10_oracle_equivalence():
    rng = np.random.default_rng(1010)
    worst_exp = 0.0
    worst_rec = 0.0
    for i in range(20):
        d = int(rng.integers(2, 9))
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        target = 5.0 if i == 0 else rng.uniform(0.5, 5.0)
        a = a * (target / operator_norm(a))
        worst_exp = max(worst_exp,
                        operator_norm(matrix_exponential(a) - _taylor_expm(a)))
        es = eigen_decompose(a)
        psi, j = es.assemble()
        worst_rec = max(worst_rec,
                        operator_norm(a @ psi - psi @ j) / operator_norm(a))
    _verdict(10, "oracle equivalence", worst_exp <= 1e-9 and worst_rec <= 1e-8)
