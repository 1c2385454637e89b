"""Two-level exactly solvable family: eigensystem, S0, Stokes, sweeps."""

import dataclasses
import struct

import numpy as np
import pytest

from ptqm.bender import (
    BenderParams,
    SweepRow,
    _alpha,
    bender_classify,
    bender_eigensystem,
    bender_hamiltonian,
    critical_sweep,
    expansion_coefficients,
    s0_eta,
    stokes_vector,
)
from ptqm.canonical import COMPLEX_PAIR, REAL_JORDAN, REAL_SIMPLE, pt_canonical_form
from ptqm.errors import BrokenRegimeError, CriticalPointError, NumericalError, ValidationError
from ptqm.linalg import operator_norm
from ptqm.metric import eta_inner, eta_trace
from ptqm.symmetry import is_pt_symmetric


def test_hamiltonian_construction():
    h, pair = bender_hamiltonian(BenderParams(0.0, 1.0, 0.0))
    assert np.array_equal(h, np.array([[0, 1], [1, 0]], dtype=complex))
    h, _ = bender_hamiltonian(BenderParams(1.0, 0.0, np.pi / 2))
    assert operator_norm(h - np.diag([1.0j, -1.0j])) <= 1e-15
    h, pair = bender_hamiltonian(BenderParams(1.0, 1.0, np.pi / 4))
    ok, residual = is_pt_symmetric(h, pair)
    assert ok and residual <= 1e-14


def test_params_validation():
    with pytest.raises(ValidationError):
        BenderParams(0.0, 0.0, 1.0)
    with pytest.raises(ValidationError):
        BenderParams(-1.0, 1.0, 0.0)
    with pytest.raises(ValidationError):
        BenderParams(1.0, 1.0, 4.0)  # theta outside (-pi, pi]


@pytest.mark.parametrize("r, s, theta", [(np.nan, 1.0, 0.0), (1.0, np.inf, 0.0),
                                         (1.0, 1.0, -np.inf)])
def test_params_reject_non_finite(r, s, theta):
    with pytest.raises(ValidationError, match="^parameters must be finite$"):
        BenderParams(r, s, theta)


def test_classify_three_regimes():
    cls = bender_classify(BenderParams(1.0, 1.0, np.pi / 6))
    assert cls.tag == "Unbroken"
    cls = bender_classify(BenderParams(1.0, 0.5, np.pi / 2))
    assert [b.kind for b in cls.detail] == [COMPLEX_PAIR]
    cls = bender_classify(BenderParams(1.0, 1.0, np.pi / 2))
    assert [(b.kind, b.order) for b in cls.detail] == [(REAL_JORDAN, 2)]


def test_classify_boundary_diagonalizable_subcase():
    # discriminant inside the band but r sin(theta) = 0: two simple blocks
    cls = bender_classify(BenderParams(1.0, 1e-5, 0.0))
    assert [b.kind for b in cls.detail] == [REAL_SIMPLE, REAL_SIMPLE]


def test_classify_agrees_with_discriminant_sign():
    rng = np.random.default_rng(313)
    for _ in range(50):
        r = rng.uniform(0.1, 2.0)
        s = rng.uniform(0.1, 2.0)
        theta = rng.uniform(-np.pi / 2, np.pi / 2)
        p = BenderParams(r, s, theta)
        disc = s * s - r * r * np.sin(theta) ** 2
        band = 1e-8 * max(1.0, r * r, s * s)
        if abs(disc) <= band:
            continue
        cls = bender_classify(p)
        assert cls.unbroken == (disc > 0)


def test_eigensystem_reference_states():
    es = bender_eigensystem(BenderParams(1.0, 1.0, np.pi / 6))
    alpha = es.alpha
    assert abs(np.sin(alpha) - np.sin(np.pi / 6)) <= 1e-12
    expect_plus = np.array([np.exp(1j * alpha / 2), np.exp(-1j * alpha / 2)]) / np.sqrt(2)
    expect_minus = np.array([1j * np.exp(-1j * alpha / 2),
                             -1j * np.exp(1j * alpha / 2)]) / np.sqrt(2)
    assert np.max(np.abs(es.E_plus_raw - expect_plus)) <= 1e-12
    assert np.max(np.abs(es.E_minus_raw - expect_minus)) <= 1e-12
    # eigenvalues r cos(theta) +- s cos(alpha)
    lam_minus, lam_plus = sorted(es.eigenvalues)
    assert abs(lam_plus - (np.cos(np.pi / 6) + np.cos(alpha))) <= 1e-12
    assert abs(lam_minus - (np.cos(np.pi / 6) - np.cos(alpha))) <= 1e-12


def test_eigensystem_eta_closed_form():
    es = bender_eigensystem(BenderParams(1.0, 1.0, np.pi / 6))
    sa, ca = np.sin(es.alpha), np.cos(es.alpha)
    expect = np.array([[1.0, -1j * sa], [1j * sa, 1.0]]) / ca
    assert operator_norm(es.eta.eta - expect) <= 1e-12
    assert es.eta.positive_definite


def test_eigensystem_eta_norms():
    # normalized states have unit eta-norm; the raw states' eta-norm is
    # cos(alpha). At r != s that differs from cos(theta): the instance
    # below has cos(alpha) = sqrt(13)/4 while cos(theta) = 1/2, and the
    # explicitly constructed metric decides in favor of cos(alpha).
    es = bender_eigensystem(BenderParams(0.5, 1.0, np.pi / 3))
    eta = es.eta.eta
    ca = np.cos(es.alpha)
    assert abs(ca - np.sqrt(13.0) / 4.0) <= 1e-12
    assert abs(eta_inner(es.E_plus, es.E_plus, eta) - 1.0) <= 1e-12
    assert abs(eta_inner(es.E_minus, es.E_minus, eta) - 1.0) <= 1e-12
    assert abs(eta_inner(es.E_plus_raw, es.E_plus_raw, eta) - ca) <= 1e-12
    assert abs(eta_inner(es.E_minus_raw, es.E_minus_raw, eta) - ca) <= 1e-12
    # and it is visibly not cos(theta)
    assert abs(eta_inner(es.E_plus_raw, es.E_plus_raw, eta) - 0.5) > 0.4


def test_eigensystem_raw_overlap_is_sin_alpha():
    es = bender_eigensystem(BenderParams(1.0, 1.0, 1.2))
    overlap = np.vdot(es.E_plus_raw, es.E_minus_raw)
    assert abs(abs(overlap) - abs(np.sin(es.alpha))) <= 1e-12


def test_eigensystem_rejects_broken_and_critical():
    with pytest.raises(BrokenRegimeError):
        bender_eigensystem(BenderParams(2.0, 1.0, np.pi / 2))
    with pytest.raises(CriticalPointError):
        bender_eigensystem(BenderParams(1.0, 1.0, np.pi / 2))
    with pytest.raises(ValidationError):
        bender_eigensystem(BenderParams(1.0, 0.0, 0.1))


def test_expansion_coefficients_reference_values():
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    c1, c2 = expansion_coefficients(inv_sqrt2, inv_sqrt2, 0.0)
    assert abs(c1 - 1.0) <= 1e-12 and abs(c2) <= 1e-12
    c1, c2 = expansion_coefficients(1j * inv_sqrt2, -1j * inv_sqrt2, 0.0)
    assert abs(c1) <= 1e-12 and abs(c2 - 1.0) <= 1e-12
    c1, c2 = expansion_coefficients(1.0, 0.0, np.pi / 3)
    assert abs(abs(c1) ** 2 - 1.0) <= 1e-12
    assert abs(abs(c2) ** 2 - 1.0) <= 1e-12


def test_expansion_coefficients_reconstruct_state():
    rng = np.random.default_rng(421)
    es = bender_eigensystem(BenderParams(1.0, 1.0, np.pi / 5))
    for _ in range(10):
        x, y = rng.normal(size=2) + 1j * rng.normal(size=2)
        c1, c2 = expansion_coefficients(x, y, es.alpha)
        back = c1 * es.E_plus + c2 * es.E_minus
        assert np.max(np.abs(back - np.array([x, y]))) <= 1e-10


def test_s0_closed_form_and_divergence():
    assert abs(s0_eta(0.6, 0.8j, 0.0) - 1.0) <= 1e-12
    assert abs(s0_eta(1.0, 0.0, np.pi / 3) - 2.0) <= 1e-12
    # the total intensity diverges at the critical point
    assert s0_eta(1.0, 0.0, np.pi / 2 - 1e-4) > 1e4
    with pytest.raises(CriticalPointError):
        s0_eta(1.0, 0.0, np.pi / 2 - 1e-9)


def test_s0_matches_coefficient_route():
    rng = np.random.default_rng(97)
    for _ in range(200):
        x, y = rng.normal(size=2) + 1j * rng.normal(size=2)
        alpha = rng.uniform(0.0, np.pi / 2 - 0.05)
        c1, c2 = expansion_coefficients(x, y, alpha)
        assert abs(s0_eta(x, y, alpha) - (abs(c1) ** 2 + abs(c2) ** 2)) <= 1e-10


def test_eta_trace_ties_to_s0():
    # Tr(eta |xi><xi|) computed against the closed-form metric equals the
    # closed-form total intensity of the expansion coefficients
    es = bender_eigensystem(BenderParams(1.0, 1.0, np.pi / 6))
    xi = np.array([0.8, 0.6j])
    rho = np.outer(xi, xi.conj())
    lhs = eta_trace(rho, es.eta.eta)
    rhs = s0_eta(xi[0], xi[1], es.alpha)
    assert abs(lhs - rhs) <= 1e-9


def test_broken_bridge_eta_trace_is_cross_sum():
    # broken family member: Tr(eta rho) contracts the anti-diagonal
    h, pair = bender_hamiltonian(BenderParams(1.0, 0.5, np.pi / 2))
    dec = pt_canonical_form(h, pair)
    from ptqm.metric import basis_coefficients, build_metric
    met = build_metric(dec)
    rng = np.random.default_rng(31)
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v /= np.linalg.norm(v)
    rho = np.outer(v, v.conj())
    coef = basis_coefficients(rho, dec)
    lhs = eta_trace(rho, met.eta)
    assert abs(lhs - (coef[0, 1] + coef[1, 0])) <= 1e-10
    # for a pure state this is b1 conj(b2) + b2 conj(b1)
    b = np.linalg.solve(dec.Psi, v)
    assert abs(lhs - (b[0] * np.conj(b[1]) + b[1] * np.conj(b[0]))) <= 1e-10


def test_stokes_reference_values():
    sv = stokes_vector(1.0, 0.0)
    assert (sv.S0, sv.S1, sv.S2, sv.S3) == (1.0, 1.0, 0.0, 0.0)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    sv = stokes_vector(inv_sqrt2, inv_sqrt2)
    assert abs(sv.S0 - 1.0) <= 1e-12 and abs(sv.S2 - 1.0) <= 1e-12
    assert abs(sv.S1) <= 1e-12 and abs(sv.S3) <= 1e-12
    sv = stokes_vector(inv_sqrt2, 1j * inv_sqrt2)
    assert abs(sv.S3 - 1.0) <= 1e-12


@pytest.mark.parametrize("ex, ey", [(complex(np.nan, 0.0), 1.0), (1.0, complex(0.0, np.inf))])
def test_stokes_rejects_non_finite_fields(ex, ey):
    with pytest.raises(ValidationError, match="^field components must be finite$"):
        stokes_vector(ex, ey)


def test_stokes_pure_field_identity():
    rng = np.random.default_rng(211)
    for _ in range(50):
        ex, ey = rng.normal(size=2) + 1j * rng.normal(size=2)
        sv = stokes_vector(ex, ey)
        assert abs(sv.S0 ** 2 - (sv.S1 ** 2 + sv.S2 ** 2 + sv.S3 ** 2)) <= 1e-10


@pytest.mark.parametrize("ex, ey", [(3e154 - 1.2e155j, 7e154 + 4e154j),
                                    (1.2e154, 1.2e154j), (1.5e308 + 1.5e308j, 1.0)])
def test_stokes_overflow_raises_numerical_error(ex, ey):
    with pytest.raises(NumericalError, match="floating-point range"):
        stokes_vector(ex, ey)


@pytest.mark.parametrize("r, s, probe", [(1e200, 1e200, (1.0, 0.0)), (1e200, 1.0, (1.0, 0.0)),
                                         (2.0, 1.0, (1e200, 0.0)),
                                         (2.0, 1.0, (1.2e154, 1.2e154))])
def test_sweep_overflow_raises_numerical_error(r, s, probe):
    with pytest.raises(NumericalError, match="floating-point range"):
        critical_sweep(r, s, [0.1], probe)


def test_sweep_crosses_the_critical_point():
    grid = np.linspace(np.pi / 2 - 0.2, np.pi / 2 + 0.2, 41)
    rows = critical_sweep(1.0, 1.0, grid)
    labels = {row.classification for row in rows}
    assert "Unbroken" in labels and REAL_JORDAN in labels
    mid = rows[20]
    assert mid.classification == REAL_JORDAN
    assert mid.error == "critical_point"
    # S0 cos(alpha) stays 1 for the (1, 0) probe on unbroken rows
    for row in rows:
        if row.error is None:
            assert abs(row.s0_cos_alpha - 1.0) <= 1e-10
    # overlap tends to 1 approaching the critical point
    assert rows[19].overlap > 0.99
    assert rows[0].overlap < rows[10].overlap < rows[19].overlap
    # total intensity grows without bound toward the critical row
    unbroken_s0 = [row.s0 for row in rows if row.s0 is not None]
    assert max(unbroken_s0) > 1e2


def test_sweep_three_class_transition():
    # with s < r the discriminant changes sign and all three block
    # kinds appear along the sweep
    zero = np.arcsin(0.8)
    grid = np.sort(np.concatenate([np.linspace(0.6, 1.2, 31), [zero]]))
    rows = critical_sweep(1.0, 0.8, grid)
    labels = [row.classification for row in rows]
    assert labels[0] == "Unbroken"
    assert labels[-1] == COMPLEX_PAIR
    assert REAL_JORDAN in labels
    order = [labels.index("Unbroken"), labels.index(REAL_JORDAN),
             labels.index(COMPLEX_PAIR)]
    assert order == sorted(order)


def test_sweep_broken_regime_rows():
    rows = critical_sweep(2.0, 1.0, np.linspace(0.0, np.pi / 2, 21))
    errors = {row.error for row in rows}
    assert "broken_regime" in errors
    for row in rows:
        if row.error == "broken_regime":
            assert row.s0 is None and row.alpha is None


def sweep_error_matches_eigensystem(r, s, theta):
    (row,) = critical_sweep(r, s, [theta])
    try:
        bender_eigensystem(BenderParams(r, s, theta))
    except (BrokenRegimeError, CriticalPointError) as exc:
        assert row.error == exc.kind
    else:
        assert row.error is None


def test_sweep_labels_the_exceptional_point_as_the_eigensystem_does():
    # r sin(theta) / s rounds to 1.0000000000000002 at theta = arcsin(s)
    s = 0.24870435217608805
    theta = float(np.arcsin(s))
    assert 1.0 < np.sin(theta) / s <= 1.0 + 1e-14
    (row,) = critical_sweep(1.0, s, [theta])
    assert (row.classification, row.error) == (REAL_JORDAN, "critical_point")
    with pytest.raises(CriticalPointError):
        bender_eigensystem(BenderParams(1.0, s, theta))


def test_sweep_and_eigensystem_agree_at_sampled_exceptional_points():
    rng = np.random.default_rng(11)
    for s in rng.uniform(0.05, 0.95, 200):
        theta = float(np.arcsin(s))
        for t in (np.nextafter(theta, 0.0), theta, np.nextafter(theta, 2.0)):
            sweep_error_matches_eigensystem(1.0, float(s), float(t))


def test_sweep_requires_nonzero_coupling():
    with pytest.raises(ValidationError):
        critical_sweep(1.0, 0.0, [0.1, 0.2])


def reference_sweep(r, s, theta_grid, probe=(1.0, 0.0), crit_tol=1e-6, tol=1e-8):
    """critical_sweep evaluated row by row through the one-point functions."""
    if s == 0:
        raise ValidationError("sweep requires s != 0")
    x_probe, y_probe = complex(probe[0]), complex(probe[1])
    rows = []
    for theta in sorted(float(t) for t in np.asarray(theta_grid, dtype=float)):
        p = BenderParams(r=r, s=s, theta=theta)
        cls = bender_classify(p, tol)
        label = "Unbroken" if cls.unbroken else cls.detail[0].kind
        try:
            alpha = _alpha(p)
        except BrokenRegimeError as exc:
            rows.append(SweepRow(theta, label, None, None, None, None, exc.kind))
            continue
        overlap = float(abs(np.sin(alpha)))
        ca = float(np.cos(alpha))
        if ca <= crit_tol:
            rows.append(SweepRow(theta, label, alpha, None, None, overlap,
                                 CriticalPointError.kind))
            continue
        s0 = s0_eta(x_probe, y_probe, alpha, crit_tol)
        rows.append(SweepRow(theta, label, alpha, s0, s0 * ca, overlap, None))
    return rows


def sweep_outcome(sweep, *args):
    """The rows with every float as its bytes (so -0.0 is not 0.0), or the
    type and message of the exception raised."""
    try:
        rows = sweep(*args)
    except Exception as exc:  # the outcome compared is the exception itself
        return type(exc), str(exc)
    return [tuple(struct.pack("<d", v) if isinstance(v, float) else v
                  for v in dataclasses.astuple(row)) for row in rows]


def assert_sweep_matches_reference(*args):
    expected = sweep_outcome(reference_sweep, *args)
    assert sweep_outcome(critical_sweep, *args) == expected


def test_sweep_matches_row_by_row_reference_bitwise():
    rng = np.random.default_rng(2024)
    kinds = set()
    for _ in range(300):
        r, s = rng.uniform(0.0, 3.0), rng.uniform(-3.0, 3.0)
        probe = tuple(complex(*rng.standard_normal(2)) for _ in range(2))
        grid = rng.uniform(-np.pi, np.pi, 40)
        # duplicates, both zeros and the right end of (-pi, pi]
        grid = np.concatenate([grid, grid[:5], [0.0, -0.0, 0.0, np.pi]])
        if abs(s) <= r:  # the four critical angles and their neighbours
            a = float(np.arcsin(s / r))
            for c in (a, -a, np.pi - a, a - np.pi):
                grid = np.concatenate([grid, [np.nextafter(c, -4.0), c, np.nextafter(c, 4.0)]])
        grid = grid[(-np.pi < grid) & (grid <= np.pi)]
        rng.shuffle(grid)
        crit_tol, tol = rng.choice([1e-6, 1e-2]), rng.choice([1e-8, 1e-3, 0.0])
        assert_sweep_matches_reference(r, s, grid, probe, crit_tol, tol)
        kinds.update((row.classification, row.error) for row in critical_sweep(
            r, s, grid, probe, crit_tol, tol))
    assert {("Unbroken", None), ("Unbroken", "critical_point"), (COMPLEX_PAIR, "broken_regime"),
            (REAL_JORDAN, "critical_point")} <= kinds


def test_sweep_squares_as_the_one_point_classification_does():
    """With tol = 0 and s = r sin(theta) the discriminant is zero, and the
    point a Jordan block, only if r sin(theta) is squared as s is; at this
    s, s * s is a last bit away from s ** 2."""
    s, theta = 0.1910733115682393, 0.19225548808677728
    assert np.sin(theta) == s and s ** 2 != s * s
    assert_sweep_matches_reference(1.0, s, [theta, theta], (1.0, 0.0), 1e-6, 0.0)
    assert critical_sweep(1.0, s, [theta], tol=0.0)[0].classification == REAL_JORDAN


@pytest.mark.parametrize("r, s, grid, probe", [
    (1.0, 0.8, [0.1, np.nan, 0.2], (1.0, 0.0)),
    (1.0, 0.8, [np.inf, 0.1], (1.0, 0.0)),
    (1.0, 0.8, [0.1, 4.0, -0.2], (1.0, 0.0)),
    (1.0, 0.8, [-np.pi, 0.1], (1.0, 0.0)),
    (-1.0, 0.8, [0.1, 0.2], (1.0, 0.0)),
    (-1.0, 0.8, [np.nan, 0.1], (1.0, 0.0)),
    (0.0, 0.0, [0.1], (1.0, 0.0)),
    (np.nan, 0.8, [0.1], (1.0, 0.0)),
    (1e200, 1.0, [0.1, 0.2], (1.0, 0.0)),
    (1.0, 1e200, [0.1], (1.0, 0.0)),
    (1.0, 0.8, [0.1, 0.2], (1e200, 0.0)),
    # |x|^2 = 1.44e308 fits; divided by cos(alpha) = 0.71 at theta = 0.6 it does not
    (1.0, 0.8, [0.1, 0.6], (1.2e154, 0.0)),
    # an S0 overflow at an earlier row comes before an invalid theta
    (1.0, 0.8, [0.6, 5.0], (1.2e154, 0.0)),
    (1.0, 0.8, [0.1, 5.0], (1.2e154, 0.0)),
    (1.0, 0.8, [1.5, 0.1, 5.0], (1e200, 0.0)),
    # a broken row reaches no S0, so the invalid theta raises
    (1.0, 0.8, [1.5, 5.0], (1e200, 0.0)),
    # r sin(theta) / s overflows: a broken row, so the invalid theta raises
    (1e10, 1e-300, [0.5, 5.0], (1.0, 0.0)),
])
def test_sweep_errors_match_row_by_row_reference(r, s, grid, probe):
    expected = sweep_outcome(reference_sweep, r, s, grid, probe)
    assert isinstance(expected, tuple)
    assert sweep_outcome(critical_sweep, r, s, grid, probe) == expected


def test_sweep_overflowing_ratio_is_broken_in_every_error_state():
    """A ratio r sin(theta) / s past the float range is far past 1: the row
    is broken, in the sweep as in the one-point functions, whatever
    numpy's error state (here warnings are errors)."""
    assert_sweep_matches_reference(1e10, 1e-300, [0.0, 0.5, -0.5], (1.0, 0.0))
    rows = critical_sweep(1e10, 1e-300, [-1.0, 0.0, 1.0])
    assert [row.error for row in rows] == ["broken_regime", None, "broken_regime"]
    for state in ("ignore", "raise"):
        with np.errstate(over=state):
            assert critical_sweep(1e10, 1e-300, [-1.0, 0.0, 1.0]) == rows
            with pytest.raises(BrokenRegimeError, match="inf > 1"):
                _alpha(BenderParams(1e10, 1e-300, 0.5))


def test_sweep_of_an_empty_grid_checks_only_s():
    assert critical_sweep(-1.0, 0.8, []) == []
    assert critical_sweep(np.nan, 0.8, np.array([])) == []
    with pytest.raises(ValidationError, match="^sweep requires s != 0$"):
        critical_sweep(1.0, 0.0, [])


@pytest.mark.parametrize("grid", [np.array([[0.1, 0.2], [0.3, 0.4]]), np.array([[0.1]]), 0.5])
def test_sweep_rejects_a_grid_that_is_not_one_dimensional(grid):
    with pytest.raises(ValidationError, match="^theta grid must be one-dimensional$"):
        critical_sweep(1.0, 0.8, grid)


@pytest.mark.parametrize("tol", [-1e-3, -np.inf, np.nan])
def test_negative_or_nan_tol_is_rejected(tol):
    p = BenderParams(r=1.0, s=0.8, theta=0.927)  # 0 < disc < 1e-3
    with pytest.raises(ValidationError, match=r"^tol must be >= 0, got "):
        bender_classify(p, tol)
    with pytest.raises(ValidationError, match=r"^tol must be >= 0, got "):
        critical_sweep(1.0, 0.8, [0.927, 0.5], tol=tol)


def test_zero_tol_is_accepted():
    p = BenderParams(r=1.0, s=0.8, theta=0.927)
    assert bender_classify(p, 0.0) == bender_classify(p, -0.0)
    assert critical_sweep(1.0, 0.8, [0.927], tol=0.0) == critical_sweep(1.0, 0.8, [0.927], tol=-0.0)


@pytest.mark.parametrize("crit_tol", [np.nan, np.inf, 0.0, -1e-6])
def test_s0_and_coefficients_reject_a_crit_tol_that_is_not_finite_and_positive(crit_tol):
    """A NaN crit_tol used to let S0 at the critical point through as 1.6e16."""
    with pytest.raises(ValidationError, match=r"^crit_tol must be finite and positive, got "):
        s0_eta(1.0, 0.0, np.pi / 2, crit_tol=crit_tol)
    with pytest.raises(ValidationError, match=r"^crit_tol must be finite and positive, got "):
        expansion_coefficients(1.0, 0.0, np.pi / 2, crit_tol=crit_tol)


@pytest.mark.parametrize("crit_tol", [np.nan, np.inf, 0.0, -1e-6])
def test_sweep_rejects_a_crit_tol_that_is_not_finite_and_positive(crit_tol):
    """A NaN crit_tol used to give the critical row no critical_point error."""
    with pytest.raises(ValidationError, match=r"^crit_tol must be finite and positive, got "):
        critical_sweep(1.0, 0.5, [np.arcsin(0.5)], crit_tol=crit_tol)


@pytest.mark.parametrize("crit_tol", [np.nan, np.inf, 0.0, -1e-6])
def test_eigensystem_rejects_a_crit_tol_that_is_not_finite_and_positive(crit_tol):
    """A NaN crit_tol used to reach the decomposition at the critical point."""
    with pytest.raises(ValidationError, match=r"^crit_tol must be finite and positive, got "):
        bender_eigensystem(BenderParams(1.0, 1.0, np.pi / 2), crit_tol=crit_tol)


@pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf])
def test_bender_input_errors(alpha):
    with pytest.raises(ValidationError, match="^alpha must be finite$"):
        expansion_coefficients(1.0, 0.0, alpha)
    with pytest.raises(ValidationError, match="^alpha must be finite$"):
        s0_eta(1.0, 0.0, alpha)
