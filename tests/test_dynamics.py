"""Evolution under e^{-itH} and case-resolved conservation laws."""

import re
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.linalg as sla

from ptqm.canonical import pt_canonical_form
from ptqm.dynamics import (
    MAX_GRID_POINTS,
    TimeGrid,
    default_grid,
    evolve_density,
    invariant_report,
    normalize_density,
    propagator,
    propagator_stack,
    validate_density,
)
from ptqm.errors import (DimensionError, InvalidDensityError, NumericalError, PreconditionError,
                         ValidationError)
from ptqm.linalg import matrix_exponential, operator_norm
from ptqm.matio import load_matrix_file
from ptqm.metric import basis_coefficients
from ptqm.sampling import random_density, random_instance
from ptqm.symmetry import validate_pt_pair


SX = np.array([[0.0, 1.0], [1.0, 0.0]])


def bender(r, s, theta):
    h = np.array([[r * np.exp(1j * theta), s], [s, r * np.exp(-1j * theta)]])
    return h, validate_pt_pair(SX, np.eye(2))


RHO = np.array([[0.6, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]])


def test_time_grid_validation():
    grid = TimeGrid(0.0, 10.0, 201)
    assert len(grid.times) == 201
    assert grid.times[0] == 0.0 and grid.times[-1] == 10.0
    assert len(TimeGrid(2.5, 2.5, 1).times) == 1
    with pytest.raises(ValidationError):
        TimeGrid(0.0, 10.0, 0)
    with pytest.raises(ValidationError):
        TimeGrid(1.0, 0.0, 5)
    with pytest.raises(ValidationError, match="^t_end must not precede t_start$"):
        TimeGrid(1.0, 0.0, 1)
    assert TimeGrid(1.0, 1.0, 1).times.tolist() == [1.0]
    for n in (np.int64(3), np.uint8(3)):
        assert TimeGrid(0.0, 1.0, n).times.tolist() == [0.0, 0.5, 1.0]
    g = default_grid()
    assert (g.t_start, g.t_end, g.num_points) == (0.0, 10.0, 201)


@pytest.mark.parametrize("t_start, t_end", [(np.nan, 1.0), (0.0, np.inf), (-np.inf, 0.0)])
def test_time_grid_rejects_non_finite_endpoints(t_start, t_end):
    with pytest.raises(ValidationError, match="^grid endpoints must be finite$"):
        TimeGrid(t_start, t_end, 5)


def test_time_grid_size_cap_allocates_nothing():
    # the grid's times are drawn only on access, so these build no array
    assert TimeGrid(0.0, 1.0, MAX_GRID_POINTS).num_points == MAX_GRID_POINTS
    for n in (MAX_GRID_POINTS + 1, int("9" * 400)):
        with pytest.raises(ValidationError,
                           match=f"^num_points must be at most {MAX_GRID_POINTS}$"):
            TimeGrid(0.0, 1.0, n)


@pytest.mark.parametrize("num_points", [2.5, float("nan"), 5.0, np.float64(5.0), True,
                                        np.True_, "5", None])
def test_time_grid_rejects_a_num_points_that_is_not_an_integer(num_points):
    with pytest.raises(ValidationError, match="^num_points must be an integer$"):
        TimeGrid(0.0, 1.0, num_points)


@pytest.mark.parametrize("times", [1.0, [[0.0, 1.0]], np.zeros((2, 1)), np.zeros((0, 3))])
def test_propagator_stack_rejects_times_that_are_not_one_dimensional(times):
    dec = pt_canonical_form(*bender(1.0, 1.0, np.pi / 6))
    message = f"times must be one-dimensional, got shape {np.shape(times)}"
    with pytest.raises(DimensionError, match=f"^{re.escape(message)}$"):
        propagator_stack(dec, times)
    assert propagator_stack(dec, []).shape == (0, 2, 2)


def test_propagator_identity_at_zero():
    h, _ = bender(1.0, 1.0, np.pi / 6)
    assert operator_norm(propagator(h, 0.0) - np.eye(2)) <= 1e-15


def test_propagator_unitary_for_hermitian():
    rng = np.random.default_rng(61)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    h = (a + a.conj().T) / 2
    u = propagator(h, 2.7)
    assert operator_norm(u.conj().T @ u - np.eye(3)) <= 1e-10


def test_propagator_jordan_block_closed_form():
    # e^{-it(aI + N)} = e^{-ita} (I - itN) for a single order-2 block
    a, t = 1.0, 2.0
    h = np.array([[a, 1.0], [0.0, a]])
    expected = np.exp(-1j * t * a) * np.array([[1.0, -1j * t], [0.0, 1.0]])
    assert operator_norm(propagator(h, t) - expected) <= 1e-12


def test_propagator_decomposed_route_matches_dense():
    rng = np.random.default_rng(137)
    for kind in ("unbroken", "complex", "ep"):
        inst = random_instance(rng, 4, kind)
        dec = pt_canonical_form(inst["h"], inst["pair"], cluster_tol=1e-6)
        for t in (0.0, 0.8, 3.1):
            u_dense = propagator(inst["h"], t)
            u_block = propagator_stack(dec, [t])[0]
            scale = max(1.0, operator_norm(u_dense))
            assert operator_norm(u_dense - u_block) <= 1e-9 * scale


def _exact_exponential(h: np.ndarray, z: complex) -> np.ndarray:
    """exp(z H) from mpmath at 40 significant digits, rounded to complex128."""
    with mpmath.workdps(40):
        e = mpmath.expm(mpmath.matrix(h.tolist()) * mpmath.mpc(z))
        return np.array([[complex(e[i, j]) for j in range(e.cols)] for i in range(e.rows)])


@pytest.mark.parametrize("case", ["unbroken", "complex", "ep"])
@pytest.mark.parametrize("d", [2, 4])
def test_dense_exponential_matches_closed_form_as_scipy_does(case, d):
    """The numpy exponential of -itH on the golden inputs against a
    40-digit mpmath.expm, relative 2-norm error: at most 1e-11, and at
    most 4 times scipy.linalg.expm's. The canonical form's closed-form
    propagator is no reference here: at an exceptional point it is no
    closer to the exact value than either exponential, and it moves
    whenever the decomposition does."""
    h = load_matrix_file(Path(__file__).with_name("golden") / "inputs" / f"h_{case}{d}.json")
    for time in (0.5, 3.0, 30.0, 300.0):
        ref = _exact_exponential(h, -1j * time)
        scale = operator_norm(ref)
        ours = operator_norm(matrix_exponential(h, -1j * time) - ref) / scale
        theirs = operator_norm(sla.expm(-1j * time * h) - ref) / scale
        assert ours <= 1e-11 and ours <= 4.0 * theirs, (time, ours, theirs)


def test_validate_density_rejections():
    with pytest.raises(InvalidDensityError):
        validate_density(np.array([[0.6, 0.3], [0.2, 0.4]]))  # not Hermitian
    with pytest.raises(InvalidDensityError):
        validate_density(np.diag([1.5, -0.5]))  # negative weight
    with pytest.raises(InvalidDensityError):
        validate_density(np.diag([0.7, 0.7]))  # trace 1.4


def test_evolve_density_basics():
    h, _ = bender(1.0, 1.0, np.pi / 6)
    assert operator_norm(evolve_density(RHO, h, 0.0) - RHO) <= 1e-15
    # Hermitian generator preserves the trace
    hh = np.array([[1.0, 0.3], [0.3, -1.0]])
    out = evolve_density(RHO, hh, 3.0)
    assert abs(np.trace(out) - 1.0) <= 1e-12


def test_evolve_density_group_property():
    h, _ = bender(1.0, 0.5, np.pi / 2)
    one = evolve_density(evolve_density(RHO, h, 1.3), h, 2.1, val_tol=np.inf)
    two = evolve_density(RHO, h, 3.4)
    assert operator_norm(one - two) <= 1e-9


def test_evolve_density_not_renormalized():
    # broken case: the trace is allowed to drift, by design
    h, _ = bender(1.0, 0.5, np.pi / 2)
    out = evolve_density(RHO, h, 4.0)
    assert abs(np.trace(out) - 1.0) > 0.1
    norm = normalize_density(out)
    assert abs(np.trace(norm) - 1.0) <= 1e-12


def test_normalize_density_rejects_vanishing_trace():
    with pytest.raises(PreconditionError):
        normalize_density(np.zeros((2, 2), dtype=complex))


def test_invariants_unbroken_case():
    h, pair = bender(1.0, 1.0, np.pi / 6)
    rep = invariant_report(h, pair, RHO)
    assert rep.case_tag.tag == "Unbroken"
    assert rep.drift["R_1_1"] <= 1e-8
    assert rep.drift["R_2_2"] <= 1e-8
    assert rep.drift["eta_trace"] <= 1e-8
    assert not rep.overflow_risk
    # off-diagonal rotates by the eigenvalue gap
    dec = rep.decomposition
    lam = np.diag(dec.J)
    r0 = rep.coefficient_series[0]
    for k, t in enumerate(rep.times):
        expect = np.exp(1j * t * (lam[1] - lam[0]).conj()) * r0[0, 1]
        assert abs(rep.coefficient_series[k][0, 1] - expect) <= 1e-8


def test_invariants_complex_pair_case():
    h, pair = bender(1.0, 0.5, np.pi / 2)
    rep = invariant_report(h, pair, RHO)
    assert rep.case_tag.tag == "Broken"
    assert rep.drift["R_1_2"] <= 1e-8
    assert rep.drift["R_2_1"] <= 1e-8
    assert rep.drift["eta_trace"] <= 1e-8
    # diagonals grow/decay like e^{+-2 t Im(lam)}
    b = np.sqrt(0.75)
    r0 = rep.coefficient_series[0]
    for k in (50, 100, 200):
        t = rep.times[k]
        grown = rep.coefficient_series[k][0, 0]
        expect = np.exp(2 * b * t) * r0[0, 0]
        assert abs(grown - expect) <= 1e-6 * abs(expect)


def test_invariants_jordan_case():
    h, pair = bender(1.0, 1.0, np.pi / 2)
    dec = pt_canonical_form(h, pair)
    psi2 = dec.Psi[:, 1] / np.linalg.norm(dec.Psi[:, 1])
    rho = np.outer(psi2, psi2.conj())
    rho /= np.trace(rho).real
    rep = invariant_report(h, pair, rho)
    assert rep.drift["R_1_2+R_2_1"] <= 1e-8
    assert rep.drift["eta_trace"] <= 1e-8
    # R_12 drifts linearly: |R_12(t) - R_12(0)| = |t R_22(0)|
    r0 = basis_coefficients(rho, rep.decomposition)
    for k in (40, 120, 200):
        t = rep.times[k]
        delta = rep.coefficient_series[k][0, 1] - rep.coefficient_series[0][0, 1]
        assert abs(abs(delta) - abs(t * r0[1, 1])) <= 1e-6 * abs(t * r0[1, 1])


def test_invariants_overflow_flag():
    # a large real shift pushes t ||H|| past the overflow exponent while
    # the complex pair keeps the case broken; drift is then measured on
    # the capped window only
    h, pair = bender(1.0, 0.5, np.pi / 2)
    h = h + 10.0 * np.eye(2)
    rep = invariant_report(h, pair, RHO)
    assert rep.overflow_risk
    assert rep.t_cap is not None and rep.t_cap < 10.0
    assert rep.drift["eta_trace"] <= 1e-8
    assert rep.drift["R_1_2"] <= 1e-8


def test_invariants_drift_is_measured_from_the_first_usable_point():
    """On a grid that starts beyond t_cap, the reference of every drift is
    the first point within t_cap, not a point where rounding has grown."""
    h, pair = bender(1.0, 0.5, np.pi / 2)
    h = h + 10.0 * np.eye(2)
    rep = invariant_report(h, pair, RHO, TimeGrid(-20.0, 2.0, 12))
    usable = np.abs(rep.times) <= rep.t_cap
    assert rep.overflow_risk and not usable[0] and usable.any()
    kept = rep.eta_trace_series[usable]
    assert rep.drift["eta_trace"] == np.max(np.abs(kept - kept[0]))
    assert rep.drift["eta_trace"] <= 1e-8
    assert rep.drift["R_1_2"] <= 1e-8


def test_invariants_drift_keys_follow_the_column_order():
    """The --summary JSON renders the drift in insertion order: eta_trace,
    then R_a_b row by row over the order-1 columns whose eigenvalues
    satisfy lam_a = conj(lam_b), then the anti-diagonal sum of every
    unit of order above 1."""
    # columns: a pair -1 +- 0.4i (1, 2), reals -0.3, 0.4, 1.1 (3-5), a
    # Jordan block at 2.0 (6, 7) and a real 3.0 after it (8)
    jordan = np.diag([-1.0, -1.0, -0.3, 0.4, 1.1, 2.0, 2.0, 3.0])
    jordan[0, 1], jordan[1, 0], jordan[5, 6] = 0.4, -0.4, 1.0
    rng = np.random.default_rng(8)
    o1, o2 = (np.linalg.qr(rng.normal(size=(8, 8)))[0] for _ in range(2))
    v = (o1 * rng.uniform(1.0, 2.0, 8)) @ o2
    h = v @ jordan @ np.linalg.inv(v)
    rep = invariant_report(h, validate_pt_pair(np.eye(8), np.eye(8)), random_density(rng, 8),
                           cluster_tol=1e-6)
    assert [b.order for b in rep.decomposition.blocks] == [1, 1, 1, 1, 2, 1]
    assert list(rep.drift) == ["eta_trace", "R_1_2", "R_2_1", "R_3_3", "R_4_4", "R_5_5",
                               "R_8_8", "R_6_7+R_7_6"]
    assert all(value <= 1e-8 for value in rep.drift.values())


def test_invariants_grid_beyond_t_cap_is_precondition():
    h, pair = bender(1.0, 0.5, np.pi / 2)
    h = h + 10.0 * np.eye(2)
    with pytest.raises(PreconditionError, match=r"^no grid point lies within t_cap = 2\.84"):
        invariant_report(h, pair, RHO, TimeGrid(-6.0, -3.0, 4))


def test_invariants_random_conservation():
    rng = np.random.default_rng(211)
    for _ in range(5):
        d = int(rng.integers(2, 6))
        inst = random_instance(rng, d, "mixed")
        ct = 1e-6 if inst["kind"] == "ep" else None
        rho = random_density(rng, d)
        rep = invariant_report(inst["h"], inst["pair"], rho, cluster_tol=ct)
        assert rep.drift["eta_trace"] <= 1e-8
        for key, val in rep.drift.items():
            assert val <= 1e-8, (key, val)


def test_invariants_single_point_grid():
    h, pair = bender(1.0, 1.0, np.pi / 6)
    rep = invariant_report(h, pair, RHO, TimeGrid(0.0, 0.0, 1))
    assert len(rep.times) == 1
    assert all(v == 0.0 for v in rep.drift.values())


def test_validate_density_rejects_a_nan_tolerance():
    """A NaN tolerance used to pass a matrix that is not even Hermitian."""
    with pytest.raises(ValidationError, match="^tol must be positive, got nan"):
        validate_density(np.array([[2.0, 5.0], [0.0, -1.0]]), tol=np.nan)


def test_invariants_series_too_large_for_memory_is_numerical(monkeypatch):
    """An allocation of the coefficient series that fails is named, with
    its size, as a NumericalError, not left as a MemoryError."""
    h = np.array([[1.0, 0.5], [0.5, 1.0]])
    pair = validate_pt_pair(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2))
    empty = np.empty

    def failing(shape, *args, **kwargs):
        if shape == (7, 2, 2):
            raise MemoryError
        return empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", failing)
    with pytest.raises(NumericalError, match="^the coefficient series of 7 points at d = 2 "
                                             "does not fit in memory$"):
        invariant_report(h, pair, np.eye(2) / 2, TimeGrid(0.0, 1.0, 7))
