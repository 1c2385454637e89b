"""Parity/time-reversal pair validation and the antilinear symmetry action."""

import numpy as np
import pytest

from ptqm import symmetry
from ptqm.errors import DimensionError, ValidationError
from ptqm.linalg import operator_norm
from ptqm.sampling import random_pt_pair
from ptqm.symmetry import apply_antilinear, is_pt_symmetric, validate_pt_pair


SX = np.array([[0.0, 1.0], [1.0, 0.0]])


def test_validate_accepts_standard_pairs():
    pair = validate_pt_pair(SX, np.eye(2))
    assert pair.dim == 2
    assert max(pair.residuals.values()) <= 1e-15
    validate_pt_pair(np.eye(3), np.eye(3))
    validate_pt_pair(np.fliplr(np.eye(4)), np.eye(4))


def test_validate_rejects_non_involutions():
    with pytest.raises(ValidationError) as err:
        validate_pt_pair(2.0 * np.eye(2), np.eye(2))
    assert "parity_involution" in str(err.value)
    # antisymmetric real T: T conj(T) = T^2 = -I
    t = np.array([[0.0, 1.0], [-1.0, 0.0]])
    with pytest.raises(ValidationError) as err:
        validate_pt_pair(np.eye(2), t)
    assert "time_reversal_involution" in str(err.value)


def test_validate_rejects_noncommuting_pair():
    # both are valid involutions but P T != T conj(P)
    p = SX
    t = np.diag([1.0j, -1.0j])
    with pytest.raises(ValidationError) as err:
        validate_pt_pair(p, t)
    assert "commutation" in str(err.value)


def test_validate_dimension_mismatch():
    with pytest.raises(ValidationError):
        validate_pt_pair(np.eye(2), np.eye(3))


@pytest.mark.parametrize("kind", ["trivial", "swap", "real_involution", "householder_t"])
def test_random_pairs_are_valid(kind):
    rng = np.random.default_rng(97)
    for d in (2, 3, 5):
        pair = random_pt_pair(rng, d, kind)
        assert pair.dim == d


def test_antilinear_action_is_involutive():
    rng = np.random.default_rng(13)
    for kind in ("swap", "real_involution", "householder_t"):
        pair = random_pt_pair(rng, 4, kind)
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        assert np.linalg.norm(apply_antilinear(pair, apply_antilinear(pair, v)) - v) <= 1e-10


def test_antilinear_action_conjugates_scalars():
    rng = np.random.default_rng(29)
    pair = random_pt_pair(rng, 3, "real_involution")
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    z = 0.7 - 1.9j
    lhs = apply_antilinear(pair, z * v)
    rhs = np.conj(z) * apply_antilinear(pair, v)
    assert np.linalg.norm(lhs - rhs) <= 1e-12


def test_is_pt_symmetric_bender_family():
    pair = validate_pt_pair(SX, np.eye(2))
    th = np.pi / 4
    h = np.array([[np.exp(1j * th), 1.0], [1.0, np.exp(-1j * th)]])
    ok, residual = is_pt_symmetric(h, pair)
    assert ok and residual <= 1e-14


def test_is_pt_symmetric_detects_violation():
    pair = validate_pt_pair(np.eye(2), np.eye(2))
    # H = i sigma_z anticommutes with conjugation: residual is 2|i| = 2
    h = np.diag([1.0j, 1.0j])
    ok, residual = is_pt_symmetric(h, pair)
    assert not ok
    assert abs(residual - 2.0) <= 1e-15


def test_is_pt_symmetric_any_real_matrix_trivial_pair():
    rng = np.random.default_rng(53)
    pair = validate_pt_pair(np.eye(4), np.eye(4))
    h = rng.normal(size=(4, 4))
    ok, residual = is_pt_symmetric(h, pair)
    assert ok and residual == 0.0


_IDENTITIES = ("parity_involution", "time_reversal_involution", "commutation", "pt_involution")


def _exact_residuals(p, t) -> dict:
    """The 2-norms of the four defects, each taken exactly."""
    p = np.asarray(p, dtype=complex)
    t = np.asarray(t, dtype=complex)
    eye = np.eye(len(p))
    pt = p @ t
    norms = operator_norm(np.stack([p @ p - eye, t @ np.conj(t) - eye,
                                    p @ t - t @ np.conj(p), pt @ np.conj(pt) - eye]))
    return dict(zip(_IDENTITIES, norms.tolist()))


def _exact_gate(p, t, val_tol):
    """(message, residuals) of the gate on the exact norms; message is None
    when every defect is within val_tol."""
    residuals = _exact_residuals(p, t)
    violated = [name for name, r in residuals.items() if r > val_tol]
    if not violated:
        return None, residuals
    table = ", ".join(f"{name}: {residuals[name]:.3e}" for name in violated)
    return f"PT pair identities violated ({table})", residuals


def _check_against_exact_gate(p, t, val_tol):
    message, residuals = _exact_gate(p, t, val_tol)
    if message is None:
        assert validate_pt_pair(p, t, val_tol).residuals == residuals
    else:
        with pytest.raises(ValidationError) as err:
            validate_pt_pair(p, t, val_tol)
        assert str(err.value) == message
        assert err.value.residuals == residuals


@pytest.mark.parametrize("kind", ["trivial", "swap", "real_involution", "householder_t"])
@pytest.mark.parametrize("d", [2, 5, 16, 64])
def test_residuals_are_the_exact_norms_when_read(kind, d):
    pair = random_pt_pair(np.random.default_rng(d), d, kind)
    assert pair.residuals == _exact_residuals(pair.parity, pair.time_reversal)


def _planted(delta: float, unit: complex) -> np.ndarray:
    """P = I + unit delta E_01: P^2 - I is 2 unit delta E_01 exactly, a
    rank-1 defect whose Frobenius norm is its 2-norm. With unit = 1j the
    commutation defect P - conj(P) is that matrix too and the pair is
    decided in complex arithmetic; with unit = 1 it is zero and P is real,
    so the pair meets the real screen first."""
    p = np.eye(3, dtype=complex)
    p[0, 1] = unit * delta
    return p


_AT_THE_BOUND = (0.5 * (1 - 1e-15), 0.5, 0.5 * (1 + 1e-15), 1 - 1e-15, 1.0, 1 + 1e-15, 2.0)


@pytest.mark.parametrize("val_tol", [1e-300, 1e-10, 1.0])
@pytest.mark.parametrize("factor", _AT_THE_BOUND)
def test_planted_rank_one_defect_decides_as_the_exact_gate(val_tol, factor):
    _check_against_exact_gate(_planted(0.5 * factor * val_tol, 1j), np.eye(3), val_tol)


@pytest.mark.parametrize("val_tol", [1e-300, 1e-10, 1.0])
@pytest.mark.parametrize("factor", _AT_THE_BOUND)
def test_real_planted_rank_one_defect_decides_as_the_exact_gate(val_tol, factor):
    _check_against_exact_gate(_planted(0.5 * factor * val_tol, 1.0), np.eye(3), val_tol)


def _check_underflowing_defect(unit):
    # entries of 1e-200 square to 0 in floating point; at val_tol 1e-300 they fail the gate
    _check_against_exact_gate(_planted(0.5e-200, unit), np.eye(3), 1e-300)
    with pytest.raises(ValidationError, match="parity_involution: 1.000e-200"):
        validate_pt_pair(_planted(0.5e-200, unit), np.eye(3), 1e-300)


def test_defect_whose_squares_underflow_is_still_caught():
    _check_underflowing_defect(1j)


def test_real_defect_whose_squares_underflow_is_still_caught():
    _check_underflowing_defect(1.0)


@pytest.mark.parametrize("val_tol, real", [(1.0, True), (1e-10, True), (1e-300, False)])
def test_a_real_pair_meets_the_real_screen_where_its_rounding_room_fits(val_tol, real,
                                                                         monkeypatch):
    """A real pair the real screen clears is accepted without the complex
    defects, which norm_within would decide. At val_tol 1e-300 the room
    for rounding, 10 n eps s^2, is above val_tol, so even an exact pair
    takes the complex gate."""
    calls = []
    monkeypatch.setattr(symmetry, "norm_within", lambda *a: calls.append(1) or np.ones(4, bool))
    validate_pt_pair(_planted(0.25 * val_tol, 1.0), np.eye(3), val_tol)
    assert calls == ([] if real else [1])
    validate_pt_pair(np.eye(3), np.exp(1j * np.pi / 3) * np.eye(3), val_tol)
    assert calls == ([1] if real else [1, 1])


@pytest.mark.parametrize("kind", ["trivial", "swap", "real_involution", "householder_t"])
@pytest.mark.parametrize("d", [2, 5, 64, 200])
def test_a_real_pair_keeps_the_complex_product(kind, d):
    """The stored P, T and PT are the complex P, T and P @ T bit for bit,
    whichever arithmetic decided the pair."""
    raw = random_pt_pair(np.random.default_rng(d), d, kind)
    p, t = raw.parity.real, raw.time_reversal.real
    pair = validate_pt_pair(p, t)
    assert pair.parity.dtype == pair.time_reversal.dtype == pair.pt.dtype == complex
    assert np.array_equal(pair.parity, p) and np.array_equal(pair.time_reversal, t)
    complex_pt = p.astype(complex) @ t.astype(complex)
    assert pair.pt.tobytes() == complex_pt.tobytes()


def test_a_complex_pair_is_decided_as_the_exact_gate():
    """T = e^{i pi / 3} I: T conj(T) = I and P T = T conj(P) for a real P."""
    t = np.exp(1j * np.pi / 3) * np.eye(4)
    pair = validate_pt_pair(np.fliplr(np.eye(4)), t)
    assert pair.residuals == _exact_residuals(np.fliplr(np.eye(4)), t)
    _check_against_exact_gate(np.fliplr(np.eye(4)), t, 1e-300)


@pytest.mark.parametrize("kind", ["trivial", "swap", "real_involution", "householder_t"])
def test_valid_pair_runs_no_svd(kind, monkeypatch):
    rng = np.random.default_rng(5)
    raw = [(pair.parity, pair.time_reversal)
           for pair in (random_pt_pair(rng, d, kind) for d in (2, 8, 64))]
    svd = np.linalg.svd
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    pairs = [validate_pt_pair(p, t) for p, t in raw]
    assert not calls
    # the residual table is computed on first access, by one SVD call
    pairs[0].residuals
    pairs[0].residuals
    assert len(calls) == 1


@pytest.mark.parametrize("val_tol", [np.nan, np.inf])
def test_validate_rejects_a_non_finite_tolerance(val_tol):
    """A NaN tolerance would clear every identity: P = diag(2, 1) has P^2 != I."""
    with pytest.raises(ValidationError, match="val_tol must be finite and positive"):
        validate_pt_pair(np.diag([2.0, 1.0]), np.eye(2), val_tol=val_tol)


@pytest.mark.parametrize("v, message", [
    ([1.0, 0.0, 0.0], "vector dimension 3 does not match pair dimension 2"),
    ([1.0], "vector dimension 1 does not match pair dimension 2"),
])
def test_symmetry_input_errors(v, message):
    pair = validate_pt_pair(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2))
    with pytest.raises(DimensionError, match=f"^{message}$"):
        apply_antilinear(pair, v)
