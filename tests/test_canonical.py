"""Spectral classification and the structured canonical form (Psi, J, K)."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from ptqm.canonical import (
    COMPLEX_PAIR,
    REAL_JORDAN,
    REAL_SIMPLE,
    BlockDescriptor,
    SpectralClass,
    classify_spectrum,
    pt_canonical_form,
)
from ptqm.errors import IllConditionedError, NotPTSymmetricError, NumericalError, ValidationError
from ptqm.linalg import operator_norm
from ptqm.matio import load_matrix_file
from ptqm.sampling import random_instance, random_pt_pair
from ptqm.symmetry import apply_antilinear, validate_pt_pair

INPUTS = Path(__file__).with_name("golden") / "inputs"
SX = np.array([[0.0, 1.0], [1.0, 0.0]])


def bender(r, s, theta):
    h = np.array([[r * np.exp(1j * theta), s], [s, r * np.exp(-1j * theta)]])
    return h, validate_pt_pair(SX, np.eye(2))


def test_classify_unbroken_two_level():
    h, pair = bender(1.0, 1.0, np.pi / 6)
    cls = classify_spectrum(h, pair)
    assert cls.tag == "Unbroken" and cls.unbroken
    assert [b.kind for b in cls.detail] == [REAL_SIMPLE, REAL_SIMPLE]
    # eigenvalues r cos(theta) +- s cos(alpha) with alpha = theta here
    lams = sorted(b.eigenvalue.real for b in cls.detail)
    assert abs(lams[0] - 0.0) <= 1e-12
    assert abs(lams[1] - np.sqrt(3.0)) <= 1e-12


def test_classify_broken_complex_pair():
    h, pair = bender(1.0, 0.5, np.pi / 2)
    cls = classify_spectrum(h, pair)
    assert cls.tag == "Broken"
    assert [b.kind for b in cls.detail] == [COMPLEX_PAIR]
    b = cls.detail[0]
    assert b.order == 1
    assert b.eigenvalue.imag > 0  # the Im > 0 member labels the pair
    assert abs(b.eigenvalue - 1j * np.sqrt(0.75)) <= 1e-12


def test_classify_jordan_block_at_the_boundary():
    h, pair = bender(1.0, 1.0, np.pi / 2)
    cls = classify_spectrum(h, pair)
    assert cls.tag == "Broken"
    assert [(b.kind, b.order) for b in cls.detail] == [(REAL_JORDAN, 2)]
    assert abs(cls.detail[0].eigenvalue) <= 1e-12


def test_classify_identity_is_unbroken():
    pair = validate_pt_pair(np.eye(3), np.eye(3))
    cls = classify_spectrum(np.eye(3), pair)
    assert cls.tag == "Unbroken"
    assert all(b.kind == REAL_SIMPLE for b in cls.detail)


def test_classify_rejects_non_pt_symmetric():
    pair = validate_pt_pair(np.eye(2), np.eye(2))
    with pytest.raises(NotPTSymmetricError):
        classify_spectrum(np.diag([1.0j, 1.0j]), pair)


def test_canonical_form_residuals_two_level():
    for r, s, theta in [(1.0, 1.0, np.pi / 6), (1.0, 0.5, np.pi / 2),
                        (1.0, 1.0, np.pi / 2), (0.3, -1.2, 2.0)]:
        h, pair = bender(r, s, theta)
        dec = pt_canonical_form(h, pair)
        h_scale = max(1.0, operator_norm(h))
        p_scale = max(1.0, operator_norm(dec.Psi))
        sim = operator_norm(np.linalg.solve(dec.Psi, h @ dec.Psi) - dec.J)
        krel = operator_norm(pair.pt @ np.conj(dec.Psi) - dec.Psi @ dec.K)
        assert sim <= 1e-8 * h_scale
        assert krel <= 1e-8 * p_scale


def test_canonical_k_matrix_is_exact():
    h, pair = bender(1.0, 0.5, np.pi / 2)
    dec = pt_canonical_form(h, pair)
    # complex pair: K is the order-2 swap, entries exactly 0/1
    assert np.array_equal(dec.K, np.array([[0, 1], [1, 0]], dtype=complex))
    h, pair = bender(1.0, 1.0, np.pi / 6)
    dec = pt_canonical_form(h, pair)
    assert np.array_equal(dec.K, np.eye(2, dtype=complex))


@pytest.mark.parametrize("block, j, k", [
    (BlockDescriptor(COMPLEX_PAIR, 0.5 + 1j, 1), np.diag([0.5 + 1j, 0.5 - 1j]), [[0, 1], [1, 0]]),
    (BlockDescriptor(REAL_JORDAN, 0.5 + 0j, 2), [[0.5, 1], [0, 0.5]], np.eye(2)),
])
def test_blocks_are_the_one_record_of_the_structure(block, j, k):
    """layout, spectral_class, J and K are read off blocks: none of them
    can be replaced on its own, and replacing blocks moves all four."""
    dec = pt_canonical_form(*bender(1.0, 1.0, np.pi / 6))
    for name in ("J", "K", "layout", "spectral_class"):
        with pytest.raises(TypeError):
            dataclasses.replace(dec, **{name: getattr(dec, name)})
    moved = dataclasses.replace(dec, blocks=(block,))
    assert moved.spectral_class == SpectralClass("Broken", (block,))
    assert np.array_equal(moved.layout.eigenvalues, np.diag(j))
    assert np.array_equal(moved.J, j) and np.array_equal(moved.K, k)
    assert dec.spectral_class.unbroken and np.array_equal(dec.K, np.eye(2))


def test_canonical_block_ordering():
    # two complex pairs and two real eigenvalues in one instance
    rng = np.random.default_rng(101)
    inst = random_instance(rng, 6, "complex")
    dec = pt_canonical_form(inst["h"], inst["pair"])
    kinds = [b.kind for b in dec.blocks]
    # all pair units precede all real units
    if COMPLEX_PAIR in kinds:
        last_pair = max(i for i, k in enumerate(kinds) if k == COMPLEX_PAIR)
        first_real = min((i for i, k in enumerate(kinds) if k != COMPLEX_PAIR),
                         default=len(kinds))
        assert last_pair < first_real
    # ascending real parts within each family
    pair_res = [b.eigenvalue.real for b in dec.blocks if b.kind == COMPLEX_PAIR]
    real_res = [b.eigenvalue.real for b in dec.blocks if b.kind != COMPLEX_PAIR]
    assert pair_res == sorted(pair_res)
    assert real_res == sorted(real_res)
    # inside a pair unit the Im > 0 column block leads
    col = 0
    for b in dec.blocks:
        if b.kind == COMPLEX_PAIR:
            assert dec.J[col, col].imag > 0
            assert dec.J[col + b.order, col + b.order].imag < 0
            col += 2 * b.order
        else:
            col += b.order


def test_canonical_random_instances_match_planted_structure():
    rng = np.random.default_rng(7)
    for _ in range(12):
        d = int(rng.integers(2, 7))
        inst = random_instance(rng, d, "mixed")
        ct = 1e-6 if inst["kind"] == "ep" else None
        dec = pt_canonical_form(inst["h"], inst["pair"], cluster_tol=ct)
        kinds = {b.kind for b in dec.blocks}
        if inst["kind"] == "unbroken":
            assert dec.spectral_class.tag == "Unbroken"
        elif inst["kind"] == "complex":
            assert COMPLEX_PAIR in kinds
        else:
            assert REAL_JORDAN in kinds
        # J reproduces the planted block diagonal up to ordering
        assert np.allclose(np.sort_complex(np.diag(dec.J)),
                           np.sort_complex(np.diag(inst["j0"])), atol=1e-6)


def test_canonical_theta_fixed_columns_for_real_blocks():
    rng = np.random.default_rng(19)
    inst = random_instance(rng, 4, "unbroken", pair_kind="real_involution")
    dec = pt_canonical_form(inst["h"], inst["pair"])
    for i in range(4):
        v = dec.Psi[:, i]
        w = apply_antilinear(inst["pair"], v)
        assert np.linalg.norm(w - v) <= 1e-9


def test_canonical_order_three_chain():
    # order-3 nilpotent structure survives the float similarity, with a
    # cluster tolerance above the cube-root eigenvalue splitting
    rng = np.random.default_rng(3)
    d = 4
    pair = validate_pt_pair(np.eye(d), np.eye(d))
    j0 = np.zeros((d, d), dtype=complex)
    j0[0, 0] = j0[1, 1] = j0[2, 2] = 1.0
    j0[0, 1] = j0[1, 2] = 1.0
    j0[3, 3] = -0.5
    while True:
        w = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        cols = [w[:, i] + apply_antilinear(pair, w[:, i]) for i in range(d)]
        psi0 = np.column_stack(cols)
        psi0 /= np.linalg.norm(psi0, axis=0)
        sv = np.linalg.svd(psi0, compute_uv=False)
        if sv[0] / sv[-1] <= 20:
            break
    h = np.linalg.solve(psi0.T, (psi0 @ j0).T).T
    dec = pt_canonical_form(h, pair, cluster_tol=1e-4)
    assert sorted((b.kind, b.order) for b in dec.blocks) == [
        (REAL_JORDAN, 3), (REAL_SIMPLE, 1)]
    sim = operator_norm(np.linalg.solve(dec.Psi, h @ dec.Psi) - dec.J)
    assert sim <= 1e-8 * max(1.0, operator_norm(h))


def test_canonical_rejects_dimension_mismatch():
    pair = validate_pt_pair(np.eye(3), np.eye(3))
    with pytest.raises(ValidationError):
        pt_canonical_form(np.eye(2), pair)


def test_canonical_warns_on_ill_conditioned_psi():
    # eigenvalues 1 and 2 with eigenvectors (1, 0) and (1, 1e-9): far apart
    # at a tight clustering tolerance, but Psi is nearly singular
    pair = validate_pt_pair(np.eye(2), np.eye(2))
    dec = pt_canonical_form(np.array([[1.0, 1e9], [0.0, 2.0]]), pair, cluster_tol=1e-12)
    assert dec.spectral_class.unbroken
    assert dec.condition_number > 1e8
    assert dec.warning == (f"Psi condition number {dec.condition_number:.3e}; "
                           "results may lose accuracy")


def test_canonical_rejects_an_eigenvalue_without_conjugate_partner():
    # the two-level EP plus 1e-9 i in one corner: PT-symmetric within
    # tol, with eigenvalues +-e^{i pi/4} sqrt(1e-9) whose conjugates,
    # 4.5e-5 away, are no eigenvalues
    h = np.array([[1j, 1.0 + 1e-9j], [1.0, -1j]])
    pair = validate_pt_pair(SX, np.eye(2))
    with pytest.raises(IllConditionedError, match="has no conjugate partner cluster"):
        pt_canonical_form(h, pair)


def test_canonical_rejects_conjugate_clusters_of_different_multiplicity():
    # J_2(1 + i) + J_2(1 - i), swapped by P, with 1e-9 below the first
    # block's diagonal: PT-symmetric within tol, the first block splits
    # into two eigenvalues 6.3e-5 apart, beyond the clustering tolerance
    # 2e-5, each 3.2e-5 from the mirror of the double eigenvalue 1 - i
    lam = 1.0 + 1.0j
    h = np.zeros((4, 4), dtype=complex)
    h[:2, :2] = [[lam, 1.0], [1e-9, lam]]
    h[2:, 2:] = [[np.conj(lam), 1.0], [0.0, np.conj(lam)]]
    swap = np.roll(np.eye(4), 2, axis=0)
    pair = validate_pt_pair(swap, np.eye(4))
    with pytest.raises(IllConditionedError,
                       match="conjugate clusters have different algebraic multiplicities"):
        pt_canonical_form(h, pair, cluster_tol=1e-5)


def test_canonical_output_is_deterministic():
    h, pair = bender(1.0, 1.0, np.pi / 6)
    d1 = pt_canonical_form(h, pair)
    d2 = pt_canonical_form(h, pair)
    assert np.array_equal(d1.Psi, d2.Psi)
    assert np.array_equal(d1.J, d2.J)


@pytest.mark.parametrize("scale", [1e155, 1e158])
def test_overflowing_jordan_chain_raises_numerical_error(scale):
    # the chain vectors and block powers of an EP Hamiltonian grow like
    # ||H||^k; warnings fail the suite, so none may escape either
    h, p, t = (load_matrix_file(INPUTS / f"{name}_ep2.json") for name in "hpt")
    with pytest.raises(NumericalError, match="floating-point range"):
        pt_canonical_form(h * scale, validate_pt_pair(p, t), cluster_tol=1e-6)


@pytest.mark.parametrize("name, value", [("tol", np.nan), ("cluster_tol", np.nan),
                                         ("cluster_tol", np.inf), ("can_tol", np.nan),
                                         ("rank_tol", np.nan)])
def test_canonical_form_rejects_a_non_finite_tolerance(name, value):
    """A NaN tol used to read as "not PT-symmetric, residual 0", a NaN
    cluster_tol ended in an IndexError, and a NaN can_tol switched the
    residual gates off."""
    h, pair = bender(1.0, 1.0, np.pi / 6)
    with pytest.raises(ValidationError, match=f"^{name} must be finite and positive"):
        pt_canonical_form(h, pair, **{name: value})
    if name != "can_tol":
        with pytest.raises(ValidationError, match=f"^{name} must be finite and positive"):
            classify_spectrum(h, pair, **{name: value})


def test_record_arrays_are_read_only():
    """The arrays a decomposition, its pair and its metric are built from
    cannot be changed in place under the records that hold them."""
    from ptqm.metric import build_metric

    h, pair = bender(1.0, 1.0, np.pi / 6)
    dec = pt_canonical_form(h, pair)
    arrays = {"parity": pair.parity, "time_reversal": pair.time_reversal, "pair pt": pair.pt,
              "hamiltonian": dec.hamiltonian, "pt": dec.pt, "Psi": dec.Psi,
              "eigenvalues": dec.layout.eigenvalues, "eta": build_metric(dec).eta}
    for name, a in arrays.items():
        with pytest.raises(ValueError, match="read-only"):
            a[0] += 1.0
        assert not a.flags.writeable, name
    h[0, 0] += 1.0  # the caller's H is copied, not frozen
