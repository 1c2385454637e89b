"""Random instance generators: planted structure must be recoverable."""

import numpy as np
import pytest

from ptqm.canonical import (
    COMPLEX_PAIR,
    REAL_JORDAN,
    REAL_SIMPLE,
    classify_spectrum,
    pt_canonical_form,
)
from ptqm.linalg import operator_norm
from ptqm.sampling import (
    random_density,
    random_free_basis,
    random_free_kraus,
    random_free_state,
    random_instance,
    random_pt_pair,
    random_unitary,
)
from ptqm.superposition import free_kraus_defect, is_free_kraus, is_superposition_free
from ptqm.symmetry import is_pt_symmetric, validate_pt_pair


def test_random_unitary_is_unitary():
    rng = np.random.default_rng(5)
    for d in (2, 3, 6):
        u = random_unitary(rng, d)
        assert operator_norm(u.conj().T @ u - np.eye(d)) <= 1e-12


PAIR_KINDS = ("trivial", "swap", "real_involution", "householder_t")


@pytest.mark.parametrize("kind", PAIR_KINDS)
@pytest.mark.parametrize("d", (2, 4, 5))
def test_random_pair_validates(kind, d):
    rng = np.random.default_rng(17)
    for _ in range(5):
        pair = random_pt_pair(rng, d, kind)
        validate_pt_pair(pair.parity, pair.time_reversal)


INSTANCE_KINDS = ("unbroken", "complex", "ep", "mixed")


@pytest.mark.parametrize("kind", INSTANCE_KINDS)
def test_random_instance_properties(kind):
    rng = np.random.default_rng(29)
    for _ in range(8):
        d = int(rng.integers(2, 7))
        if kind == "complex" and d < 2:
            continue
        inst = random_instance(rng, d, kind)
        h, pair = inst["h"], inst["pair"]
        ok, residual = is_pt_symmetric(h, pair)
        assert ok and residual <= 1e-10 * max(1.0, operator_norm(h))
        cond = np.linalg.cond(inst["psi0"])
        assert cond <= 12.0
        # planted J reproduces H through the planted basis
        back = inst["psi0"] @ inst["j0"] @ np.linalg.inv(inst["psi0"])
        assert operator_norm(h - back) <= 1e-10 * max(1.0, operator_norm(h))


def test_random_instance_planted_class():
    rng = np.random.default_rng(101)
    for _ in range(6):
        inst = random_instance(rng, 4, "unbroken")
        evs = np.linalg.eigvals(inst["h"])
        cls = classify_spectrum(inst["h"], inst["pair"])
        assert cls.tag == "Unbroken"
        assert np.max(np.abs(evs.imag)) <= 1e-8

        inst = random_instance(rng, 4, "complex")
        cls = classify_spectrum(inst["h"], inst["pair"])
        assert COMPLEX_PAIR in {b.kind for b in cls.detail}

        inst = random_instance(rng, 4, "ep")
        cls = classify_spectrum(inst["h"], inst["pair"], cluster_tol=1e-6)
        assert any(b.kind == REAL_JORDAN and b.order >= 2 for b in cls.detail)


def planted_blocks(inst) -> list:
    """Sorted (kind, order) of the planted units: the sampler plants
    conjugate pairs of order 1 and real Jordan blocks of order 2."""
    d = inst["h"].shape[0]
    n_pairs = int(np.sum(np.diag(inst["k0"]) == 0)) // 2
    n_jordan = int(np.count_nonzero(np.diag(inst["j0"], 1)))
    return sorted([(COMPLEX_PAIR, 1)] * n_pairs + [(REAL_JORDAN, 2)] * n_jordan
                  + [(REAL_SIMPLE, 1)] * (d - 2 * n_pairs - 2 * n_jordan))


@pytest.mark.parametrize("pair_kind", PAIR_KINDS)
@pytest.mark.parametrize("kind", INSTANCE_KINDS)
@pytest.mark.parametrize("d", (10, 16, 64))
def test_random_instance_terminates_at_every_dimension(d, kind, pair_kind):
    rng = np.random.default_rng(d)
    inst = random_instance(rng, d, kind, pair_kind)
    assert np.linalg.cond(inst["psi0"]) <= 12.0
    dec = pt_canonical_form(inst["h"], inst["pair"],
                            cluster_tol=1e-6 if inst["kind"] == "ep" else None)
    assert sorted((b.kind, b.order) for b in dec.blocks) == planted_blocks(inst)
    assert np.allclose(np.sort_complex(np.diag(dec.J)),
                       np.sort_complex(np.diag(inst["j0"])), atol=1e-6)


def test_real_involution_pair_terminates_at_d64():
    pair = random_pt_pair(np.random.default_rng(64), 64, "real_involution")
    assert np.linalg.svd(pair.parity, compute_uv=False)[-1] >= 0.2


def test_free_basis_terminates_at_d64():
    basis = random_free_basis(np.random.default_rng(64), 64)
    assert np.linalg.svd(basis.matrix, compute_uv=False)[-1] >= 0.2


def test_random_density_properties():
    rng = np.random.default_rng(47)
    for d in (2, 3, 5):
        rho = random_density(rng, d)
        assert abs(np.trace(rho) - 1.0) <= 1e-12
        assert operator_norm(rho - rho.conj().T) <= 1e-14
        assert np.linalg.eigvalsh(rho)[0] >= -1e-13

        pure = random_density(rng, d, pure=True)
        evs = np.sort(np.linalg.eigvalsh(pure))
        assert abs(evs[-1] - 1.0) <= 1e-12
        assert np.max(np.abs(evs[:-1])) <= 1e-12


def test_random_free_kraus_is_free():
    rng = np.random.default_rng(149)
    for _ in range(10):
        d = int(rng.integers(2, 6))
        basis = random_free_basis(rng, d)
        k = random_free_kraus(rng, basis)
        assert is_free_kraus(k, basis)
        assert free_kraus_defect(k, basis) <= 1e-9


def test_random_free_state_is_free():
    rng = np.random.default_rng(263)
    for _ in range(10):
        d = int(rng.integers(2, 6))
        basis = random_free_basis(rng, d)
        rho = random_free_state(rng, basis)
        ok, dec = is_superposition_free(rho, basis)
        assert ok
        w = np.array(dec.weights)
        assert np.all(w >= -1e-12)
        assert abs(np.sum(w) - 1.0) <= 1e-10


def test_free_basis_is_well_conditioned():
    rng = np.random.default_rng(331)
    for d in (2, 4, 6):
        basis = random_free_basis(rng, d)
        sv = np.linalg.svd(basis.matrix, compute_uv=False)
        assert sv[-1] >= 0.2
