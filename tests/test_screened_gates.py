"""Residual gates decided by a Frobenius screen, residuals read lazily.

linalg.norm_within decides ||D||_2 <= bound and takes the exact 2-norm
only where ||D / bound||_F^2 > 1/4. Through it the PT test, the
canonical form and the metric take no SVD for a residual that only
meets a bound, and CanonicalDecomposition.pt_residual and .residuals and
MetricOperator.defect are computed on first read. These tests pin the
SVDs that are saved.
"""

import numpy as np
import pytest

from ptqm.canonical import classify_spectrum, pt_canonical_form
from ptqm.dynamics import validate_density
from ptqm.metric import build_metric
from ptqm.sampling import random_instance



def _random(d: int, kind: str):
    inst = random_instance(np.random.default_rng(1000 + d), d, kind)
    return inst["h"], inst["pair"], None


@pytest.fixture
def svds(monkeypatch):
    """The stack shape of every SVD taken, through np.linalg.svd or a
    2-norm of np.linalg.norm."""
    calls = []
    module = np.linalg._linalg
    svd = module.svd

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a)[:-2])
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    monkeypatch.setattr(module, "svd", counted)
    return calls


def _taken(calls, action):
    start = len(calls)
    action()
    return calls[start:]


@pytest.mark.parametrize("kind", ["unbroken", "complex"])
@pytest.mark.parametrize("d", [16, 64])
def test_residual_norms_are_taken_only_when_read(d, kind, svds):
    """||H||_2 is the one SVD of classify_spectrum, ||H||_2 and sigma(Psi)
    the two of pt_canonical_form, and build_metric takes none; each
    deferred value costs one SVD call on its first read and none after."""
    h, pair, cluster_tol = _random(d, kind)
    one = [()]
    assert _taken(svds, lambda: classify_spectrum(h, pair, cluster_tol=cluster_tol)) == one
    box = {}

    def decompose():
        box["dec"] = pt_canonical_form(h, pair, cluster_tol=cluster_tol)
        box["met"] = build_metric(box["dec"])

    assert _taken(svds, decompose) == [(), ()]
    dec, met = box["dec"], box["met"]
    assert _taken(svds, lambda: dec.pt_residual) == one
    assert _taken(svds, lambda: dec.residuals) == [(2,)]
    assert _taken(svds, lambda: met.defect) == one
    assert _taken(svds, lambda: (dec.pt_residual, dec.residuals, met.defect)) == []


def test_density_checks_take_no_svd_for_a_valid_density(svds):
    g = np.random.default_rng(3).normal(size=(16, 16, 2)) @ np.array([1.0, 1.0j])
    rho = g @ g.conj().T
    assert _taken(svds, lambda: validate_density(rho / np.trace(rho).real)) == []
