"""Cluster deflation from a single Schur form.

Every decomposition factors H once and isolates each eigenvalue
cluster by reordering that Schur form. The reference path below
deflates each cluster with its own sorted Schur decomposition of H;
both must give the same canonical form.
"""

import numpy as np
import pytest
import scipy.linalg as sla

import ptqm.canonical as canonical
import ptqm.linalg as linalg
from ptqm.canonical import classify_spectrum, pt_canonical_form
from ptqm.errors import IllConditionedError
from ptqm.linalg import _cluster_indices, _nilpotent_chains, eigen_decompose
from ptqm.symmetry import validate_pt_pair

CASES = ("real_simple", "complex_pairs", "jordan")


def real_pt_instance(d: int, case: str, seed: int):
    """Real H = V D V^-1 with V orthogonal times a bounded diagonal.

    With P = T = I the PT operator is plain conjugation, so any real H
    is PT-symmetric. D is block diagonal: simple real eigenvalues,
    plus 2x2 rotation blocks for complex pairs or one 2x2 Jordan block.
    """
    rng = np.random.default_rng(seed)
    lams = np.linspace(-3.0, 3.0, d) + rng.uniform(-0.01, 0.01, d)
    dmat = np.diag(lams)
    if case == "complex_pairs":
        for k in range(0, d // 2, 8):
            a, b = lams[2 * k], 0.3 + 0.1 * rng.random()
            dmat[2 * k:2 * k + 2, 2 * k:2 * k + 2] = [[a, b], [-b, a]]
    elif case == "jordan":
        m = d // 2
        dmat[m + 1, m + 1] = lams[m]
        dmat[m, m + 1] = 1.0
    o, _ = np.linalg.qr(rng.normal(size=(d, d)))
    v = o * rng.uniform(1.0, 2.0, d)
    h = v @ dmat @ np.linalg.inv(v)
    cluster_tol = 1e-6 if case == "jordan" else None
    return h, validate_pt_pair(np.eye(d), np.eye(d)), cluster_tol


def _sorted_schur_deflation(a, lam, radius):
    t, z, sdim = sla.schur(a, output="complex", sort=lambda x: abs(x - lam) <= radius)
    return z[:, :sdim], t[:sdim, :sdim], int(sdim)


@pytest.fixture
def schur_counter(monkeypatch):
    calls = []
    original = sla.schur

    def counted(*args, **kwargs):
        calls.append(kwargs.get("sort"))
        return original(*args, **kwargs)

    monkeypatch.setattr(sla, "schur", counted)
    return calls


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("d", [48, 64])
def test_one_schur_per_decomposition(d, case, schur_counter):
    h, pair, cluster_tol = real_pt_instance(d, case, seed=d)
    pt_canonical_form(h, pair, cluster_tol=cluster_tol)
    assert len(schur_counter) == 1
    classify_spectrum(h, pair, cluster_tol=cluster_tol)
    assert len(schur_counter) == 2
    eigen_decompose(h, cluster_tol=cluster_tol or 1e-8)
    assert schur_counter == [None, None, None]


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("d", [48, 64])
def test_reordering_matches_sorted_schur_per_cluster(d, case, monkeypatch):
    h, pair, cluster_tol = real_pt_instance(d, case, seed=d)
    dec = pt_canonical_form(h, pair, cluster_tol=cluster_tol)
    if case == "complex_pairs":
        assert not dec.spectral_class.unbroken
    if case == "jordan":
        assert any(b.order == 2 for b in dec.blocks)

    # reference: hand H itself down and factor it once per cluster
    monkeypatch.setattr(canonical, "_schur_form", lambda a: a)
    monkeypatch.setattr(linalg, "_deflate_cluster", _sorted_schur_deflation)
    ref = pt_canonical_form(h, pair, cluster_tol=cluster_tol)

    assert dec.blocks == ref.blocks
    assert dec.warning == ref.warning
    for name in ("Psi", "J", "K"):
        assert np.max(np.abs(getattr(dec, name) - getattr(ref, name))) <= 1e-13, name


def _brute_force_clusters(w, tol_abs):
    n = len(w)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(w[i] - w[j]) <= tol_abs:
                parent[find(i)] = find(j)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    out = [np.array(g) for g in groups.values()]
    out.sort(key=lambda g: (w[g].mean().real, w[g].mean().imag))
    return out


@pytest.mark.parametrize("seed", range(6))
def test_sorted_sweep_clusters_like_the_pair_scan(seed):
    rng = np.random.default_rng(seed)
    tol = 1e-3
    pts = list(rng.uniform(-1, 1, 20) + 1j * rng.uniform(-1, 1, 20))
    # transitive chains: neighbours within tol, the ends 1.6 tol apart
    for _ in range(5):
        start = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        angle = rng.uniform(0, 2 * np.pi)
        step = 0.8 * tol * np.exp(1j * angle)
        pts.extend(start + k * step for k in range(3))
    # chains along the imaginary axis share their real part
    for _ in range(3):
        start = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        pts.extend(start + 0.8j * tol * k for k in range(3))
    pts.extend(np.conj(pts[:10]))
    w = rng.permutation(np.array(pts))

    got = _cluster_indices(w, tol)
    want = _brute_force_clusters(w, tol)
    assert len(got) == len(want)
    assert all(np.array_equal(g, r) for g, r in zip(got, want))
    assert any(len(g) >= 3 for g in got)


@pytest.mark.parametrize("failure", ["info", "unordered"])
def test_failed_reordering_raises_ill_conditioned(failure, monkeypatch):
    original = linalg.lapack.ztrsen

    def failing(select, t, q, **kwargs):
        ts, qs, w, m, s, sep, info = original(select, t, q, **kwargs)
        if failure == "info":
            return ts, qs, w, m, s, sep, 1
        return t, q, w, m, s, sep, info

    monkeypatch.setattr(linalg.lapack, "ztrsen", failing)
    h, pair, _ = real_pt_instance(8, "real_simple", seed=3)
    with pytest.raises(IllConditionedError, match="reordering"):
        pt_canonical_form(h, pair)
    with pytest.raises(IllConditionedError, match="reordering"):
        eigen_decompose(h)


def test_simple_eigenvalue_block_keeps_the_nilpotency_gate():
    zero_floor = 1e-12
    assert _nilpotent_chains(np.array([[1e-13]]), 1e-10, zero_floor)[0][0] == [1.0]
    with pytest.raises(IllConditionedError, match="not nilpotent"):
        _nilpotent_chains(np.array([[1e-3]]), 1e-10, zero_floor)
    # with a conjugation the chain vector is fixed under v -> G conj(v)
    g = np.array([[1j]])
    [[top]] = _nilpotent_chains(np.array([[0.0]]), 1e-10, zero_floor, conj_op=g)
    assert abs(abs(top[0]) - 1.0) < 1e-15
    assert abs(top[0] - (g @ np.conj(top))[0]) < 1e-15
