"""Cluster chains from one eigendecomposition.

Every decomposition takes the vectors of all simple eigenvalue clusters
from one np.linalg.eig, in a batch that applies the same gates as a 1x1
deflated block. Only clusters with more than one member (exceptional
points) are deflated: the span of the eigenvectors eig returned for
them is refined by one Newton step (linalg._deflate_cluster). The
reference path below deflates every cluster, simple ones included,
with its own sorted Schur decomposition of H (scipy); both must give
the same canonical form.
"""

from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

import ptqm.canonical as canonical
import ptqm.linalg as linalg
from ptqm.canonical import classify_spectrum, pt_canonical_form
from ptqm.errors import IllConditionedError
from ptqm.linalg import ClusteredSpectrum, _cluster_chains, _clusters, eigen_decompose
from ptqm.sampling import random_instance
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


def _sorted_schur_deflation(spectrum, members, rep, radius, zero_floor):
    t, z, sdim = sla.schur(spectrum.matrix, output="complex",
                           sort=lambda x: abs(x - rep) <= radius)
    assert sdim == len(members)
    return z[:, :sdim], t[:sdim, :sdim]


def _per_cluster_simple_vectors(spectrum, members, reps, zero_floor, fixed, rank_tol, conj_mat):
    cols = []
    for member, rep, floor, f in zip(members, reps, zero_floor, fixed):
        # deflate halfway between the member and the nearest other eigenvalue
        dist = np.abs(spectrum.w - rep)
        internal, dist[member] = dist[member], np.inf
        [[v]] = linalg._deflated_chains(spectrum, np.array([member]), rep,
                                        0.5 * (internal + dist.min()), floor, rank_tol,
                                        conj_mat if f else None)
        cols.append(v)
    return np.column_stack(cols)


@pytest.fixture
def per_cluster_schur(monkeypatch):
    """Route every cluster through its own sorted Schur form of H: deflate
    by a sorted factorisation, and build simple clusters by the same
    deflation instead of the batch."""

    def use():
        monkeypatch.setattr(linalg, "_deflate_cluster", _sorted_schur_deflation)
        monkeypatch.setattr(linalg, "_simple_vectors", _per_cluster_simple_vectors)

    return use


@pytest.fixture
def deflations(monkeypatch):
    """The number of members of every cluster deflated."""
    sizes = []
    deflate = linalg._deflate_cluster

    def counted(spectrum, members, *args):
        sizes.append(len(members))
        return deflate(spectrum, members, *args)

    monkeypatch.setattr(linalg, "_deflate_cluster", counted)
    return sizes


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("d", [48, 64])
def test_one_schur_per_decomposition(d, case, deflations):
    """No deflation without a multi-member cluster, and one per
    multi-member cluster per decomposition."""
    h, pair, cluster_tol = real_pt_instance(d, case, seed=d)
    multi = [2] if case == "jordan" else []
    pt_canonical_form(h, pair, cluster_tol=cluster_tol)
    assert deflations == multi
    classify_spectrum(h, pair, cluster_tol=cluster_tol)
    assert deflations == 2 * multi
    es = eigen_decompose(h, cluster_tol=cluster_tol or 1e-8)
    assert [m for m in es.multiplicities if m > 1] == multi
    assert deflations == 3 * multi


def _assert_matches_reference(dec, ref, psi_tol):
    assert dec.blocks == ref.blocks
    assert dec.warning == ref.warning
    assert np.array_equal(dec.J, ref.J)
    assert np.array_equal(dec.K, ref.K)
    assert np.max(np.abs(dec.Psi - ref.Psi)) <= psi_tol


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("d", [48, 64])
def test_reordering_matches_sorted_schur_per_cluster(d, case, per_cluster_schur):
    h, pair, cluster_tol = real_pt_instance(d, case, seed=d)
    dec = pt_canonical_form(h, pair, cluster_tol=cluster_tol)
    if case == "complex_pairs":
        assert not dec.spectral_class.unbroken
    if case == "jordan":
        assert any(b.order == 2 for b in dec.blocks)

    per_cluster_schur()
    ref = pt_canonical_form(h, pair, cluster_tol=cluster_tol)
    _assert_matches_reference(dec, ref, 1e-13)


@pytest.mark.parametrize("kind", ("unbroken", "complex", "ep"))
@pytest.mark.parametrize("d", [2, 3, 5, 8, 16, 32, 64])
def test_sampled_instances_match_the_per_cluster_reference(d, kind, per_cluster_schur):
    inst = random_instance(np.random.default_rng(1000 + d), d, kind)
    dec = pt_canonical_form(inst["h"], inst["pair"], cluster_tol=1e-6)
    assert dec.spectral_class.unbroken == (kind == "unbroken")
    per_cluster_schur()
    ref = pt_canonical_form(inst["h"], inst["pair"], cluster_tol=1e-6)
    _assert_matches_reference(dec, ref, 1e-13)


def _near_pair_instance(gap_in_tols: float, cluster_tol: float):
    """Real H = O D O^T with D = diag(-3, 0.5, 0.5 + gap, 1.5, 2): ||H|| = 3,
    so the pair (0.5, 0.5 + gap) sits gap_in_tols clustering tolerances apart."""
    o, _ = np.linalg.qr(np.random.default_rng(7).normal(size=(5, 5)))
    gap = gap_in_tols * cluster_tol * 3.0
    h = o @ np.diag([-3.0, 0.5, 0.5 + gap, 1.5, 2.0]) @ o.T
    return h, validate_pt_pair(np.eye(5), np.eye(5)), gap


@pytest.mark.parametrize("cluster_tol", [1e-8, 1e-3])
def test_simple_eigenvalues_just_outside_cluster_tol(cluster_tol, per_cluster_schur):
    h, pair, gap = _near_pair_instance(1.5, cluster_tol)
    dec = pt_canonical_form(h, pair, cluster_tol=cluster_tol)
    assert [b.kind for b in dec.blocks] == ["RealSimple"] * 5
    assert dec.warning is None
    assert abs(dec.blocks[2].eigenvalue - dec.blocks[1].eigenvalue - gap) <= 1e-14
    per_cluster_schur()
    ref = pt_canonical_form(h, pair, cluster_tol=cluster_tol)
    _assert_matches_reference(dec, ref, 1e-13)


def test_simple_eigenvalues_just_inside_cluster_tol():
    h, pair, gap = _near_pair_instance(0.5, 1e-8)
    dec = pt_canonical_form(h, pair, cluster_tol=1e-8)
    # one cluster at the mean of the pair, with two eigenvectors
    assert [b.kind for b in dec.blocks] == ["RealSimple"] * 5
    assert dec.blocks[1].eigenvalue == dec.blocks[2].eigenvalue
    assert abs(dec.blocks[1].eigenvalue.real - (0.5 + gap / 2)) <= 1e-14
    assert "clustering tolerance band" in dec.warning
    assert classify_spectrum(h, pair, cluster_tol=1e-8).detail == dec.blocks


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


def _groups(label):
    """Member indices of each cluster, in cluster order, from _clusters' labels."""
    return [np.flatnonzero(label == k) for k in range(label.max() + 1)]


def _union_find_clusters(w, tol_abs):
    """The union-find clustering _clusters replaced, kept as its reference:
    the groups (members ascending) and their means, ordered by mean."""
    n = len(w)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    order = np.argsort(w.real, kind="stable")
    re = w.real[order]
    for a in range(n):
        i = order[a]
        for b in range(a + 1, n):
            if re[b] - re[a] > tol_abs:
                break
            j = order[b]
            if abs(w[i] - w[j]) <= tol_abs:
                parent[find(i)] = find(j)

    groups: dict = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    found = [np.array(g) for g in groups.values()]
    means = [w[g].mean() for g in found]
    ranked = sorted(range(len(found)), key=lambda k: (means[k].real, means[k].imag))
    return [found[k] for k in ranked], np.array([means[k] for k in ranked], dtype=complex)


_TOL = 1e-3
# grid points 0.6 tol apart chain (a ~ b, b ~ c, a !~ c); on the 0.2 tol grid
# the 3-4-5 offsets put |wi - wj| at tol, where the last bit decides the link;
# repeated points tie exactly
_grid_point = st.builds(lambda step, a, b: complex(step * _TOL * a, step * _TOL * b),
                        st.sampled_from([0.2, 0.6]), st.integers(-12, 12), st.integers(-12, 12))
_free_point = st.builds(complex, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
_signed_zero = st.builds(complex, st.sampled_from([0.0, -0.0, 1e-4]),
                         st.sampled_from([0.0, -0.0, 2e-4]))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.lists(st.one_of(_grid_point, _free_point, _signed_zero), min_size=1, max_size=40),
       st.booleans(), st.randoms(use_true_random=False))
def test_clusters_match_the_union_find_reference_bitwise(points, conjugates, random):
    if conjugates:  # conjugate pairs, as a PT-symmetric spectrum has them
        points = points + [complex(z.real, -z.imag) for z in points]
    random.shuffle(points)
    w = np.array(points, dtype=complex)
    label, means = _clusters(w, _TOL)
    groups, ref_means = _union_find_clusters(w, _TOL)
    got = _groups(label)
    assert len(got) == len(groups) == len(means)
    assert all(np.array_equal(g, r) for g, r in zip(got, groups))
    assert means.tobytes() == ref_means.tobytes()


def test_a_link_at_the_tolerance_rounds_as_the_scalar_abs():
    # 0.2 tol * (4, 3) apart: the scalar abs puts |wi - wj| at tol; the vector
    # loop of np.abs over a difference array can round it one bit above
    w = np.array([complex(0.2 * _TOL * a, 0.2 * _TOL * b) for a, b in ((-12, -7), (-8, -4))])
    groups, _ = _union_find_clusters(w, _TOL)
    assert len(groups) == 1
    assert np.array_equal(_clusters(w, _TOL)[0], [0, 0])


def test_eigenvalues_further_apart_than_the_float_range_are_not_linked():
    with np.errstate(over="raise"):
        label, means = _clusters(np.array([1e308, -1e308, 0.5]), 1e-3)
    assert np.array_equal(label, [2, 0, 1])
    assert np.array_equal(means, [-1e308, 0.5, 1e308])


def test_singleton_means_are_sums_of_one_term():
    # a one-term sum starts from 0, so -0.0 parts come back as 0.0, as np.mean gives them
    w = np.array([complex(-0.0, -0.0), complex(1.5, -0.0), complex(-0.0, 2.5)])
    label, means = _clusters(w, 1e-3)
    assert np.array_equal(label, [0, 2, 1])
    assert means.tobytes() == np.array([w[i:i + 1].mean() for i in (0, 2, 1)]).tobytes()
    assert not np.any(np.signbit(means.view(float)[[0, 1, 2, 5]]))


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

    got = _groups(_clusters(w, tol)[0])
    want = _brute_force_clusters(w, tol)
    assert len(got) == len(want)
    assert all(np.array_equal(g, r) for g, r in zip(got, want))
    assert any(len(g) >= 3 for g in got)


def _jordan_and_diagonal(d: int, split: float = 0.0):
    """H, the direct sum of J_2(0.5) and diag(-2, -1, 1, 2, ...), with
    split below the 1 of J_2, and P = T = I: the simple eigenvectors are
    the unit vectors e_2, e_3, ..., and split > 0 moves the double
    eigenvalue to 0.5 +- sqrt(split)."""
    h = np.diag(np.r_[0.5, 0.5, -2.0, -1.0, np.arange(1.0, d - 3)])
    h[0, 1], h[1, 0] = 1.0, split
    return h, validate_pt_pair(np.eye(d), np.eye(d)), 1e-6


def _planted_start(monkeypatch, start):
    """Have eig return start(vectors, multi, simple) as the vectors of the
    members of the multi-member cluster, which index multi in w; simple
    indexes the members of simple clusters."""
    clustered = linalg._clustered_spectrum

    def planted(a, scale, tol_abs):
        spectrum = clustered(a, scale, tol_abs)
        in_multi = spectrum.sizes[spectrum.label] > 1
        vectors = spectrum.vectors.copy()
        vectors[:, in_multi] = start(vectors, np.flatnonzero(in_multi),
                                     np.flatnonzero(~in_multi))
        return replace(spectrum, vectors=vectors)

    monkeypatch.setattr(linalg, "_clustered_spectrum", planted)
    monkeypatch.setattr(canonical, "_clustered_spectrum", planted)


# the two gates of the refinement; the ids name the Schur reordering
# failures (ztrsen's info, an unordered result) that these starts replace
_FAILED_STARTS = {
    # the exact eigenvectors of -2 and -1: invariant already, so the step
    # keeps them, and their eigenvalues lie outside the cluster (the split
    # keeps the complement block, which holds 0.5 +- 1e-7, invertible)
    "unordered": ("did not isolate", _jordan_and_diagonal(8, split=1e-14),
                  lambda v, multi, simple: np.eye(8)[:, [2, 3]]),
    # the cluster's vectors off by 1e-2 of two other eigenvectors: one
    # Newton step leaves a residual far above the zero floor
    "info": ("left a residual", real_pt_instance(8, "jordan", seed=3),
             lambda v, multi, simple: v[:, multi] + 1e-2 * v[:, simple[:2]]),
}


@pytest.mark.parametrize("failure", ["info", "unordered"])
def test_failed_reordering_raises_ill_conditioned(failure, monkeypatch):
    match, (h, pair, cluster_tol), start = _FAILED_STARTS[failure]
    pt_canonical_form(h, pair, cluster_tol=cluster_tol)
    _planted_start(monkeypatch, start)
    with pytest.raises(IllConditionedError, match=f"^refinement {match}"):
        pt_canonical_form(h, pair, cluster_tol=cluster_tol)
    with pytest.raises(IllConditionedError, match=f"^refinement {match}"):
        eigen_decompose(h, cluster_tol=cluster_tol)


def _rotated_deflation(monkeypatch, seed: int):
    """Have every deflation return q U and U^H b U for a random unitary U."""
    rng = np.random.default_rng(seed)
    deflate = linalg._deflate_cluster

    def rotated(*args):
        q, b = deflate(*args)
        m = q.shape[1]
        u = np.linalg.qr(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))[0]
        return q @ u, u.conj().T @ b @ u

    monkeypatch.setattr(linalg, "_deflate_cluster", rotated)


@pytest.mark.parametrize("instance", ["sampled-ep16", "real-jordan48"])
def test_chains_do_not_depend_on_the_deflation_basis(instance, monkeypatch):
    """Any orthonormal basis of the cluster's subspace gives the same
    chains: for a P T that is not unitary (the sampled instance, where
    ||(PT)^H PT - I||_2 = 1.6) as for a unitary one (P = T = I)."""
    if instance == "sampled-ep16":
        inst = random_instance(np.random.default_rng(1016), 16, "ep")
        h, pair, cluster_tol = inst["h"], inst["pair"], 1e-6
        assert np.linalg.norm(pair.pt.conj().T @ pair.pt - np.eye(16), 2) > 1.5
    else:
        h, pair, cluster_tol = real_pt_instance(48, "jordan", seed=48)
    dec = pt_canonical_form(h, pair, cluster_tol=cluster_tol)
    assert any(b.order > 1 for b in dec.blocks)
    for seed in range(3):
        _rotated_deflation(monkeypatch, seed)
        _assert_matches_reference(dec, pt_canonical_form(h, pair, cluster_tol=cluster_tol),
                                  1e-13)
        monkeypatch.undo()


@pytest.mark.parametrize("d", [16, 32])
def test_parallel_eigenvectors_isolate_the_cluster_or_raise(d, per_cluster_schur):
    """A permutation similarity of J_2(0.5) + diag: eig finds the double
    eigenvalue exactly and may return parallel vectors for it, so the
    start spans too little. The step either still isolates the cluster,
    matching the sorted-Schur reference, or raises; it never returns a
    wrong basis."""
    h, pair, cluster_tol = _jordan_and_diagonal(d)
    perm = np.random.default_rng(d).permutation(d)
    h = h[np.ix_(perm, perm)]
    try:
        dec = pt_canonical_form(h, pair, cluster_tol=cluster_tol)
    except IllConditionedError as exc:
        assert str(exc).startswith("refinement")
        return
    per_cluster_schur()
    _assert_matches_reference(dec, pt_canonical_form(h, pair, cluster_tol=cluster_tol), 1e-13)


def _spectrum(diagonal, w, scale=1.0):
    """Spectrum of diag(diagonal) as if eig had returned w and unit vectors."""
    a = np.diag(np.asarray(diagonal, dtype=complex))
    w = np.asarray(w, dtype=complex)
    return ClusteredSpectrum(a, scale, w, np.eye(len(w), dtype=complex), np.arange(len(w)), w)


def test_deflation_with_a_singular_complement_is_ill_conditioned():
    """A = I with a two-member cluster at 1: the complement p^H A p - 1 is
    exactly zero, so the Newton step has no inverse to take."""
    spectrum = ClusteredSpectrum(np.eye(3, dtype=complex), 1.0, np.ones(3, dtype=complex),
                                 np.eye(3, dtype=complex), np.array([0, 0, 1]),
                                 np.ones(2, dtype=complex))
    with pytest.raises(IllConditionedError, match="^refinement did not isolate the eigenvalue "
                                                  "cluster$"):
        linalg._deflate_cluster(spectrum, np.array([0, 1]), 1.0, 0.1, 1e-12)


def test_chains_of_a_block_that_is_not_nilpotent_are_refused():
    """Every power of I has full rank, so no power reaches nullity m."""
    with pytest.raises(IllConditionedError, match="^cluster block is not nilpotent at the "
                                                  "working tolerance$"):
        linalg._nilpotent_chains(np.eye(2, dtype=complex), 1e-10, 1e-12)


def _first_vector(spectrum, rep, conj_mat=None):
    """The vector of simple cluster 0, fixed under v -> conj_mat conj(v) when given."""
    [[v]] = _cluster_chains(spectrum, np.array([0]), np.array([rep], dtype=complex), 1e-10,
                            conj_mat)[0]
    return v


def test_simple_eigenvalue_block_keeps_the_nilpotency_gate():
    # |q^H A q - rep| is gated at 10 * zero_floor, zero_floor = internal + 64 eps scale
    internal = 1e-12
    limit = 10.0 * (internal + 64.0 * np.finfo(float).eps)
    assert np.array_equal(_first_vector(_spectrum([0.99 * limit, 5.0], [internal, 5.0]), 0.0),
                          [1.0, 0.0])
    with pytest.raises(IllConditionedError, match="not nilpotent"):
        _first_vector(_spectrum([1.01 * limit, 5.0], [internal, 5.0]), 0.0)
    with pytest.raises(IllConditionedError, match="not nilpotent"):
        _first_vector(_spectrum([1e-3, 5.0], [0.0, 5.0]), 0.0)
    # the separability margin: external > 2 internal + 16 eps scale
    with pytest.raises(IllConditionedError, match="not separable"):
        _first_vector(_spectrum([0.0, 1e-15], [0.0, 1e-15], scale=10.0), 0.0)
    # with a conjugation the vector is fixed under v -> G conj(v)
    g = np.diag([1j, 1.0])
    top = _first_vector(_spectrum([0.0, 5.0], [0.0, 5.0]), 0.0, conj_mat=g)
    assert abs(abs(top[0]) - 1.0) < 1e-15
    assert np.max(np.abs(top - g @ np.conj(top))) < 1e-15
    with pytest.raises(IllConditionedError, match="conjugation-invariant"):
        _first_vector(_spectrum([0.0, 5.0], [0.0, 5.0]), 0.0,
                      conj_mat=np.array([[0.0, 1.0], [1.0, 0.0]]))
