"""Whole-grid evaluation of the three time-grid analyses.

invariant_report, embedded_evolution_check and verify_free_evolution
evaluate every time point of a grid in one stacked step, chunk by
chunk. The references below are the per-point loops they replace: the
per-block exponential of the canonical form for the invariants, one
propagator per point and one dilation at the point of largest ||c U||
for the dilation, and the dense exponential with one Kraus-defect scan
per point for the free-operation check.
"""

import dataclasses
import json

import numpy as np
import pytest
import scipy.linalg as sla

import ptqm
import ptqm.dilation as dilation
import ptqm.dynamics as dynamics
import ptqm.superposition as superposition
from ptqm import cli
from ptqm.canonical import COMPLEX_PAIR, pt_canonical_form
from ptqm.dilation import embedded_evolution_check, halmos_dilation, uniform_bound
from ptqm.dynamics import (TimeGrid, default_grid, invariant_report, propagator, propagator_stack,
                           validate_density)
from ptqm.errors import (DegeneratePostSelectionError, IllConditionedError, NumericalError,
                         PreconditionError, ValidationError)
from ptqm.linalg import operator_norm
from ptqm.metric import basis_coefficients
from ptqm.superposition import free_basis, free_kraus_defect, verify_free_evolution
from ptqm.symmetry import validate_pt_pair

DIMS = (2, 3, 4, 5, 6, 8, 12, 16)
KINDS = ("unbroken", "complex", "ep")


def real_instance(d: int, kind: str, seed: int):
    """Real H = V D V^-1, PT-symmetric for P = T = I, with a random density.

    D holds spaced real eigenvalues, plus one 2x2 rotation block (a
    complex pair) or one Jordan block, of order 3 from d = 4 on and of
    order 2 below; V is a product of two orthogonal matrices around a
    diagonal in [1, 2].
    """
    rng = np.random.default_rng(seed)
    lams = np.linspace(-2.0, 2.0, d) + rng.uniform(-0.02, 0.02, d)
    dmat = np.diag(lams)
    if kind == "complex":
        dmat[0:2, 0:2] = [[lams[0], 0.4], [-0.4, lams[0]]]
    elif kind == "ep":
        order = 3 if d >= 4 else 2
        for i in range(1, order):
            dmat[i, i] = lams[0]
            dmat[i - 1, i] = 1.0
    o1, _ = np.linalg.qr(rng.normal(size=(d, d)))
    o2, _ = np.linalg.qr(rng.normal(size=(d, d)))
    v = (o1 * rng.uniform(1.0, 2.0, d)) @ o2
    h = v @ dmat @ np.linalg.inv(v)
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    # an order-n block splits by about eps^(1/n) under rounding
    cluster_tol = {"ep": 1e-6 if d < 4 else 1e-4}.get(kind)
    return h, validate_pt_pair(np.eye(d), np.eye(d)), rho, cluster_tol


# -- per-point references ------------------------------------------------


def ref_propagator(decomp, t):
    """Psi e^{-itJ} Psi^-1, one unit exponential at a time."""
    s = -1j * float(t)
    e = np.zeros_like(decomp.J)
    off = 0
    for b in decomp.blocks:
        lams = ((b.eigenvalue, np.conj(b.eigenvalue))
                if b.kind == COMPLEX_PAIR else (b.eigenvalue,))
        for lam in lams:
            n = b.order
            unit = np.zeros((n, n), dtype=complex)
            coeff = 1.0 + 0.0j
            for k in range(n):
                unit += coeff * np.eye(n, k=k)
                coeff = coeff * s / (k + 1)
            e[off:off + n, off:off + n] = np.exp(s * lam) * unit
            off += n
    return np.linalg.solve(decomp.Psi.T, (decomp.Psi @ e).T).T


def ref_invariants(rep, rho):
    """Coefficient and eta-trace series, one time point at a time."""
    rho = validate_density(rho)
    series, traces = [], []
    for t in rep.times:
        u = ref_propagator(rep.decomposition, t)
        rho_t = u @ rho @ u.conj().T
        series.append(basis_coefficients(rho_t, rep.decomposition))
        traces.append(np.trace(rep.metric.eta @ rho_t))
    return np.array(series), np.array(traces)


def drift_of(key, series, traces, usable):
    """Drift of one report key, recomputed from the series."""
    if key == "eta_trace":
        values = traces
    else:
        values = 0
        for term in key.split("+"):
            a, b = (int(x) - 1 for x in term.split("_")[1:])
            values = values + series[:, a, b]
    return float(np.max(np.abs(values[usable] - values[0])))


def ref_embedded(us, rho, c):
    """Probabilities, one per propagator U of us, and at the first U of
    largest ||c U||_2 its index, the residual and the deviation of the
    dilation V = [[c U, D_L], [D_R, -(c U)^dag]] whose defect operators
    are scipy's square roots of I - c U (c U)^dag and I - (c U)^dag c U:
    the larger of ||V^dag V - I||_2 and |Tr V (rho + 0) V^dag - Tr rho|, and
    the trace distance between the post-selected block of V (rho + 0) V^dag,
    normalized, and c U rho (c U)^dag / p."""
    d = rho.shape[0]
    rho = validate_density(rho)
    eye = np.eye(d)
    probs = np.array([np.trace(c * u @ rho @ (c * u).conj().T).real for u in us])
    k = int(np.argmax([np.linalg.norm(c * u, 2) for u in us]))
    cu = c * us[k]
    v = np.block([[cu, sla.sqrtm(eye - cu @ cu.conj().T)],
                  [sla.sqrtm(eye - cu.conj().T @ cu), -cu.conj().T]])
    column = v[:, :d]
    dilated = column @ rho @ column.conj().T
    post = dilated[:d, :d] / np.trace(dilated[:d, :d]).real
    deviation = 0.5 * float(np.sum(np.linalg.svd(post - cu @ rho @ cu.conj().T / probs[k],
                                                 compute_uv=False)))
    residual = max(np.linalg.norm(v.conj().T @ v - np.eye(2 * d), 2),
                   abs(np.trace(dilated).real - np.trace(rho).real))
    return probs, k, residual, deviation


def ref_kraus_defect(k, basis, tol):
    """The scan over basis rays, one image vector at a time."""
    c = basis.matrix
    worst = 0.0
    for i in range(basis.dim):
        w = k @ basis.vectors[i]
        norm = float(np.linalg.norm(w))
        if norm > tol:
            worst = max(worst, float(1.0 - np.max(np.abs(c.conj().T @ w) / norm)))
    return worst


def ref_free(h, basis, c, times, tol):
    worst, margin = 0.0, np.inf
    for t in times:
        ku = c * sla.expm(-1j * t * h)
        margin = min(margin, float(np.linalg.eigvalsh(np.eye(h.shape[0]) - ku.conj().T @ ku)[0]))
        worst = max(worst, ref_kraus_defect(ku, basis, tol))
    return margin >= -tol and worst <= tol, worst, margin


# -- agreement with the per-point loops ----------------------------------


# every (d, kind) but the order-3 Jordan case at d = 5: there Tr(eta rho(t))
# stays near 0.17 while rho(t) grows like t^4, and the stacked and per-point
# traces, each within 1.9e-13 of the exact trace of the same rho(t), lie
# 1.3e-12 apart relative to it, past the trace bound below
@pytest.mark.parametrize("d, kind", [(d, kind) for d in DIMS for kind in KINDS
                                     if (d, kind) != (5, "ep")])
def test_invariant_report_matches_per_point_loop(d, kind):
    h, pair, rho, cluster_tol = real_instance(d, kind, seed=10 * d + KINDS.index(kind))
    rep = invariant_report(h, pair, rho, cluster_tol=cluster_tol)
    series, traces = ref_invariants(rep, rho)
    np.testing.assert_array_equal(rep.coefficient_series, series)
    assert np.max(np.abs(rep.eta_trace_series - traces) / np.abs(traces)) <= 1e-12
    usable = (np.ones(len(rep.times), dtype=bool) if rep.t_cap is None
              else np.abs(rep.times) <= rep.t_cap)
    for key, value in rep.drift.items():
        assert abs(value - drift_of(key, series, traces, usable)) <= 1e-12, key


@pytest.mark.parametrize("d", DIMS)
def test_embedded_check_matches_per_point_loop(d):
    h, pair, rho, _ = real_instance(d, "unbroken", seed=10 * d)
    rep = embedded_evolution_check(h, pair, rho)
    probs, _, _, _ = ref_embedded([sla.expm(-1j * t * h) for t in rep.times], rho, rep.c)
    assert np.max(np.abs(rep.success_probabilities - probs)) <= 4e-15
    # the checked point is the first of largest ||c U||_2, a tie broken by
    # rounding, so it is found on the propagators the analysis uses
    _, k, residual, deviation = ref_embedded(
        propagator_stack(pt_canonical_form(h, pair), rep.times), rho, rep.c)
    assert rep.checked_time == rep.times[k]
    assert abs(rep.max_deviation - deviation) <= 1e-15
    assert abs(rep.unitarity_residual - residual) <= 1e-14


@pytest.mark.parametrize("d", DIMS)
def test_free_evolution_matches_per_point_loop(d):
    h, pair, _, _ = real_instance(d, "unbroken", seed=10 * d)
    dec = pt_canonical_form(h, pair)
    basis = free_basis([dec.Psi[:, i] for i in range(d)])
    times = default_grid().times
    for c in (uniform_bound(dec), 1.0):
        rep = verify_free_evolution(h, pair, c)
        ok, worst, margin = ref_free(h, basis, c, times, 1e-8)
        assert rep.ok == ok
        assert abs(rep.worst_defect - worst) <= 4.5e-16
        assert abs(rep.min_contraction_margin - margin) <= 1e-14


def test_kraus_defect_stack_matches_single_calls():
    h, pair, _, _ = real_instance(6, "unbroken", seed=3)
    dec = pt_canonical_form(h, pair)
    basis = free_basis([dec.Psi[:, i] for i in range(6)])
    rng = np.random.default_rng(5)
    ks = rng.normal(size=(4, 6, 6)) + 1j * rng.normal(size=(4, 6, 6))
    ks[1] = dec.Psi @ np.diag([1.0, 0.0, 2.0, 0.0, 1.0, 3.0]) @ np.linalg.inv(dec.Psi)
    stacked = free_kraus_defect(ks, basis)
    assert stacked.shape == (4,)
    for k, value in zip(ks, stacked):
        assert value == free_kraus_defect(k, basis)
        assert abs(value - ref_kraus_defect(k, basis, 1e-8)) <= 4.5e-16
    assert isinstance(free_kraus_defect(ks[0], basis), float)


# -- chunking ------------------------------------------------------------


def chunk_points(monkeypatch, width, points):
    """Make every chunk of an analysis whose widest stack is (points, width,
    width) hold `points` points: width is d for every grid analysis."""
    monkeypatch.setattr(dynamics, "GRID_CHUNK_BYTES", points * 16 * width ** 2)


def test_chunked_grid_matches_unchunked(monkeypatch):
    d = 4
    h, pair, rho, _ = real_instance(d, "unbroken", seed=77)
    hc, pairc, rhoc, _ = real_instance(d, "complex", seed=78)
    grid = TimeGrid(0.0, 6.0, 11)
    c = 0.8 * uniform_bound(pt_canonical_form(h, pair))

    def run():
        return (invariant_report(h, pair, rho, grid), invariant_report(hc, pairc, rhoc, grid),
                embedded_evolution_check(h, pair, rho, grid),
                verify_free_evolution(h, pair, c, grid))

    whole = run()
    assert len(list(dynamics._grid_chunks(11, d))) == 1
    assert len(list(dynamics._grid_chunks(11, 2 * d))) == 1
    chunk_points(monkeypatch, d, 3)
    assert [s.stop for s in dynamics._grid_chunks(11, d)] == [3, 6, 9, 11]
    # the same budget holds one point of a (2d, 2d) stack per chunk
    assert [s.stop for s in dynamics._grid_chunks(11, 2 * d)] == list(range(1, 12))
    chunked = run()
    for a, b in zip(whole[:2], chunked[:2]):
        np.testing.assert_array_equal(a.coefficient_series, b.coefficient_series)
        np.testing.assert_allclose(a.eta_trace_series, b.eta_trace_series, rtol=1e-15)
        assert a.drift.keys() == b.drift.keys()
        for key in a.drift:
            assert a.drift[key] == pytest.approx(b.drift[key], rel=1e-12, abs=1e-15)
    np.testing.assert_array_equal(whole[2].success_probabilities,
                                  chunked[2].success_probabilities)
    for field in ("max_deviation", "unitarity_residual", "checked_time"):
        assert getattr(whole[2], field) == getattr(chunked[2], field)
    assert whole[3] == chunked[3]


def test_chunk_budget_bounds_points_not_grid():
    # the chunk size depends on the stack width only, never on the grid length
    for d in (2, 8, 400):
        for width in (d, 2 * d):
            sizes = {s.stop - s.start for s in dynamics._grid_chunks(10_000, width)}
            per_point = 16 * width ** 2
            assert max(sizes) * per_point <= max(dynamics.GRID_CHUNK_BYTES, per_point)


def test_chunks_are_sized_per_analysis(monkeypatch):
    # at d = 8 the byte budget holds 128 points of a (points, 8, 8) stack,
    # the widest stack of every grid analysis
    h, pair, rho, _ = real_instance(8, "unbroken", seed=80)
    dec = pt_canonical_form(h, pair)
    counts = []
    original = dynamics._grid_chunks

    def counted(num_points, width):
        slices = list(original(num_points, width))
        counts.append(len(slices))
        return slices

    for module in (dynamics, dilation, superposition):
        monkeypatch.setattr(module, "_grid_chunks", counted)
    invariant_report(h, pair, rho, decomp=dec)
    verify_free_evolution(h, pair, uniform_bound(dec), decomp=dec)
    embedded_evolution_check(h, pair, rho, decomp=dec)
    assert counts == [2, 2, 2]


@pytest.mark.parametrize("d", (2, 5, 8, 16))
def test_dilation_norms_match_svd_reference(d):
    # the Hermitian norms taken from eigvalsh agree with SVD-based ones
    h, pair, rho, _ = real_instance(d, "unbroken", seed=10 * d + 1)
    dec = pt_canonical_form(h, pair)
    c = uniform_bound(dec)
    times = default_grid().times
    u = propagator_stack(dec, times)
    dil = halmos_dilation(u, c)
    gram = dil.V.conj().swapaxes(-1, -2) @ dil.V - np.eye(2 * d)
    residuals = np.linalg.svd(gram, compute_uv=False)[:, 0]
    assert np.max(np.abs(dil.unitarity_residual - residuals)) <= 1e-15

    # the embedded check's quantities, at its checked point of the same U stack
    rho = validate_density(rho)
    cu = c * u
    prob = np.trace(cu @ rho @ cu.conj().swapaxes(-1, -2), axis1=1, axis2=2).real
    k = int(np.argmax(np.linalg.svd(cu, compute_uv=False)[:, 0]))
    column = dil.V[k][:, :d]
    dilated = column @ rho @ column.conj().T
    delta = (dilated[:d, :d] / np.trace(dilated[:d, :d]).real
             - cu[k] @ rho @ cu[k].conj().T / prob[k])
    distance = 0.5 * np.sum(np.linalg.svd(delta, compute_uv=False))
    residual = max(residuals[k], abs(np.trace(dilated).real - np.trace(rho).real))
    rep = embedded_evolution_check(h, pair, rho, decomp=dec)
    assert rep.checked_time == times[k]
    assert abs(rep.max_deviation - distance) <= 1e-15
    assert abs(rep.unitarity_residual - residual) <= 1e-15
    np.testing.assert_array_equal(rep.success_probabilities, prob)


# -- error contract on grids ---------------------------------------------


def test_post_selection_error_names_first_failing_t(monkeypatch):
    h, pair, rho, _ = real_instance(3, "unbroken", seed=33)
    dec = pt_canonical_form(h, pair)
    times = default_grid().times
    weight = np.array([np.trace(u @ rho @ u.conj().T).real
                       for u in (sla.expm(-1j * t * h) for t in times)])
    assert weight.min() < 0.9
    # c^2 weight(0) = c^2 clears the 1e-12 floor; c^2 min(weight) does not
    c = np.sqrt(1e-12 / np.sqrt(weight.min()))
    slack = c / uniform_bound(dec, 0.5) * 0.5
    first = int(np.flatnonzero(c * c * weight < 1e-12)[0])
    assert first > 0
    for points in (None, first, 2):
        if points is not None:
            chunk_points(monkeypatch, 3, points)
        with pytest.raises(DegeneratePostSelectionError, match=f"t = {times[first]:.6f}"):
            embedded_evolution_check(h, pair, rho, slack=slack)


def test_contraction_error_names_first_failing_t(monkeypatch):
    h, pair, rho, _ = real_instance(3, "unbroken", seed=22)
    dec = pt_canonical_form(h, pair)
    times = default_grid().times
    norms = np.array([np.linalg.norm(propagator(h, t), 2) for t in times])
    assert norms.max() > 1.1
    c = 1.0 / np.sqrt(norms.max())
    first = int(np.flatnonzero(1.0 - (c * norms) ** 2 < -1e-10)[0])
    assert first > 0
    monkeypatch.setattr(dilation, "uniform_bound", lambda decomp, slack: c)
    for points in (None, first, 5):
        if points is not None:
            chunk_points(monkeypatch, 3, points)
        with pytest.raises(PreconditionError, match=f"t = {times[first]:.6f}"):
            embedded_evolution_check(h, pair, rho, decomp=dec)
    rep = verify_free_evolution(h, pair, c, decomp=dec)
    assert not rep.ok and rep.min_contraction_margin < -1e-8


def _write_matrix(path, a):
    a = np.asarray(a, dtype=complex)
    rows = [[[float(z.real), float(z.imag)] for z in row] for row in a]
    path.write_text(json.dumps({"dim": a.shape[0], "rows": rows}))
    return str(path)


@pytest.mark.filterwarnings("error")
def test_overflowing_grid_is_a_numerical_error(tmp_path, capsys):
    r, s, theta = 1.0, 0.5, 1.2
    h = np.array([[r * np.exp(1j * theta), s], [s, r * np.exp(-1j * theta)]])
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    rho = np.diag([0.5, 0.5])
    files = [_write_matrix(tmp_path / f"{n}.json", a)
             for n, a in (("h", h), ("p", sx), ("t", np.eye(2)), ("rho", rho))]
    code = cli.main(["invariants", *files, "--t-end", "1e3"])
    err = capsys.readouterr().err
    assert code == 4
    lines = err.splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert doc["error"] == "numerical"
    # the named t is the first grid point whose evolved density overflows
    dec = pt_canonical_form(h, validate_pt_pair(sx, np.eye(2)))
    times = TimeGrid(0.0, 1e3, 201).times
    with np.errstate(over="ignore", invalid="ignore"):
        finite = [np.all(np.isfinite(u @ rho @ u.conj().T))
                  for u in (ref_propagator(dec, t) for t in times)]
    first = finite.index(False)
    assert f"t = {times[first]:.6f}" in doc["detail"]
    with pytest.raises(NumericalError):
        propagator_stack(dec, times[-1:])


# -- a decomposition bound to its H ---------------------------------------


@pytest.mark.parametrize("foreign", ["shifted", "resampled"])
def test_analyses_reject_the_decomposition_of_another_hamiltonian(foreign):
    """Given the decomposition of H_b, every analysis of H_a would report
    on H_b's dynamics, and its self-consistency checks would pass."""
    h, pair, rho, _ = real_instance(8, "unbroken", seed=17)
    other = h + np.eye(8) if foreign == "shifted" else real_instance(8, "unbroken", seed=18)[0]
    assert np.linalg.norm(h - other, 2) >= 1.0 - 1e-12
    decomp = pt_canonical_form(other, pair)
    grid = TimeGrid(0.0, 5.0, 11)
    analyses = {
        "invariants": lambda dec: invariant_report(h, pair, rho, grid, decomp=dec),
        "dilation": lambda dec: embedded_evolution_check(h, pair, rho, grid, decomp=dec),
        "free": lambda dec: verify_free_evolution(h, pair, 0.5 * uniform_bound(dec), grid,
                                                  decomp=dec),
    }
    for name, run in analyses.items():
        with pytest.raises(ValidationError, match="another H"):
            run(decomp)
        run(pt_canonical_form(h, pair))


def test_analyses_reject_a_decomposition_built_under_another_pt():
    """H is PT-symmetric under both (I, I) and (flip, I); a decomposition
    built under the flip, given with the pair (I, I), would be read while
    the pair passed in is ignored."""
    h = np.array([[1.0, 0.5, 0.0], [0.5, 2.0, 0.5], [0.0, 0.5, 1.0]])
    pair = validate_pt_pair(np.eye(3), np.eye(3))
    flipped = pt_canonical_form(h, validate_pt_pair(np.eye(3)[::-1], np.eye(3)))
    rho = np.eye(3) / 3
    grid = TimeGrid(0.0, 1.0, 5)
    c = 0.5 * uniform_bound(flipped)
    analyses = {
        "invariants": lambda dec: invariant_report(h, pair, rho, grid, decomp=dec),
        "dilation": lambda dec: embedded_evolution_check(h, pair, rho, grid, decomp=dec),
        "free": lambda dec: verify_free_evolution(h, pair, c, grid, decomp=dec),
    }
    for name, run in analyses.items():
        with pytest.raises(ValidationError, match="^decomp was built under another PT$"):
            run(flipped)
        run(pt_canonical_form(h, pair))


def _moved_blocks(decomp, shift):
    """decomp with the eigenvalue of every block moved by shift."""
    return dataclasses.replace(decomp, blocks=tuple(
        dataclasses.replace(b, eigenvalue=b.eigenvalue + shift) for b in decomp.blocks))


def test_analyses_reject_a_decomposition_whose_layout_was_moved():
    """A decomposition of H itself whose block eigenvalues, and with them
    its layout and J, are shifted by 1e-3 evolves by another H: at d = 4
    its propagator is 1.4e-2 from expm(-10iH) at t = 10. Each analysis
    re-runs the residual gate the decomposition passed when it was built,
    with J and K from its layout and the can_tol it was built with, and
    names both residuals. The same shift cannot be made in place: the
    layout's eigenvalues are read-only."""
    h, pair, rho, _ = real_instance(4, "unbroken", seed=17)
    decomp = pt_canonical_form(h, pair)
    moved = _moved_blocks(decomp, 1e-3)
    assert np.array_equal(moved.hamiltonian, h)
    drift = np.linalg.norm(propagator_stack(moved, np.array([10.0]))[0]
                           - sla.expm(-10j * h), 2)
    assert drift > 1e-2
    similarity = operator_norm(np.linalg.solve(decomp.Psi, h @ decomp.Psi) - moved.J)
    k_relation = operator_norm(pair.pt @ np.conj(decomp.Psi) - decomp.Psi @ decomp.K)
    message = (f"canonical residuals exceed tolerance (similarity {similarity:.3e}, "
               f"K-relation {k_relation:.3e})")
    grid = TimeGrid(0.0, 10.0, 11)
    c = 0.5 * uniform_bound(decomp)
    analyses = {
        "invariants": lambda dec: invariant_report(h, pair, rho, grid, decomp=dec),
        "dilation": lambda dec: embedded_evolution_check(h, pair, rho, grid, decomp=dec),
        "free": lambda dec: verify_free_evolution(h, pair, c, grid, decomp=dec),
    }
    for name, run in analyses.items():
        with pytest.raises(IllConditionedError) as err:
            run(moved)
        assert str(err.value) == message, name
        run(decomp)
    with pytest.raises(ValueError, match="read-only"):
        decomp.layout.eigenvalues[:] += 1e-3


def test_a_given_decomposition_is_gated_at_the_can_tol_it_was_built_with():
    """A decomposition built at a looser can_tol passes the analyses'
    re-run gate at that can_tol, not at the default one."""
    h, pair, rho, _ = real_instance(4, "unbroken", seed=17)
    decomp = pt_canonical_form(h, pair, can_tol=1e-2)
    moved = _moved_blocks(decomp, 1e-3)
    assert moved.can_tol == 1e-2
    invariant_report(h, pair, rho, TimeGrid(0.0, 1.0, 3), decomp=moved)


# -- one decomposition per command ---------------------------------------


def _cli_files(tmp_path):
    h, pair, rho, _ = real_instance(3, "unbroken", seed=31)
    return [_write_matrix(tmp_path / f"{n}.json", a)
            for n, a in (("h", h), ("p", pair.parity), ("t", pair.time_reversal),
                         ("rho", rho))]


@pytest.mark.parametrize("extra", [[], ["--c", "0.5"]])
def test_free_check_decomposes_once(tmp_path, monkeypatch, capsys, extra):
    calls = []
    original = ptqm.pt_canonical_form

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return original(*args, **kwargs)

    monkeypatch.setattr(ptqm, "pt_canonical_form", counted)
    monkeypatch.setattr("ptqm.canonical.pt_canonical_form", counted)
    files = _cli_files(tmp_path)[:3]
    assert cli.main(["free-check", *files, "--num-points", "5", *extra]) == 0
    assert len(calls) == 1
    assert json.loads(capsys.readouterr().out)["ok"] is True


@pytest.mark.parametrize("command", ["dilate", "free-check", "invariants"])
def test_grid_commands_honour_canonical_tolerances(tmp_path, capsys, command):
    files = _cli_files(tmp_path)
    files = files[:3] if command == "free-check" else files
    assert cli.main([command, *files, "--num-points", "5"]) == 0
    capsys.readouterr()
    # a residual bound no decomposition can meet reaches the canonical form
    assert cli.main([command, *files, "--num-points", "5", "--can-tol", "1e-300"]) == 4
    assert json.loads(capsys.readouterr().err)["error"] == "numerical"


def test_invariants_honour_metric_tolerance(tmp_path, capsys):
    files = _cli_files(tmp_path)
    # an intertwining bound no metric can meet reaches build_metric
    assert cli.main(["invariants", *files, "--num-points", "5", "--met-tol", "1e-300"]) == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "numerical" and "intertwining" in err["detail"]


def test_decomposition_carries_operator_norm():
    h, pair, _, _ = real_instance(5, "complex", seed=41)
    dec = pt_canonical_form(h, pair)
    assert dec.h_norm == float(np.linalg.norm(h, 2))
