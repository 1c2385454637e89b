"""Whole-grid evaluation of the three time-grid analyses.

invariant_report, embedded_evolution_check and verify_free_evolution
evaluate every time point of a grid in one stacked step, chunk by
chunk. The references below are the per-point loops they replace: the
per-block exponential of the canonical form for the invariants, and the
dense exponential with one halmos_dilation or one Kraus-defect scan per
point for the dilation and the free-operation check.
"""

import json

import numpy as np
import pytest
import scipy.linalg as sla

import ptqm.dilation as dilation
import ptqm.dynamics as dynamics
import ptqm.superposition as superposition
from ptqm import cli
from ptqm.canonical import COMPLEX_PAIR, pt_canonical_form
from ptqm.dilation import embedded_evolution_check, halmos_dilation, uniform_bound
from ptqm.dynamics import (TimeGrid, default_grid, invariant_report, propagator, propagator_stack,
                           validate_density)
from ptqm.errors import DegeneratePostSelectionError, NumericalError, PreconditionError
from ptqm.metric import basis_coefficients
from ptqm.superposition import free_basis, free_kraus_defect, verify_free_evolution
from ptqm.symmetry import validate_pt_pair

DIMS = (2, 3, 4, 6, 8, 12, 16)
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


def ref_embedded(h, rho, times, c):
    """Deviation, probabilities and residuals, one dilation per point."""
    d = h.shape[0]
    rho = validate_density(rho)
    big = np.zeros((2 * d, 2 * d), dtype=complex)
    big[:d, :d] = rho
    devs, probs, residuals = [], [], []
    for t in times:
        u = sla.expm(-1j * t * h)
        dil = halmos_dilation(u, c)
        residuals.append(dil.unitarity_residual)
        top = (dil.V @ big @ dil.V.conj().T)[:d, :d]
        prob = float(np.trace(top).real)
        probs.append(prob)
        direct = u @ rho @ u.conj().T
        direct = direct / np.trace(direct).real
        devs.append(0.5 * float(np.sum(np.linalg.svd(top / prob - direct, compute_uv=False))))
    return max(devs), np.array(probs), np.array(residuals)


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


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("d", DIMS)
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
    dev, probs, residuals = ref_embedded(h, rho, rep.times, rep.c)
    assert abs(rep.max_deviation - dev) <= 1e-16
    assert np.max(np.abs(rep.success_probabilities - probs)) <= 4e-15
    assert np.max(np.abs(rep.unitarity_residuals - residuals)) <= 1e-14


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
    width) hold `points` points: width is d for the invariants and the
    free-operation check, 2d for the dilation."""
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
    # the same budget holds one (2d, 2d) dilation point per chunk
    assert [s.stop for s in dynamics._grid_chunks(11, 2 * d)] == list(range(1, 12))
    chunked = run()
    for a, b in zip(whole[:2], chunked[:2]):
        np.testing.assert_array_equal(a.coefficient_series, b.coefficient_series)
        np.testing.assert_allclose(a.eta_trace_series, b.eta_trace_series, rtol=1e-15)
        assert a.drift.keys() == b.drift.keys()
        for key in a.drift:
            assert a.drift[key] == pytest.approx(b.drift[key], rel=1e-12, abs=1e-15)
    for field in ("success_probabilities", "unitarity_residuals"):
        np.testing.assert_array_equal(getattr(whole[2], field), getattr(chunked[2], field))
    assert whole[2].max_deviation == chunked[2].max_deviation
    assert whole[3] == chunked[3]


def test_chunk_budget_bounds_points_not_grid():
    # the chunk size depends on the stack width only, never on the grid length
    for d in (2, 8, 400):
        for width in (d, 2 * d):
            sizes = {s.stop - s.start for s in dynamics._grid_chunks(10_000, width)}
            per_point = 16 * width ** 2
            assert max(sizes) * per_point <= max(dynamics.GRID_CHUNK_BYTES, per_point)


def test_chunks_are_sized_per_analysis(monkeypatch):
    # at d = 8 the byte budget holds 128 points of a (points, 8, 8) stack
    # and 32 of the dilation's (points, 16, 16) stack
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
    assert counts == [2, 2, 7]


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

    big = np.zeros((2 * d, 2 * d), dtype=complex)
    big[:d, :d] = rho
    top = (dil.V @ big @ dil.V.conj().swapaxes(-1, -2))[:, :d, :d]
    prob = np.trace(top, axis1=1, axis2=2).real
    direct = u @ rho @ u.conj().swapaxes(-1, -2)
    direct = direct / np.trace(direct, axis1=1, axis2=2).real[:, None, None]
    delta = top / prob[:, None, None] - direct
    distances = 0.5 * np.sum(np.linalg.svd(delta, compute_uv=False), axis=-1)
    rep = embedded_evolution_check(h, pair, rho, decomp=dec)
    assert abs(rep.max_deviation - np.max(distances)) <= 1e-15
    np.testing.assert_array_equal(rep.unitarity_residuals, dil.unitarity_residual)


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
            chunk_points(monkeypatch, 2 * 3, points)
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
            chunk_points(monkeypatch, 2 * 3, points)
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
        propagator(h, times[-1], dec)


# -- one decomposition per command ---------------------------------------


def _cli_files(tmp_path):
    h, pair, rho, _ = real_instance(3, "unbroken", seed=31)
    return [_write_matrix(tmp_path / f"{n}.json", a)
            for n, a in (("h", h), ("p", pair.parity), ("t", pair.time_reversal),
                         ("rho", rho))]


@pytest.mark.parametrize("extra", [[], ["--c", "0.5"]])
def test_free_check_decomposes_once(tmp_path, monkeypatch, capsys, extra):
    calls = []
    original = cli.pt_canonical_form

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "pt_canonical_form", counted)
    monkeypatch.setattr("ptqm.superposition.pt_canonical_form", counted)
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
