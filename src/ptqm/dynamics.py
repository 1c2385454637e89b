"""Time evolution under e^{-itH} and invariant tracking.

Evolution of a density matrix is the unnormalized conjugation
rho -> U(t) rho U(t)^dag. In the broken regime the trace grows or
decays exponentially; silently renormalizing would mask exactly the
behavior the invariants quantify, so normalization is a separate,
explicit step.

In the canonical eigenbasis the coefficient matrix evolves as
R(t) = e^{-itJ} R e^{itJ^dag}, which makes the conserved combinations
readable off the block structure: an entry R[a,b] is constant when its
column eigenvalues satisfy lam_a = conj(lam_b), and the anti-diagonal
sum of every Jordan or conjugate-pair unit is constant because the
reversal matrix satisfies S e^{itJ^dag} S = e^{itJ} block by block.
Tr(eta rho(t)) is constant for every intertwining metric.

A whole time grid is evaluated in one stacked step rather than point
by point: U[t] = Psi E(t) Psi^-1 with E(t) = e^{-itJ} in closed form
(Higham, Functions of Matrices, SIAM 2008, ch. 1), with Psi factorised
once for the whole stack. Long grids are processed in chunks of time
points so that memory stays bounded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .canonical import CanonicalDecomposition, SpectralClass, pt_canonical_form
from .errors import (DimensionError, InvalidDensityError, NumericalError, PreconditionError,
                     ValidationError)
from .linalg import as_square, dagger, first_index, matrix_exponential, solve_stack
from .metric import MetricOperator, SignCharacteristic, basis_coefficients, build_metric
from .symmetry import PTPair

OVERFLOW_EXPONENT = 30.0
# byte budget of the widest stacked complex array a grid analysis builds per chunk
GRID_CHUNK_BYTES = 1 << 17
# largest accepted grid: every grid analysis holds its per-point series in memory
MAX_GRID_POINTS = 1_000_000
# smallest |trace| that normalize_density divides by
NORMALIZE_FLOOR = 1e-12


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time samples on [t_start, t_end]."""

    t_start: float
    t_end: float
    num_points: int

    def __post_init__(self):
        if self.num_points < 1:
            raise ValidationError("num_points must be at least 1")
        if self.num_points > MAX_GRID_POINTS:
            raise ValidationError(f"num_points must be at most {MAX_GRID_POINTS}")
        if not (np.isfinite(self.t_start) and np.isfinite(self.t_end)):
            raise ValidationError("grid endpoints must be finite")
        if self.num_points > 1 and self.t_end <= self.t_start:
            raise ValidationError("t_end must exceed t_start")
        if self.t_end < self.t_start:
            raise ValidationError("t_end must not precede t_start")

    @property
    def times(self) -> np.ndarray:
        return np.linspace(self.t_start, self.t_end, self.num_points)


def default_grid() -> TimeGrid:
    """201 points on [0, 10]: resolves O(1) eigenvalue-gap oscillations
    while keeping full runs sub-second."""
    return TimeGrid(0.0, 10.0, 201)


@dataclass(frozen=True)
class InvariantReport:
    times: np.ndarray
    coefficient_series: np.ndarray
    eta_trace_series: np.ndarray
    case_tag: SpectralClass
    drift: dict
    overflow_risk: bool
    t_cap: float | None
    decomposition: CanonicalDecomposition
    metric: MetricOperator


def _grid_chunks(num_points: int, width: int):
    """Slices that cover a time grid in order, chunk by chunk.

    width is the size of the widest matrices the calling analysis
    stacks per point: d for invariant_report and verify_free_evolution,
    whose stacks are (points, d, d), and 2d for embedded_evolution_check,
    which stacks the dilations V(t). A chunk holds as many points as
    fit one stacked (points, width, width) complex array into
    GRID_CHUNK_BYTES; at least one point per chunk. Memory then stays
    bounded whatever the grid length.
    """
    step = max(1, GRID_CHUNK_BYTES // (16 * width ** 2))
    for start in range(0, num_points, step):
        yield slice(start, min(start + step, num_points))


def _require_finite(stack: np.ndarray, times: np.ndarray, what: str) -> None:
    """Raise NumericalError naming the first t whose matrix is not finite."""
    bad = first_index(~np.isfinite(stack).all(axis=(-2, -1)))
    if bad is not None:
        raise NumericalError(f"{what} is not finite at t = {times[bad]:.6f}")


def _exponential_stack(decomp: CanonicalDecomposition, s: np.ndarray) -> np.ndarray:
    """e^{s J} for every entry of s, shape (len(s), d, d).

    Each Jordan block J_n(lam) contributes e^{s lam} s^k / k! on its
    k-th superdiagonal (N nilpotent, e^{sN} = sum_k s^k N^k / k!).
    """
    lams = decomp.layout.eigenvalues
    d = lams.shape[0]
    phase = np.exp(np.multiply.outer(s, lams))
    out = np.zeros((s.shape[0], d, d), dtype=complex)
    out[:, np.arange(d), np.arange(d)] = phase
    for offset, length in decomp.layout.chains:
        coeff = np.ones_like(s)
        for k in range(1, length):
            coeff = coeff * s / k
            rows = np.arange(offset, offset + length - k)
            out[:, rows, rows + k] = phase[:, rows] * coeff[:, None]
    return out


def _closed_form_stack(decomp: CanonicalDecomposition, times: np.ndarray) -> np.ndarray:
    """Psi e^{-itJ} Psi^-1 for every t; entries that overflow stay inf or nan.

    The right division by Psi is one solve_stack against Psi^T, so Psi
    is factorised once per stack; a point that overflows leaves the
    others untouched.
    """
    psi = decomp.Psi
    with np.errstate(over="ignore", invalid="ignore"):
        e = _exponential_stack(decomp, -1j * times)
        return solve_stack(psi.T, (psi @ e).swapaxes(-1, -2)).swapaxes(-1, -2)


def propagator_stack(decomp: CanonicalDecomposition, times) -> np.ndarray:
    """U(t) = Psi e^{-itJ} Psi^-1 for every t in times, shape (len(times), d, d).

    The closed form avoids the squaring error growth of the dense route
    when t ||H|| is large. Overflow raises NumericalError naming the
    first t whose propagator is not finite.
    """
    times = np.asarray(times, dtype=float)
    u = _closed_form_stack(decomp, times)
    _require_finite(u, times, "propagator")
    return u


def propagator(h, t: float, decomp: CanonicalDecomposition | None = None) -> np.ndarray:
    """U(t) = e^{-itH}.

    Given the canonical decomposition of the same H, this is the
    one-point case of propagator_stack; otherwise the dense
    scaling-and-squaring exponential of H.
    """
    if decomp is None:
        return matrix_exponential(h, -1j * float(t))
    return propagator_stack(decomp, [float(t)])[0]


def validate_density(rho, tol: float = 1e-10) -> np.ndarray:
    """Check Hermiticity, positive semidefiniteness, and unit trace."""
    m = as_square(rho, "rho")
    scale = max(1.0, float(np.linalg.norm(m, 2)))
    if np.linalg.norm(m - m.conj().T, 2) > tol * scale:
        raise InvalidDensityError("density matrix is not Hermitian")
    m = 0.5 * (m + m.conj().T)
    if float(np.linalg.eigvalsh(m)[0]) < -tol * scale:
        raise InvalidDensityError("density matrix is not positive semidefinite")
    if abs(np.trace(m).real - 1.0) > tol:
        raise InvalidDensityError("density matrix trace is not 1")
    return m


def _matching_density(rho, h: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """validate_density, plus a DimensionError when rho and H differ in size."""
    m = validate_density(rho, tol)
    if m.shape != h.shape:
        raise DimensionError(f"rho dimension {m.shape} does not match H {h.shape}")
    return m


def evolve_density(rho, h, t: float, val_tol: float = 1e-10,
                   decomp: CanonicalDecomposition | None = None) -> np.ndarray:
    """U(t) rho U(t)^dag, not renormalized.

    An evolution that overflows raises NumericalError naming t.
    """
    m = _matching_density(rho, as_square(h, "H"), val_tol)
    with np.errstate(over="ignore", invalid="ignore"):
        u = propagator(h, t, decomp)
        rho_t = u @ m @ u.conj().T
    _require_finite(rho_t[np.newaxis], np.array([float(t)]), "evolved density")
    return rho_t


def normalize_density(rho) -> np.ndarray:
    """Divide by the trace; errors when the trace has collapsed."""
    m = as_square(rho, "rho")
    tr = complex(np.trace(m)).real
    if abs(tr) < NORMALIZE_FLOOR:
        raise PreconditionError(f"trace {tr:.3e} is below the normalization floor")
    return m / tr


def invariant_report(h, pair: PTPair, rho, grid: TimeGrid | None = None,
                     signs: SignCharacteristic | None = None,
                     tol: float = 1e-8, *,
                     cluster_tol: float | None = None,
                     val_tol: float = 1e-10,
                     met_tol: float = 1e-8,
                     decomp: CanonicalDecomposition | None = None) -> InvariantReport:
    """Track the conserved coefficient combinations along the evolution.

    The drift of an invariant is the maximum absolute deviation of its
    series from the t = 0 value. Which entries are tracked follows
    from the detected block structure; Tr(eta rho(t)) is always
    tracked. In broken cases with t ||H|| beyond the overflow exponent
    the report flags overflow risk and computes drift only on the
    usable part of the grid. The evolved states, their coefficient
    matrices and the eta-trace series are computed for the whole grid
    at once; an evolution that overflows raises NumericalError naming
    the first t where it does. The decomposition of H is computed here
    at tol and cluster_tol unless decomp is given; val_tol bounds the
    validation of rho and met_tol the metric's intertwining defect.
    """
    h = as_square(h, "H")
    rho = _matching_density(rho, h, val_tol)
    grid = grid if grid is not None else default_grid()

    if decomp is None:
        decomp = pt_canonical_form(h, pair, tol, cluster_tol=cluster_tol)
    met = build_metric(decomp, signs, met_tol)
    times = grid.times

    d = h.shape[0]
    series = np.empty((len(times), d, d), dtype=complex)
    traces = np.empty(len(times), dtype=complex)
    for chunk in _grid_chunks(len(times), d):
        u = _closed_form_stack(decomp, times[chunk])
        with np.errstate(over="ignore", invalid="ignore"):
            rho_t = u @ rho @ dagger(u)
        # an overflowed entry of U leaves rho_t non-finite as well
        _require_finite(rho_t, times[chunk], "evolved density")
        series[chunk] = basis_coefficients(rho_t, decomp)
        traces[chunk] = np.einsum("ij,tji->t", met.eta, rho_t)

    h_norm = decomp.h_norm
    overflow = False
    t_cap = None
    usable = np.ones(len(times), dtype=bool)
    if not decomp.spectral_class.unbroken and h_norm > 0:
        t_cap = OVERFLOW_EXPONENT / h_norm
        if float(np.max(np.abs(times))) > t_cap:
            overflow = True
            usable = np.abs(times) <= t_cap

    scale = max(1.0, h_norm)
    layout = decomp.layout
    lams = layout.eigenvalues
    # an order-1 unit is one column, or two for a pair: chains of length 1
    simple = [offset for offset, length in layout.chains if length == 1]

    drift: dict[str, float] = {}

    def record(key, values):
        drift[key] = float(np.max(np.abs(values[usable] - values[0])))

    record("eta_trace", traces)
    for a in simple:
        for b in simple:
            if abs(lams[a] - np.conj(lams[b])) <= tol * scale:
                record(f"R_{a + 1}_{b + 1}", series[:, a, b])
    for block, (offset, span) in zip(decomp.blocks, layout.units):
        if block.order == 1:
            continue
        idx = [(offset + i, offset + span - 1 - i) for i in range(span)]
        key = "+".join(f"R_{a + 1}_{b + 1}" for a, b in idx)
        values = np.sum([series[:, a, b] for a, b in idx], axis=0)
        record(key, values)

    return InvariantReport(
        times=times,
        coefficient_series=series,
        eta_trace_series=traces,
        case_tag=decomp.spectral_class,
        drift=drift,
        overflow_risk=overflow,
        t_cap=t_cap,
        decomposition=decomp,
        metric=met,
    )
