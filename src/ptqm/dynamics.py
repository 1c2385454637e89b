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

The functions that decompose H or build its metric import canonical and
metric where they call them, and symmetry is needed for its types only,
so that evolve_density loads none of the three.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import (DimensionError, InvalidDensityError, NumericalError, PreconditionError,
                     ValidationError)
from .linalg import (MAX_GRID_POINTS, _fixed_product, _within_scale, as_square, dagger,
                     first_index, matrix_exponential, solve_stack)

if TYPE_CHECKING:
    from .canonical import CanonicalDecomposition, SpectralClass
    from .metric import MetricOperator, SignCharacteristic
    from .symmetry import PTPair

OVERFLOW_EXPONENT = 30.0
# byte budget of the (points, d, d) complex stack a grid analysis builds per chunk
GRID_CHUNK_BYTES = 1 << 17
# smallest |trace| that normalize_density divides by
NORMALIZE_FLOOR = 1e-12


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time samples on [t_start, t_end]; num_points is an integer,
    a numpy integer included, but not a bool."""

    t_start: float
    t_end: float
    num_points: int

    def __post_init__(self):
        if isinstance(self.num_points, bool) or not isinstance(self.num_points, numbers.Integral):
            raise ValidationError("num_points must be an integer")
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


def _grid_chunks(num_points: int, d: int):
    """Slices that cover a time grid in order, chunk by chunk.

    A chunk holds as many points as fit one stacked (points, d, d)
    complex array into GRID_CHUNK_BYTES; at least one point per chunk.
    Memory then stays bounded whatever the grid length.
    """
    step = max(1, GRID_CHUNK_BYTES // (16 * d ** 2))
    for start in range(0, num_points, step):
        yield slice(start, min(start + step, num_points))


def _own_decomposition(h, pair: PTPair, decomp: CanonicalDecomposition | None,
                       **settings) -> CanonicalDecomposition:
    """The canonical decomposition of H at settings, unless decomp is
    given: the one decompose-or-check step of the three grid analyses.

    A given decomp must be the decomposition of H itself, built under the
    PT of pair (ValidationError otherwise): a caller given the
    decomposition of another H, or under another PT, would report on
    that decomposition and ignore its own input. It is not gated again:
    every CanonicalDecomposition passed its residual gate when it was
    made, dataclasses.replace() included, and its arrays are read-only.
    """
    from .canonical import pt_canonical_form

    if decomp is None:
        return pt_canonical_form(h, pair, **settings)
    if not np.array_equal(decomp.hamiltonian, h):
        raise ValidationError("decomp is the canonical decomposition of another H")
    if not np.array_equal(decomp.pt, pair.pt):
        raise ValidationError("decomp was built under another PT")
    return decomp


def _require_finite(stack: np.ndarray, times: np.ndarray, what: str) -> None:
    """Raise NumericalError naming the first t whose matrix is not finite."""
    finite = np.isfinite(stack)
    if not finite.all():
        bad = first_index(~finite.all(axis=(-2, -1)))
        raise NumericalError(f"{what} is not finite at t = {float(times[bad])!r}")


def _contraction_gaps(u: np.ndarray, c: float, times: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of I - c^2 U^dag U for each U of a stack, by one
    stacked eigvalsh: [:, 0] is the contraction margin at every t. A
    NumericalError names the first t where c^2 U^dag U is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        ku = c * u
        gram = dagger(ku) @ ku
    _require_finite(gram, times, "c^2 U^dag U")
    return np.linalg.eigvalsh(np.subtract(np.eye(u.shape[-1]), gram, out=gram))


def _exponential_stack(decomp: CanonicalDecomposition, s: np.ndarray) -> np.ndarray:
    """e^{s J} for every entry of s, shape (len(s), d, d).

    Each Jordan block J_n(lam) contributes e^{s lam} s^k / k! on its
    k-th superdiagonal (N nilpotent, e^{sN} = sum_k s^k N^k / k!).
    """
    lams = decomp.layout.eigenvalues
    d = lams.shape[0]
    phase = np.exp(np.multiply.outer(s, lams))
    out = np.zeros((s.shape[0], d, d), dtype=complex)
    out.reshape(-1, d * d)[:, ::d + 1] = phase  # the diagonals
    for offset, length in (chain for chain in decomp.layout.chains if chain[1] > 1):
        coeff = np.ones_like(s)
        for k in range(1, length):
            coeff = coeff * s / k
            rows = np.arange(offset, offset + length - k)
            out[:, rows, rows + k] = phase[:, rows] * coeff[:, None]
    return out


def _closed_form_stack(decomp: CanonicalDecomposition, times: np.ndarray) -> np.ndarray:
    """Psi e^{-itJ} Psi^-1 for every t, under the caller's np.errstate: one
    solve_stack against Psi^T divides by Psi, factorising it once per stack, and
    an overflowed point stays inf or nan without touching the others."""
    psi = decomp.Psi
    e = _exponential_stack(decomp, -1j * times)
    return solve_stack(psi.T, (psi @ e).swapaxes(-1, -2)).swapaxes(-1, -2)


def propagator_stack(decomp: CanonicalDecomposition, times) -> np.ndarray:
    """U(t) = Psi e^{-itJ} Psi^-1 for every t in times, shape (len(times), d, d).

    times must be one-dimensional (DimensionError otherwise). The closed
    form avoids the squaring error growth of the dense route when
    t ||H|| is large. Overflow raises NumericalError naming the first t
    whose propagator is not finite.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise DimensionError(f"times must be one-dimensional, got shape {times.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        u = _closed_form_stack(decomp, times)
    _require_finite(u, times, "propagator")
    return u


def propagator(h, t: float) -> np.ndarray:
    """U(t) = e^{-itH} by the dense scaling-and-squaring exponential of H.

    The closed form Psi e^{-itJ} Psi^-1 from a canonical decomposition
    is propagator_stack.
    """
    return matrix_exponential(h, -1j * float(t))


def validate_density(rho, tol: float = 1e-10) -> np.ndarray:
    """Check Hermiticity, positive semidefiniteness, and unit trace.

    tol must be positive; an infinite tol accepts any square matrix (an
    evolved density whose trace has drifted, say), a NaN is an error.

    The Hermiticity and positivity gates are relative to
    max(1, ||rho||_2); the Hermiticity gate follows the relative-scale
    rule of linalg._within_scale, and the exact ||rho||_2 is taken for
    the positivity gate only when the smallest eigenvalue lies below
    -tol.
    """
    if not tol > 0:
        raise ValidationError(f"tol must be positive, got {tol!r}")
    m = as_square(rho, "rho")
    if not _within_scale(m - m.conj().T, m, tol):
        raise InvalidDensityError("density matrix is not Hermitian")
    herm = 0.5 * (m + m.conj().T)
    lowest = float(np.linalg.eigvalsh(herm)[0])
    if lowest < -tol and lowest < -tol * max(1.0, float(np.linalg.norm(m, 2))):
        raise InvalidDensityError("density matrix is not positive semidefinite")
    if abs(np.trace(herm).real - 1.0) > tol:
        raise InvalidDensityError("density matrix trace is not 1")
    return herm


def _matching_density(rho, h: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """validate_density, plus a DimensionError when rho and H differ in size."""
    m = validate_density(rho, tol)
    if m.shape != h.shape:
        raise DimensionError(f"rho dimension {m.shape} does not match H {h.shape}")
    return m


def evolve_density(rho, h, t: float, val_tol: float = 1e-10) -> np.ndarray:
    """U(t) rho U(t)^dag with U(t) = propagator(h, t), not renormalized.

    An evolution that overflows raises NumericalError naming t.
    """
    m = _matching_density(rho, as_square(h, "H"), val_tol)
    with np.errstate(over="ignore", invalid="ignore"):
        u = propagator(h, t)
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
    series from its value at the first usable grid point (t = 0 on the
    default grid). Which entries are tracked follows from the detected
    block structure; Tr(eta rho(t)) is always tracked. In broken cases
    with t ||H|| beyond the overflow exponent the report flags overflow
    risk and computes drift only on the usable part of the grid, |t| <=
    t_cap; a grid with no point there raises PreconditionError. The
    evolved states, their coefficient matrices and the eta-trace series
    are computed for the whole grid at once; an evolution that overflows
    raises NumericalError naming the first t where it does, and so does
    a coefficient series too large for memory, naming the point count
    and d. The decomposition of H is computed here at tol and
    cluster_tol unless decomp is given, which must then be the
    decomposition of this H (ValidationError otherwise). val_tol bounds
    the validation of rho and met_tol the metric's intertwining defect.
    """
    from .metric import basis_coefficients, build_metric

    h = as_square(h, "H")
    rho = _matching_density(rho, h, val_tol)
    grid = grid if grid is not None else default_grid()

    decomp = _own_decomposition(h, pair, decomp, tol=tol, cluster_tol=cluster_tol)
    met = build_metric(decomp, signs, met_tol)
    times = grid.times

    d = h.shape[0]
    try:
        series = np.empty((len(times), d, d), dtype=complex)
    except MemoryError as exc:
        raise NumericalError(f"the coefficient series of {len(times)} points at d = {d} "
                             f"does not fit in memory") from exc
    traces = np.empty(len(times), dtype=complex)
    for chunk in _grid_chunks(len(times), d):
        with np.errstate(over="ignore", invalid="ignore"):
            u = _closed_form_stack(decomp, times[chunk])
            rho_t = _fixed_product(u, rho) @ dagger(u)
        # an overflowed entry of U leaves rho_t non-finite as well
        _require_finite(rho_t, times[chunk], "evolved density")
        series[chunk] = basis_coefficients(rho_t, decomp)
        traces[chunk] = np.einsum("ij,tji->t", met.eta, rho_t)

    h_norm = decomp.h_norm
    overflow, t_cap = False, None
    usable = slice(None)  # every point, unless t_cap cuts the grid
    if not decomp.spectral_class.unbroken and h_norm > 0:
        t_cap = OVERFLOW_EXPONENT / h_norm
        if float(np.max(np.abs(times))) > t_cap:
            overflow = True
            usable = np.abs(times) <= t_cap
            if not usable.any():
                raise PreconditionError(f"no grid point lies within t_cap = {float(t_cap)!r} "
                                        f"of t = 0, so no drift can be measured")

    lams = decomp.layout.eigenvalues.tolist()
    bound = tol * max(1.0, h_norm)
    # an order-1 unit is one column, or two for a pair: chains of length 1
    simple = [offset for offset, length in decomp.layout.chains if length == 1]
    # every tracked series by its key, in the order the report lists them
    tracked = {"eta_trace": traces, **{f"R_{a + 1}_{b + 1}": series[:, a, b]
                                       for a in simple for b in simple
                                       if abs(lams[a] - lams[b].conjugate()) <= bound}}
    for block, (offset, span) in zip(decomp.blocks, decomp.layout.units):
        if block.order > 1:
            idx = [(offset + i, offset + span - 1 - i) for i in range(span)]
            tracked["+".join(f"R_{a + 1}_{b + 1}" for a, b in idx)] = np.sum(
                [series[:, a, b] for a, b in idx], axis=0)
    kept = np.array(list(tracked.values()))[:, usable]
    drift = dict(zip(tracked, np.max(np.abs(kept - kept[:, :1]), axis=1).tolist()))

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
