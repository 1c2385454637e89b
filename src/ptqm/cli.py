"""Command-line interface over JSON matrix files.

Subcommands: classify, canonical, metric, inner, evolve, invariants,
bender-sweep, stokes, dilate, free-check. Reports go to stdout (or
--output) as JSON, time and parameter series as CSV. Errors are
machine-readable JSON on stderr with exit codes: 0 success, 2
validation or parse failure, 3 domain precondition failure, 4
numerical failure. Identical inputs and configuration produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import config as cfgmod
from .bender import critical_sweep, stokes_vector
from .canonical import pt_canonical_form
from .dilation import embedded_evolution_check, uniform_bound
from .dynamics import TimeGrid, evolve_density, invariant_report, normalize_density, validate_density
from .errors import (
    BrokenRegimeError,
    BrokenSymmetryError,
    CriticalPointError,
    DegeneratePostSelectionError,
    NotPTSymmetricError,
    NumericalError,
    ParseError,
    PreconditionError,
    ValidationError,
)
from .matio import (
    load_matrix_file,
    load_vector_file,
    matrix_to_rows,
    render_csv,
    render_json,
)
from .metric import build_metric, eta_inner, verify_metric, SignCharacteristic
from .superposition import verify_free_evolution
from .symmetry import is_pt_symmetric, validate_pt_pair


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as validation errors."""

    def error(self, message):
        raise ValidationError(message)


def _add_common(sub):
    sub.add_argument("--config", default=None, help="config file path")
    sub.add_argument("--output", "-o", default=None, help="write main output here")
    for flag, dest in (("--tol", "tol"), ("--cluster-tol", "cluster_tol"),
                       ("--rank-tol", "rank_tol"), ("--val-tol", "val_tol"),
                       ("--met-tol", "met_tol"), ("--can-tol", "can_tol"),
                       ("--crit-tol", "crit_tol"), ("--free-tol", "free_tol"),
                       ("--slack", "slack")):
        sub.add_argument(flag, dest=dest, type=float, default=None)


def _add_grid(sub):
    sub.add_argument("--t-start", dest="t_start", type=float, default=None)
    sub.add_argument("--t-end", dest="t_end", type=float, default=None)
    sub.add_argument("--num-points", dest="num_points", type=int, default=None)


def _add_signs(sub):
    sub.add_argument("--signs", default=None,
                     help="comma-separated +-1 per real block")


def build_parser() -> _Parser:
    parser = _Parser(prog="ptqm", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("classify", help="spectral classification report")
    sp.add_argument("hamiltonian")
    sp.add_argument("parity")
    sp.add_argument("timereversal")
    _add_common(sp)
    sp.set_defaults(handler=cmd_classify)

    sp = subs.add_parser("canonical", help="canonical form (Psi, J, K)")
    sp.add_argument("hamiltonian")
    sp.add_argument("parity")
    sp.add_argument("timereversal")
    _add_common(sp)
    sp.set_defaults(handler=cmd_canonical)

    sp = subs.add_parser("metric", help="metric operator and positivity")
    sp.add_argument("hamiltonian")
    sp.add_argument("parity")
    sp.add_argument("timereversal")
    _add_common(sp)
    _add_signs(sp)
    sp.set_defaults(handler=cmd_metric)

    sp = subs.add_parser("inner", help="eta inner product of two vectors")
    sp.add_argument("hamiltonian")
    sp.add_argument("parity")
    sp.add_argument("timereversal")
    sp.add_argument("vector1")
    sp.add_argument("vector2")
    _add_common(sp)
    _add_signs(sp)
    sp.set_defaults(handler=cmd_inner)

    sp = subs.add_parser("evolve", help="evolve a density matrix to time t")
    sp.add_argument("hamiltonian")
    sp.add_argument("state")
    sp.add_argument("--t", type=float, required=True)
    sp.add_argument("--normalize", action="store_true")
    _add_common(sp)
    sp.set_defaults(handler=cmd_evolve)

    sp = subs.add_parser("invariants", help="conserved-coefficient time series")
    sp.add_argument("hamiltonian")
    sp.add_argument("parity")
    sp.add_argument("timereversal")
    sp.add_argument("state")
    _add_common(sp)
    _add_grid(sp)
    _add_signs(sp)
    sp.add_argument("--summary", default=None,
                    help="write drift summary JSON to this path")
    sp.set_defaults(handler=cmd_invariants)

    sp = subs.add_parser("bender-sweep", help="two-level family theta sweep")
    sp.add_argument("--r", type=float, required=True)
    sp.add_argument("--s", type=float, required=True)
    sp.add_argument("--theta-min", dest="theta_min", type=float, required=True)
    sp.add_argument("--theta-max", dest="theta_max", type=float, required=True)
    sp.add_argument("--steps", type=int, required=True)
    sp.add_argument("--probe", default=None,
                    help="re(x),im(x),re(y),im(y)")
    _add_common(sp)
    sp.set_defaults(handler=cmd_bender_sweep)

    sp = subs.add_parser("stokes", help="Stokes parameters of a two-component field")
    sp.add_argument("--ex", required=True, help="re,im")
    sp.add_argument("--ey", required=True, help="re,im")
    _add_common(sp)
    sp.set_defaults(handler=cmd_stokes)

    sp = subs.add_parser("dilate", help="post-selected embedding check")
    sp.add_argument("hamiltonian")
    sp.add_argument("parity")
    sp.add_argument("timereversal")
    sp.add_argument("state")
    _add_common(sp)
    _add_grid(sp)
    sp.set_defaults(handler=cmd_dilate)

    sp = subs.add_parser("free-check", help="free-operation property of c U(t)")
    sp.add_argument("hamiltonian")
    sp.add_argument("parity")
    sp.add_argument("timereversal")
    sp.add_argument("--c", type=float, default=None,
                    help="contraction scale; default from the uniform bound")
    _add_common(sp)
    _add_grid(sp)
    sp.set_defaults(handler=cmd_free_check)

    return parser


def _overrides(args) -> dict:
    names = ("tol", "cluster_tol", "rank_tol", "val_tol", "met_tol", "can_tol",
             "crit_tol", "free_tol", "slack",
             "t_start", "t_end", "num_points")
    out = {name: getattr(args, name, None) for name in names}
    signs_text = getattr(args, "signs", None)
    if signs_text is not None:
        out["signs"] = cfgmod.parse_signs(signs_text)
    probe_text = getattr(args, "probe", None)
    if probe_text is not None:
        out["probe"] = cfgmod.parse_probe(probe_text)
    return out


def _load_pair(args, cfg):
    p = load_matrix_file(args.parity)
    t = load_matrix_file(args.timereversal)
    return validate_pt_pair(p, t, cfg.val_tol)


def _decompose(h, pair, cfg):
    return pt_canonical_form(h, pair, cfg.tol, cluster_tol=cfg.cluster_tol,
                             rank_tol=cfg.rank_tol, can_tol=cfg.can_tol)


def _grid(cfg) -> TimeGrid:
    return TimeGrid(cfg.t_start, cfg.t_end, cfg.num_points)


def _signs_arg(cfg):
    if cfg.signs is None:
        return None
    return SignCharacteristic(tuple(int(v) for v in cfg.signs))


def _complex_pair(z: complex) -> list:
    return [float(z.real), float(z.imag)]


def _block_report(blocks) -> list:
    return [{"kind": b.kind, "eigenvalue": _complex_pair(b.eigenvalue),
             "order": int(b.order)} for b in blocks]


def _matrix_doc(a: np.ndarray) -> dict:
    return {"dim": int(a.shape[0]), "rows": matrix_to_rows(a)}


def _emit(args, text: str) -> None:
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        sys.stdout.flush()


def cmd_classify(args, cfg) -> None:
    h = load_matrix_file(args.hamiltonian)
    pair = _load_pair(args, cfg)
    ok, residual = is_pt_symmetric(h, pair, cfg.tol)
    if not ok:
        raise NotPTSymmetricError(f"H is not PT-symmetric (residual {residual:.6e})")
    decomp = _decompose(h, pair, cfg)
    report = {
        "pt_symmetric": True,
        "residual": residual,
        "class": decomp.spectral_class.tag,
        "blocks": _block_report(decomp.blocks),
        "eigenvalues": [_complex_pair(z) for z in decomp.layout.eigenvalues],
    }
    _emit(args, render_json(report) + "\n")


def cmd_canonical(args, cfg) -> None:
    h = load_matrix_file(args.hamiltonian)
    pair = _load_pair(args, cfg)
    decomp = _decompose(h, pair, cfg)
    report = {
        "class": decomp.spectral_class.tag,
        "blocks": _block_report(decomp.blocks),
        "Psi": _matrix_doc(decomp.Psi),
        "J": _matrix_doc(decomp.J),
        "K": _matrix_doc(decomp.K),
        "residuals": {key: float(val) for key, val in sorted(decomp.residuals.items())},
        "condition_number": float(decomp.condition_number),
        "warning": decomp.warning,
    }
    _emit(args, render_json(report) + "\n")


def cmd_metric(args, cfg) -> None:
    h = load_matrix_file(args.hamiltonian)
    pair = _load_pair(args, cfg)
    decomp = _decompose(h, pair, cfg)
    met = build_metric(decomp, _signs_arg(cfg), cfg.met_tol)
    report = {
        "eta": _matrix_doc(met.eta),
        "positive_definite": bool(met.positive_definite),
        "residual": float(verify_metric(h, met.eta)),
        "signs": [int(e) for e in met.signs.epsilons],
        "class": decomp.spectral_class.tag,
    }
    _emit(args, render_json(report) + "\n")


def cmd_inner(args, cfg) -> None:
    h = load_matrix_file(args.hamiltonian)
    pair = _load_pair(args, cfg)
    v1 = load_vector_file(args.vector1)
    v2 = load_vector_file(args.vector2)
    decomp = _decompose(h, pair, cfg)
    met = build_metric(decomp, _signs_arg(cfg), cfg.met_tol)
    value = eta_inner(v1, v2, met.eta)
    report = {
        "value": _complex_pair(value),
        "positive_definite": bool(met.positive_definite),
    }
    _emit(args, render_json(report) + "\n")


def cmd_evolve(args, cfg) -> None:
    h = load_matrix_file(args.hamiltonian)
    rho = load_matrix_file(args.state)
    rho = validate_density(rho, cfg.val_tol)
    rho_t = evolve_density(rho, h, args.t, cfg.val_tol)
    if args.normalize:
        rho_t = normalize_density(rho_t)
    trace = complex(np.trace(rho_t))
    report = {
        "t": float(args.t),
        "normalized": bool(args.normalize),
        "trace": _complex_pair(trace),
        "rho": _matrix_doc(rho_t),
    }
    _emit(args, render_json(report) + "\n")


def cmd_invariants(args, cfg) -> None:
    h = load_matrix_file(args.hamiltonian)
    pair = _load_pair(args, cfg)
    rho = validate_density(load_matrix_file(args.state))
    report = invariant_report(h, pair, rho, _grid(cfg), _signs_arg(cfg), cfg.tol,
                              met_tol=cfg.met_tol, decomp=_decompose(h, pair, cfg))
    d = report.coefficient_series.shape[1]
    header = ["t"]
    for i in range(d):
        for j in range(d):
            header.append(f"re_R_{i + 1}_{j + 1}")
            header.append(f"im_R_{i + 1}_{j + 1}")
    header.extend(["re_eta_trace", "im_eta_trace"])
    rows = []
    for k, t in enumerate(report.times):
        row = [float(t)]
        for i in range(d):
            for j in range(d):
                z = report.coefficient_series[k, i, j]
                row.extend([float(z.real), float(z.imag)])
        tr = report.eta_trace_series[k]
        row.extend([float(tr.real), float(tr.imag)])
        rows.append(row)
    _emit(args, render_csv(header, rows))
    if args.summary:
        summary = {
            "class": report.case_tag.tag,
            "drift": {key: float(val) for key, val in sorted(report.drift.items())},
            "overflow_risk": bool(report.overflow_risk),
            "t_cap": None if report.t_cap is None else float(report.t_cap),
        }
        with open(args.summary, "w", encoding="utf-8", newline="") as fh:
            fh.write(render_json(summary) + "\n")


def cmd_bender_sweep(args, cfg) -> None:
    if args.steps < 2:
        raise ValidationError("steps must be at least 2")
    if not args.theta_max > args.theta_min:
        raise ValidationError("theta-max must exceed theta-min")
    grid = np.linspace(args.theta_min, args.theta_max, args.steps)
    rows = critical_sweep(args.r, args.s, grid, cfg.probe, cfg.crit_tol, cfg.tol)
    header = ["theta", "class", "alpha", "S0", "S0_times_cos_alpha",
              "eigvec_overlap", "error"]
    table = []
    for row in rows:
        table.append([
            row.theta,
            row.classification,
            "" if row.alpha is None else row.alpha,
            "" if row.s0 is None else row.s0,
            "" if row.s0_cos_alpha is None else row.s0_cos_alpha,
            "" if row.overlap is None else row.overlap,
            row.error or "",
        ])
    _emit(args, render_csv(header, table))


def _parse_complex(text: str, name: str) -> complex:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise ValidationError(f"{name} must be re,im")
    try:
        return complex(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise ValidationError(f"cannot parse {name}: {text!r}") from exc


def cmd_stokes(args, cfg) -> None:
    ex = _parse_complex(args.ex, "--ex")
    ey = _parse_complex(args.ey, "--ey")
    sv = stokes_vector(ex, ey)
    report = {"S0": sv.S0, "S1": sv.S1, "S2": sv.S2, "S3": sv.S3}
    _emit(args, render_json(report) + "\n")


def cmd_dilate(args, cfg) -> None:
    h = load_matrix_file(args.hamiltonian)
    pair = _load_pair(args, cfg)
    rho = validate_density(load_matrix_file(args.state))
    report = embedded_evolution_check(h, pair, rho, _grid(cfg), cfg.slack,
                                      decomp=_decompose(h, pair, cfg))
    doc = {
        "c": float(report.c),
        "max_deviation": float(report.max_deviation),
        "max_unitarity_residual": float(np.max(report.unitarity_residuals)),
        "times": [float(t) for t in report.times],
        "success_probabilities": [float(p) for p in report.success_probabilities],
    }
    _emit(args, render_json(doc) + "\n")


def cmd_free_check(args, cfg) -> None:
    h = load_matrix_file(args.hamiltonian)
    pair = _load_pair(args, cfg)
    decomp = _decompose(h, pair, cfg)
    c = args.c
    if c is None:
        c = uniform_bound(decomp, cfg.slack)
    report = verify_free_evolution(h, pair, c, _grid(cfg), cfg.free_tol, decomp=decomp)
    doc = {
        "ok": bool(report.ok),
        "c": float(c),
        "worst_defect": float(report.worst_defect),
        "min_contraction_margin": float(report.min_contraction_margin),
    }
    _emit(args, render_json(doc) + "\n")


_PRECONDITION_KINDS = (
    (BrokenSymmetryError, "broken_hamiltonian"),
    (NotPTSymmetricError, "not_pt_symmetric"),
    (BrokenRegimeError, "broken_regime"),
    (CriticalPointError, "critical_point"),
    (DegeneratePostSelectionError, "degenerate_post_selection"),
)


def _fail(kind: str, exc: Exception) -> None:
    sys.stderr.write(render_json({"error": kind, "detail": str(exc)}) + "\n")
    sys.stderr.flush()


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = cfgmod.resolve_config(getattr(args, "config", None), _overrides(args))
        args.handler(args, cfg)
        return 0
    except ParseError as exc:
        _fail("parse", exc)
        return 2
    except ValidationError as exc:
        _fail("validation", exc)
        return 2
    except PreconditionError as exc:
        for klass, kind in _PRECONDITION_KINDS:
            if isinstance(exc, klass):
                _fail(kind, exc)
                break
        else:
            _fail("precondition", exc)
        return 3
    except NumericalError as exc:
        _fail("numerical", exc)
        return 4


if __name__ == "__main__":
    sys.exit(main())
