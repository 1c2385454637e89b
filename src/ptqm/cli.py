"""Command-line interface over JSON matrix files.

Subcommands: classify, canonical, metric, inner, evolve, invariants,
bender-sweep, stokes, dilate, free-check. Reports go to stdout (or
--output) as JSON, time and parameter series as CSV. Errors are
machine-readable JSON on stderr with exit codes: 0 success, 2
validation or parse failure, 3 domain precondition failure, 4
numerical failure. Identical inputs and configuration produce
byte-identical output.

run() is the process entry of `python -m ptqm.cli` and of the installed
`ptqm` command: main() with Python's cyclic garbage collector switched
off, since a call's objects live until the process ends anyway, and
everything frozen before the interpreter finalizes, so that its last
collections skip them. main(argv) leaves the collector as it finds it.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import gc
import math
import os
import re
import stat
import sys
from contextlib import contextmanager
from typing import TYPE_CHECKING

# the BLAS fixes its thread count when numpy loads, and the rounding of a
# large product can depend on that count: one thread, unless the caller
# set a count, so that the output bytes do not depend on the machine
for _threads in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_threads, "1")

# the handlers call the library through the package's lazy exports, so a
# command line loads only the modules its subcommand calls into, and
# numpy only once it has read its input files
import ptqm

from . import config as cfgmod
from .errors import (MAX_GRID_POINTS, NumericalError, ParseError, PreconditionError,
                     ValidationError)
from .matio import csv_pieces, load_matrix_file, load_vector_file, render_csv, render_json

if TYPE_CHECKING:
    import numpy as np


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as validation errors. A
    subcommand's parser adds its arguments (the arguments of
    _add_arguments) when argparse first hands it a command line, so a
    call builds the one argument table it parses."""

    _pending = None

    def parse_known_args(self, args=None, namespace=None):
        if self._pending is not None:
            pending, self._pending = self._pending, None
            _add_arguments(self, *pending)
        return super().parse_known_args(args, namespace)

    def error(self, message):
        raise ValidationError(message)


_PAIR = ("hamiltonian", "parity", "timereversal")
_DECOMPOSE = ("val_tol", "tol", "cluster_tol", "rank_tol", "can_tol")
_GRID = ("t_start", "t_end", "num_points")
# the numbers in one block of a streamed CSV
_CSV_BLOCK_CELLS = 1 << 16


def _finite_float(text: str) -> float:
    """argparse type of every real-valued flag."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


# argparse keywords of the settings that are not plain floats
_SETTING_FLAGS = {
    "num_points": {"type": int},
    "signs": {"help": "comma-separated +-1 per real block"},
    "probe": {"help": "re(x),im(x),re(y),im(y)"},
}
# parsed after argparse: as a type= callable, their ValidationError (a
# ValueError) would be reworded by argparse
_SETTING_TEXT = {"signs": cfgmod.parse_signs, "probe": cfgmod.parse_probe}


def _commands() -> dict:
    """Subcommand -> (handler, help, positional arguments, its other
    arguments besides --config and --output as (flag, argparse keywords),
    the RunConfig fields it reads). Each field is a flag of the same name,
    --cluster-tol for cluster_tol; a subcommand accepts no other setting
    flag."""
    required_real = {"type": _finite_float, "required": True}
    return {
        "classify": (cmd_classify, "spectral classification report", _PAIR, (), _DECOMPOSE),
        "canonical": (cmd_canonical, "canonical form (Psi, J, K)", _PAIR, (), _DECOMPOSE),
        "metric": (cmd_metric, "metric operator and positivity", _PAIR, (),
                   _DECOMPOSE + ("met_tol", "signs")),
        "inner": (cmd_inner, "eta inner product of two vectors", _PAIR + ("vector1", "vector2"),
                  (), _DECOMPOSE + ("met_tol", "signs")),
        "evolve": (cmd_evolve, "evolve a density matrix to time t", ("hamiltonian", "state"),
                   (("--t", required_real), ("--normalize", {"action": "store_true"})),
                   ("val_tol",)),
        "invariants": (cmd_invariants, "conserved-coefficient time series", _PAIR + ("state",),
                       (("--summary", {"default": None,
                                       "help": "write drift summary JSON to this path"}),),
                       _DECOMPOSE + ("met_tol", "signs") + _GRID),
        "bender-sweep": (cmd_bender_sweep, "two-level family theta sweep", (),
                         tuple((flag, required_real)
                               for flag in ("--r", "--s", "--theta-min", "--theta-max"))
                         + (("--steps", {"type": int, "required": True}),),
                         ("tol", "crit_tol", "probe")),
        "stokes": (cmd_stokes, "Stokes parameters of a two-component field", (),
                   (("--ex", {"required": True, "help": "re,im"}),
                    ("--ey", {"required": True, "help": "re,im"})), ()),
        "dilate": (cmd_dilate, "post-selected embedding check", _PAIR + ("state",), (),
                   _DECOMPOSE + ("slack",) + _GRID),
        "free-check": (cmd_free_check, "free-operation property of c U(t)", _PAIR,
                       (("--c", {"type": _finite_float, "default": None,
                                 "help": "contraction scale; default from the uniform bound"}),),
                       _DECOMPOSE + ("slack", "free_tol") + _GRID),
    }


def _add_arguments(sub: _Parser, positionals: tuple, own: tuple, settings: tuple) -> None:
    for positional in positionals:
        sub.add_argument(positional)
    sub.add_argument("--config", default=None, help="config file path")
    sub.add_argument("--output", "-o", default=None, help="write main output here")
    for setting in settings:
        sub.add_argument("--" + setting.replace("_", "-"),
                         **_SETTING_FLAGS.get(setting, {"type": _finite_float}))
    for flag, keywords in own:
        sub.add_argument(flag, **keywords)


def build_parser() -> _Parser:
    # the help text is the docstring up to its last paragraph, on run()
    parser = _Parser(prog="ptqm", description=__doc__.rsplit("\n\n", 1)[0], allow_abbrev=False)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, *arguments) in _commands().items():
        sub = subs.add_parser(name, help=help_text, allow_abbrev=False)
        sub._pending = arguments
        sub.set_defaults(handler=handler)
    return parser


def _overrides(args) -> dict:
    """The RunConfig fields given as flags; None where a flag is absent
    or the subcommand has no such flag."""
    out = {f.name: getattr(args, f.name, None) for f in dataclasses.fields(cfgmod.RunConfig)}
    for name, parse in _SETTING_TEXT.items():
        if out[name] is not None:
            out[name] = parse(out[name])
    return out


@contextmanager
def _raising():
    """numpy, with overflow, invalid and divide set to raise: an overflow
    that no library check catches ends the run as a numerical failure,
    not as a numpy warning followed by a LAPACK error. A subcommand
    enters it once its input files are read."""
    import numpy as np

    with np.errstate(over="raise", invalid="raise", divide="raise"):
        yield np


@contextmanager
def _decomposed(args, cfg):
    """(pair, decomposition) of the command's H, P and T files, at the
    settings of cfg, inside _raising; the decomposition carries H as
    hamiltonian."""
    h = load_matrix_file(args.hamiltonian)
    p = load_matrix_file(args.parity)
    t = load_matrix_file(args.timereversal)
    with _raising():
        pair = ptqm.validate_pt_pair(p, t, cfg.val_tol)
        yield pair, ptqm.pt_canonical_form(h, pair, cfg.tol, cluster_tol=cfg.cluster_tol,
                                           rank_tol=cfg.rank_tol, can_tol=cfg.can_tol)


def _grid(cfg) -> ptqm.TimeGrid:
    return ptqm.TimeGrid(cfg.t_start, cfg.t_end, cfg.num_points)


def _signs_arg(cfg):
    if cfg.signs is None:
        return None
    return ptqm.SignCharacteristic(tuple(cfg.signs))


def _matrix_doc(a: np.ndarray) -> dict:
    # complex, so that a real matrix still renders as [re, im] pairs
    return {"dim": a.shape[0], "rows": a.astype(complex, copy=False)}


def _descriptor(path: str) -> int | None:
    """N when path, resolved link by link (each directory part through
    os.path.realpath, so . and doubled / too), reaches /dev/fd/N or
    /proc/self/fd/N, descriptor N of this process: /dev/stdin (0),
    /dev/stdout (1) or a symlink to either, say. Else None."""
    fd_dirs = {"/dev/fd", f"/proc/{os.getpid()}/fd"}  # realpath turns /proc/self into the pid
    for _ in range(40):  # the links Linux follows in one lookup
        head, name = os.path.split(path)
        head = os.path.realpath(head)
        if head in fd_dirs and re.fullmatch("0|[1-9][0-9]*", name):
            return int(name)
        try:
            path = os.path.join(head, os.readlink(os.path.join(head, name)))
        except OSError:  # not a link, or nothing there
            return None
    return None


def _emit(path: str | None, pieces) -> None:
    """Write the text pieces, the only way output leaves a subcommand.
    Without a path they go to stdout as they come. A path that reaches
    one of the process's descriptors (_descriptor), /dev/fd/N or a
    symlink to /dev/stdout say, is written through that descriptor at
    its current offset, whatever it is open on, so that what the caller
    wrote before and after stays; an N that is no open descriptor, or
    one not open for writing, is a ValidationError naming path.
    A path that resolves through symlinks to a regular file or to nothing
    is written whole or not at all: into a new file beside that file,
    which takes its permission bits and is renamed over it once the last
    piece is written, and is removed if any piece fails. Any other path
    (a device, a pipe, a directory) is opened and written in place. An
    error names path, as open(path, "w") would, except where an existing
    directory refuses the new file: it names that directory."""
    if not path:
        sys.stdout.writelines(pieces)
        sys.stdout.flush()
        return
    fd = _descriptor(path)
    if fd is not None:
        try:
            # a duplicate shares N's offset, and closing it leaves N open
            with open(os.dup(fd), "w", encoding="utf-8", newline="") as fh:
                fh.writelines(pieces)
        except (OSError, OverflowError) as exc:  # OverflowError: N is no C int
            raise ValidationError(f"cannot write {path}: {exc}") from exc
        return
    target = os.path.realpath(path)
    try:
        found = os.stat(target)
        whole = stat.S_ISREG(found.st_mode) and os.path.samestat(found, os.stat(path))
    except FileNotFoundError:
        # nothing is there yet, or /proc/PID/fd/N names a pipe: its symlink resolves to no path
        found, whole = None, not os.path.exists(path)
    except OSError:
        whole = False
    created = False
    named = path
    try:
        if not whole:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.writelines(pieces)
            return
        # a rename would replace a file that open(path, "w") may not write
        if found is not None and not os.access(target, os.W_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
        head, tail = os.path.split(target)
        partial = os.path.join(head, f".{tail}.{os.urandom(6).hex()}.partial")
        # a directory that exists and takes no new file is what refused it
        named = head if os.path.isdir(head) else path
        with open(partial, "x", encoding="utf-8", newline="") as fh:
            named, created = path, True
            if found is not None:
                os.chmod(fh.fileno(), found.st_mode & 0o777)
            fh.writelines(pieces)
        os.replace(partial, target)
        created = False
    except OSError as exc:
        reason = OSError(exc.errno, exc.strerror, named) if exc.filename is not None else exc
        raise ValidationError(f"cannot write {path}: {reason}") from exc
    finally:
        if created:
            os.unlink(partial)


def cmd_classify(args, cfg) -> None:
    with _decomposed(args, cfg) as (_, decomp):
        report = {
            "pt_symmetric": True,
            "residual": decomp.pt_residual,
            "class": decomp.spectral_class.tag,
            "blocks": decomp.blocks,
            "eigenvalues": decomp.layout.eigenvalues,
        }
        _emit(args.output, [render_json(report) + "\n"])


def cmd_canonical(args, cfg) -> None:
    with _decomposed(args, cfg) as (_, decomp):
        report = {
            "class": decomp.spectral_class.tag,
            "blocks": decomp.blocks,
            "Psi": _matrix_doc(decomp.Psi),
            "J": _matrix_doc(decomp.J),
            "K": _matrix_doc(decomp.K),
            "residuals": dict(sorted(decomp.residuals.items())),
            "condition_number": decomp.condition_number,
            "warning": decomp.warning,
        }
        _emit(args.output, [render_json(report) + "\n"])


def cmd_metric(args, cfg) -> None:
    with _decomposed(args, cfg) as (_, decomp):
        met = ptqm.build_metric(decomp, _signs_arg(cfg), cfg.met_tol)
        report = {
            "eta": _matrix_doc(met.eta),
            "positive_definite": met.positive_definite,
            "residual": met.defect,
            "signs": met.signs.epsilons,
            "class": decomp.spectral_class.tag,
        }
        _emit(args.output, [render_json(report) + "\n"])


def cmd_inner(args, cfg) -> None:
    with _decomposed(args, cfg) as (_, decomp):
        v1 = load_vector_file(args.vector1)
        v2 = load_vector_file(args.vector2)
        met = ptqm.build_metric(decomp, _signs_arg(cfg), cfg.met_tol)
        report = {
            "value": ptqm.eta_inner(v1, v2, met.eta),
            "positive_definite": met.positive_definite,
        }
        _emit(args.output, [render_json(report) + "\n"])


def cmd_evolve(args, cfg) -> None:
    h = load_matrix_file(args.hamiltonian)
    rho = load_matrix_file(args.state)
    with _raising():
        rho_t = ptqm.evolve_density(rho, h, args.t, cfg.val_tol)
        if args.normalize:
            rho_t = ptqm.normalize_density(rho_t)
        report = {
            "t": args.t,
            "normalized": args.normalize,
            "trace": rho_t.trace(),
            "rho": _matrix_doc(rho_t),
        }
        _emit(args.output, [render_json(report) + "\n"])


def cmd_invariants(args, cfg) -> None:
    with _decomposed(args, cfg) as (pair, decomp):
        import numpy as np

        report = ptqm.invariant_report(decomp.hamiltonian, pair, load_matrix_file(args.state),
                                       _grid(cfg), _signs_arg(cfg), cfg.tol,
                                       val_tol=cfg.val_tol, met_tol=cfg.met_tol, decomp=decomp)
        n, d = report.coefficient_series.shape[:2]
        entries = range(1, d + 1)
        header = ["t", *(f"{part}_R_{i}_{j}" for i in entries for j in entries
                         for part in ("re", "im")), "re_eta_trace", "im_eta_trace"]
        coefficients = report.coefficient_series.reshape(n, -1)
        step = max(1, _CSV_BLOCK_CELLS // len(header))
        # a complex array viewed as floats interleaves re and im, as the header does
        blocks = (np.column_stack([report.times[k:k + step],
                                   coefficients[k:k + step].view(float),
                                   report.eta_trace_series[k:k + step].view(float).reshape(-1, 2)])
                  for k in range(0, n, step))
        _emit(args.output, csv_pieces(header, blocks))
        if args.summary:
            summary = {
                "class": report.case_tag.tag,
                "drift": dict(sorted(report.drift.items())),
                "overflow_risk": report.overflow_risk,
                "t_cap": report.t_cap,
            }
            _emit(args.summary, [render_json(summary) + "\n"])


def cmd_bender_sweep(args, cfg) -> None:
    if args.steps < 2:
        raise ValidationError("steps must be at least 2")
    if args.steps > MAX_GRID_POINTS:
        raise ValidationError(f"steps must be at most {MAX_GRID_POINTS}")
    if not args.theta_max > args.theta_min:
        raise ValidationError("theta-max must exceed theta-min")
    for flag, theta in (("--theta-min", args.theta_min), ("--theta-max", args.theta_max)):
        if not -math.pi < theta <= math.pi:
            raise ValidationError(f"{flag} must be in (-pi, pi], got {theta!r}")
    with _raising() as np:
        grid = np.linspace(args.theta_min, args.theta_max, args.steps)
        rows = ptqm.critical_sweep(args.r, args.s, grid, cfg.probe, cfg.crit_tol, cfg.tol)
        # the columns of SweepRow, in field order
        header = ["theta", "class", "alpha", "S0", "S0_times_cos_alpha",
                  "eigvec_overlap", "error"]
        _emit(args.output, [render_csv(header, map(dataclasses.astuple, rows))])


def cmd_stokes(args, cfg) -> None:
    (ex,) = cfgmod.parse_complex_text(args.ex, "--ex", 1, "re,im")
    (ey,) = cfgmod.parse_complex_text(args.ey, "--ey", 1, "re,im")
    _emit(args.output, [render_json(ptqm.stokes_vector(ex, ey)) + "\n"])


def cmd_dilate(args, cfg) -> None:
    with _decomposed(args, cfg) as (pair, decomp):
        report = ptqm.embedded_evolution_check(decomp.hamiltonian, pair,
                                               load_matrix_file(args.state), _grid(cfg),
                                               cfg.slack, val_tol=cfg.val_tol, decomp=decomp)
        doc = {
            "c": report.c,
            "max_deviation": report.max_deviation,
            "max_unitarity_residual": report.unitarity_residual,
            "times": report.times,
            "success_probabilities": report.success_probabilities,
        }
        _emit(args.output, [render_json(doc) + "\n"])


def cmd_free_check(args, cfg) -> None:
    if args.c is not None and args.slack is not None:
        raise ValidationError("--slack has no effect with --c")
    with _decomposed(args, cfg) as (pair, decomp):
        c = args.c
        if c is None:
            c = ptqm.uniform_bound(decomp, cfg.slack)
        report = ptqm.verify_free_evolution(decomp.hamiltonian, pair, c, _grid(cfg),
                                            cfg.free_tol, decomp=decomp)
        doc = {
            "ok": report.ok,
            "c": c,
            "worst_defect": report.worst_defect,
            "min_contraction_margin": report.min_contraction_margin,
        }
        _emit(args.output, [render_json(doc) + "\n"])


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = cfgmod.resolve_config(getattr(args, "config", None), _overrides(args))
        args.handler(args, cfg)
        return 0
    except (ParseError, ValidationError, PreconditionError, NumericalError) as exc:
        failure = exc
    except (FloatingPointError, OverflowError) as exc:
        # OverflowError: Python float arithmetic that no library check catches
        failure = NumericalError(str(exc))
    sys.stderr.write(render_json({"error": failure.kind, "detail": str(failure)}) + "\n")
    sys.stderr.flush()
    return failure.exit_code


def run() -> int:
    """main() on the process's command line, as the process entry: no
    automatic collection while it runs, and gc.freeze() on every way out,
    an exception and argparse's SystemExit included, so the shutdown
    collections skip what it built. atexit handlers still run."""
    gc.disable()
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
