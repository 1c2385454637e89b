"""The three workloads: seeded inputs, one cycle of operations each, and
the check of every operation's result.

- spectral-large: classify_spectrum and pt_canonical_form + build_metric
  at d in {32, 48, 64}. The per-cluster Schur deflation in linalg and
  canonical is nearly all of the time; there is no time grid.
- timeseries-small: invariant_report, embedded_evolution_check,
  verify_free_evolution and critical_sweep at d in {2, 4, 8} on the
  default 201-point grid. The per-time loops in dynamics, dilation and
  superposition dominate; the canonical form is a few percent.
- cli-mixed: python -m ptqm.cli subprocesses over all ten subcommands on
  d in {2, 4} JSON fixtures, one invocation in five an expected
  failure. Interpreter start-up and imports dominate; this is the only
  workload that exercises matio, config and the error path.

Library functions are looked up on the ptqm package at call time, so
that a traced run sees the wrappers tracing.Tracer installs. run.py puts
the checkout's src/ on sys.path before importing this module.
"""

from __future__ import annotations

import io
import json
import os
import resource
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np
import ptqm

import calibrate
import checks
import instances as gen

GRID_POINTS = 201
# time points each subcommand evaluates when it succeeds
CLI_POINTS = {"invariants": GRID_POINTS, "dilate": GRID_POINTS, "free-check": GRID_POINTS,
              "evolve": 1}


@dataclass
class Op:
    """One operation: run() is timed, check(result) is not."""

    kind: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    points: int = 0  # time-grid points the operation evaluates


def _pair(inst):
    return ptqm.validate_pt_pair(inst.p, inst.t)


def _rotating_instances(rng, dims, shapes=gen.PAIR_SHAPES) -> list:
    """One instance per (d, class), d varying fastest within each class
    so that any run of consecutive operations mixes sizes. The pair
    shape rotates so every d and every class meets every shape."""
    out = []
    for ci, kind in enumerate(gen.CLASSES):
        for di, d in enumerate(dims):
            out.append(gen.instance(rng, d, kind, shapes[(ci + di) % len(shapes)]))
    return out


def _warm(ops: list) -> None:
    """Run the first operation of each kind once, result unused, so that
    lazy imports and first-call set-up are paid before timing. The
    smallest inputs come first in every cycle. A failure here shows
    again, counted, when the operation runs in the timed loop."""
    seen = set()
    for op in ops:
        if op.kind not in seen:
            seen.add(op.kind)
            try:
                op.run()
            except Exception:  # noqa: BLE001
                pass


class Workload:
    """Inputs generated from one seed, and the operations run on them.

    tail_pct is the percentile reported as op_tail_ms: the highest that
    keeps at least ten samples beyond it at the operation count a
    35-second run of this workload reaches on a 2-CPU machine.
    reference is the kernel that scales its times (calibrate.py).
    """

    name = ""
    tail_pct = 90.0
    reference = calibrate.COMPUTE

    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir

    def cycle(self, in_process: bool = False) -> list:
        """One round of every operation, in the order the loop runs them.
        in_process only matters to cli-mixed: main(argv) in this process
        instead of a subprocess."""
        raise NotImplementedError

    def warmup(self) -> None:
        _warm(self.cycle())

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class SpectralLarge(Workload):
    name = "spectral-large"
    tail_pct = 90.0
    DIMS = (32, 48, 64)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.instances = _rotating_instances(self.rng, self.DIMS)

    @staticmethod
    def _classify(inst):
        return ptqm.classify_spectrum(inst.h, _pair(inst), cluster_tol=inst.cluster_tol)

    @staticmethod
    def _canonical(inst):
        pair = _pair(inst)
        dec = ptqm.pt_canonical_form(inst.h, pair, cluster_tol=inst.cluster_tol)
        return dec, ptqm.build_metric(dec), pair

    def cycle(self, in_process=False):
        ops = []
        for inst in self.instances:
            tag = f"d={inst.dim} {inst.kind}"
            ops.append(Op("classify", f"classify {tag}",
                          lambda i=inst: self._classify(i),
                          lambda res, i=inst: checks.spectral_class(res, i)))
            ops.append(Op("canonical", f"canonical+metric {tag}",
                          lambda i=inst: self._canonical(i),
                          lambda res, i=inst: (checks.canonical(res[0], i, res[2].pt)
                                               or checks.metric(res[1], i.h, i.unbroken))))
        return ops


class TimeseriesSmall(Workload):
    name = "timeseries-small"
    tail_pct = 97.0
    DIMS = (2, 4, 8)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.instances = _rotating_instances(self.rng, self.DIMS)
        self.sweep_r = 1.0
        self.sweep_s = float(self.rng.uniform(0.5, 0.9))
        crit = float(np.arcsin(self.sweep_s / self.sweep_r))
        self.sweep_thetas = np.linspace(crit - 0.3, crit + 0.3, GRID_POINTS)

    @staticmethod
    def _grid():
        return ptqm.default_grid()

    @classmethod
    def _invariants(cls, inst):
        return ptqm.invariant_report(inst.h, _pair(inst), inst.rho, cls._grid(),
                                        cluster_tol=inst.cluster_tol)

    @classmethod
    def _dilation(cls, inst):
        return ptqm.embedded_evolution_check(inst.h, _pair(inst), inst.rho, cls._grid())

    @classmethod
    def _free_check(cls, inst):
        pair = _pair(inst)
        c = ptqm.uniform_bound(ptqm.pt_canonical_form(inst.h, pair))
        return ptqm.verify_free_evolution(inst.h, pair, c, cls._grid())

    def _sweep(self):
        return ptqm.critical_sweep(self.sweep_r, self.sweep_s, self.sweep_thetas)

    def _check_sweep(self, rows):
        if len(rows) != GRID_POINTS:
            return f"{len(rows)} sweep rows"
        return checks.sweep_rows([(row.theta, row.classification) for row in rows],
                                 self.sweep_r, self.sweep_s)

    def cycle(self, in_process=False):
        ops = []
        by_dim = sorted(self.instances, key=lambda i: (i.dim, gen.CLASSES.index(i.kind)))
        for inst in by_dim:
            tag = f"d={inst.dim} {inst.kind}"
            ops.append(Op("invariants", f"invariants {tag}",
                          lambda i=inst: self._invariants(i), checks.invariants,
                          GRID_POINTS))
            if inst.unbroken:
                ops.append(Op("dilation", f"dilation {tag}",
                              lambda i=inst: self._dilation(i), checks.dilation, GRID_POINTS))
                ops.append(Op("free-check", f"free-check {tag}",
                              lambda i=inst: self._free_check(i), checks.free_evolution,
                              GRID_POINTS))
        ops.append(Op("sweep", "critical_sweep", self._sweep, self._check_sweep))
        return ops


@dataclass
class CliResult:
    code: int
    stdout: bytes
    stderr: bytes


def _matrix_doc(a) -> dict:
    a = np.asarray(a, dtype=complex)
    return {"dim": int(a.shape[0]),
            "rows": [[[float(z.real), float(z.imag)] for z in row] for row in a]}


def _doc_matrix(doc) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in doc["rows"]])


def _doc_blocks(doc) -> list:
    return [SimpleNamespace(kind=b["kind"], order=b["order"],
                            eigenvalue=complex(*b["eigenvalue"])) for b in doc["blocks"]]


def _doc_class(doc) -> SimpleNamespace:
    return SimpleNamespace(tag=doc["class"], detail=_doc_blocks(doc))


class CliMixed(Workload):
    name = "cli-mixed"
    tail_pct = 80.0
    reference = calibrate.PROCESS_START

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.src = str(Path(ptqm.__file__).resolve().parent.parent)
        self.peak_child_kb = 0
        self.stdout_seen: dict[tuple, bytes] = {}
        rng = self.rng
        self.inst = {}
        for di, d in enumerate((2, 4)):
            for ci, kind in enumerate(gen.CLASSES):
                shape = gen.PAIR_SHAPES[(ci + di) % len(gen.PAIR_SHAPES)]
                self.inst[kind, d] = gen.instance(rng, d, kind, shape)
        self.files: dict[str, str] = {}
        for (kind, d), inst in self.inst.items():
            self._write(f"h_{kind}{d}", _matrix_doc(inst.h))
            self._write(f"p_{kind}{d}", _matrix_doc(inst.p))
            self._write(f"t_{kind}{d}", _matrix_doc(inst.t))
            self._write(f"rho_{kind}{d}", _matrix_doc(inst.rho))
        self._write("h_nonpt4", _matrix_doc(gen.non_pt(rng, self.inst["unbroken", 4])))
        for name in ("v1", "v2"):
            v = rng.normal(size=4) + 1j * rng.normal(size=4)
            self._write(name, {"dim": 4, "entries": [[float(z.real), float(z.imag)] for z in v]})
        self._write("config", {"cluster_tol": 1e-6, "num_points": GRID_POINTS})
        self.files["malformed"] = self._path("malformed")
        Path(self.files["malformed"]).write_text(gen.malformed_json(rng), encoding="utf-8")
        self.files["summary"] = self._path("summary")
        self.sweep_s = float(rng.uniform(0.5, 0.9))
        crit = float(np.arcsin(self.sweep_s))
        self.sweep = (crit - 0.3, crit + 0.3)
        self.stokes = [float(x) for x in rng.normal(size=4)]
        self.evolve_t = float(rng.uniform(0.5, 2.0))

    def _path(self, name: str) -> str:
        return str(self.workdir / f"{name}.json")

    def _write(self, name: str, doc: dict) -> None:
        self.files[name] = self._path(name)
        with open(self.files[name], "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

    def _hpt(self, kind: str, d: int) -> list:
        f = self.files
        return [f[f"h_{kind}{d}"], f[f"p_{kind}{d}"], f[f"t_{kind}{d}"]]

    # -- running ---------------------------------------------------------

    def _subprocess(self, args: list) -> CliResult:
        out_path = self.workdir / "stdout.bin"
        err_path = self.workdir / "stderr.bin"
        env = dict(os.environ, PYTHONPATH=self.src)
        with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
            proc = subprocess.Popen([sys.executable, "-m", "ptqm.cli", *args],
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                    cwd=self.workdir, env=env)
            # wait4 gives this child's own peak RSS
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            self.peak_child_kb = max(self.peak_child_kb, usage.ru_maxrss)
            out.seek(0)
            err.seek(0)
            return CliResult(proc.returncode, out.read(), err.read())

    @staticmethod
    def _in_process(args: list) -> CliResult:
        import ptqm.cli

        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = ptqm.cli.main(list(args))
        return CliResult(code, out.getvalue().encode(), err.getvalue().encode())

    # -- checking --------------------------------------------------------

    def _check(self, args: list, res: CliResult, code: int, kind: str | None,
               semantic) -> str | None:
        if res.code != code:
            return f"exit {res.code}, expected {code}: {res.stderr[:200]!r}"
        if code != 0:
            lines = res.stderr.decode().splitlines()
            if len(lines) != 1:
                return f"{len(lines)} stderr lines on failure"
            got = json.loads(lines[0]).get("error")
            if got != kind:
                return f"error kind {got!r}, expected {kind!r}"
        elif res.stderr:
            return f"stderr on success: {res.stderr[:200]!r}"
        first = self.stdout_seen.setdefault(tuple(args), res.stdout)
        if first != res.stdout:
            return "stdout differs from an earlier run with the same input"
        return semantic(res.stdout.decode()) if semantic else None

    def _op(self, label: str, args: list, in_process: bool, semantic=None,
            code: int = 0, kind: str | None = None) -> Op:
        args = [str(a) for a in args]
        runner = self._in_process if in_process else self._subprocess
        points = CLI_POINTS.get(args[0], 0) if code == 0 else 0
        return Op(args[0], label, lambda: runner(args),
                  lambda res: self._check(args, res, code, kind, semantic), points)

    def _classify_ok(self, inst):
        def check(text):
            return checks.spectral_class(_doc_class(json.loads(text)), inst)
        return check

    def _canonical_ok(self, inst):
        def check(text):
            doc = json.loads(text)
            dec = SimpleNamespace(Psi=_doc_matrix(doc["Psi"]), J=_doc_matrix(doc["J"]),
                                  K=_doc_matrix(doc["K"]), spectral_class=_doc_class(doc))
            return checks.canonical(dec, inst, inst.p @ inst.t)
        return check

    def _metric_ok(self, inst):
        def check(text):
            doc = json.loads(text)
            met = SimpleNamespace(eta=_doc_matrix(doc["eta"]),
                                  positive_definite=doc["positive_definite"])
            return checks.metric(met, inst.h, inst.unbroken)
        return check

    @staticmethod
    def _inner_norm_ok(text):
        re, im = json.loads(text)["value"]
        return None if re > 0 and abs(im) <= 1e-10 * re else f"eta-norm {re}+{im}i"

    @staticmethod
    def _inner_ok(unbroken):
        def check(text):
            pd = json.loads(text)["positive_definite"]
            return None if pd == unbroken else f"positive_definite {pd}"
        return check

    @staticmethod
    def _evolve_ok(normalized):
        def check(text):
            re, im = json.loads(text)["trace"]
            if normalized and abs(re - 1.0) > 1e-12:
                return f"normalized trace {re}"
            return None if re > 0 and abs(im) <= 1e-10 * re else f"trace {re}+{im}i"
        return check

    def _invariants_ok(self, inst):
        def check(text):
            if len(text.splitlines()) != GRID_POINTS + 1:
                return f"{len(text.splitlines())} CSV lines"
            with open(self.files["summary"], encoding="utf-8") as fh:
                summary = json.load(fh)
            tag = "Unbroken" if inst.unbroken else "Broken"
            if summary["class"] != tag:
                return f"class {summary['class']}, planted {tag}"
            drift = summary["drift"]["eta_trace"]
            return None if drift <= checks.DRIFT_TOL else f"eta_trace drift {drift:.3e}"
        return check

    def _sweep_ok(self, text):
        rows = [line.split(",") for line in text.splitlines()[1:]]
        return checks.sweep_rows([(float(r[0]), r[1]) for r in rows], 1.0, self.sweep_s)

    def _stokes_ok(self, text):
        doc = json.loads(text)
        ex = complex(*self.stokes[:2])
        ey = complex(*self.stokes[2:])
        s0 = abs(ex) ** 2 + abs(ey) ** 2
        if abs(doc["S0"] - s0) > 1e-12 * s0:
            return f"S0 {doc['S0']}, expected {s0}"
        rest = doc["S1"] ** 2 + doc["S2"] ** 2 + doc["S3"] ** 2
        return None if abs(doc["S0"] ** 2 - rest) <= 1e-12 * s0 ** 2 else "S0^2 != S1^2+S2^2+S3^2"

    @staticmethod
    def _dilate_ok(text):
        dev = json.loads(text)["max_deviation"]
        return None if dev <= checks.DEVIATION_TOL else f"dilation deviation {dev:.3e}"

    @staticmethod
    def _free_ok(text):
        return None if json.loads(text)["ok"] else "free-check not ok"

    def cycle(self, in_process=False):
        f = self.files
        i = self.inst
        ip = in_process
        sx, sy = self.stokes[:2], self.stokes[2:]
        ops = [
            self._op("classify unbroken d=4", ["classify", *self._hpt("unbroken", 4)], ip,
                     self._classify_ok(i["unbroken", 4])),
            self._op("canonical ep d=4", ["canonical", *self._hpt("ep", 4),
                                          "--cluster-tol", "1e-6"], ip,
                     self._canonical_ok(i["ep", 4])),
            self._op("metric complex d=4", ["metric", *self._hpt("complex", 4)], ip,
                     self._metric_ok(i["complex", 4])),
            self._op("inner unbroken d=4", ["inner", *self._hpt("unbroken", 4), f["v1"], f["v1"]],
                     ip, self._inner_norm_ok),
            self._op("classify malformed", ["classify", f["malformed"], *self._hpt("unbroken", 2)[1:]],
                     ip, code=2, kind="parse"),
            self._op("evolve complex d=4", ["evolve", f["h_complex4"], f["rho_complex4"],
                                            "--t", repr(self.evolve_t), "--normalize"], ip,
                     self._evolve_ok(True)),
            self._op("invariants ep d=2", ["invariants", *self._hpt("ep", 2), f["rho_ep2"],
                                           "--config", f["config"], "--summary", f["summary"]],
                     ip, self._invariants_ok(i["ep", 2])),
            self._op("bender-sweep", ["bender-sweep", "--r", "1.0", "--s", repr(self.sweep_s),
                                      "--theta-min", repr(self.sweep[0]),
                                      "--theta-max", repr(self.sweep[1]), "--steps", "61"],
                     ip, self._sweep_ok),
            # --ex=re,im: a negative real part would otherwise read as a flag
            self._op("stokes", ["stokes", f"--ex={sx[0]!r},{sx[1]!r}",
                                f"--ey={sy[0]!r},{sy[1]!r}"], ip, self._stokes_ok),
            self._op("canonical not-PT d=4", ["canonical", f["h_nonpt4"],
                                              *self._hpt("unbroken", 4)[1:]],
                     ip, code=3, kind="not_pt_symmetric"),
            self._op("dilate unbroken d=2", ["dilate", *self._hpt("unbroken", 2),
                                             f["rho_unbroken2"]], ip, self._dilate_ok),
            self._op("free-check unbroken d=4", ["free-check", *self._hpt("unbroken", 4)], ip,
                     self._free_ok),
            self._op("classify complex d=2", ["classify", *self._hpt("complex", 2)], ip,
                     self._classify_ok(i["complex", 2])),
            self._op("canonical unbroken d=2", ["canonical", *self._hpt("unbroken", 2)], ip,
                     self._canonical_ok(i["unbroken", 2])),
            self._op("dilate complex d=2", ["dilate", *self._hpt("complex", 2),
                                            f["rho_complex2"]], ip,
                     code=3, kind="broken_hamiltonian"),
            self._op("metric unbroken d=2", ["metric", *self._hpt("unbroken", 2)], ip,
                     self._metric_ok(i["unbroken", 2])),
            self._op("inner complex d=4", ["inner", *self._hpt("complex", 4), f["v1"], f["v2"]],
                     ip, self._inner_ok(False)),
            self._op("evolve unbroken d=2", ["evolve", f["h_unbroken2"], f["rho_unbroken2"],
                                             "--t", repr(2 * self.evolve_t)], ip,
                     self._evolve_ok(False)),
            self._op("invariants unbroken d=4", ["invariants", *self._hpt("unbroken", 4),
                                                 f["rho_unbroken4"], "--summary", f["summary"]],
                     ip, self._invariants_ok(i["unbroken", 4])),
            self._op("free-check complex d=4", ["free-check", *self._hpt("complex", 4)], ip,
                     code=3, kind="broken_hamiltonian"),
        ]
        return ops

    def warmup(self):
        """Every subcommand once in process (imports, byte-compiled
        sources, first-call set-up), then one subprocess invocation."""
        _warm(self.cycle(in_process=True))
        _warm(self.cycle()[:1])

    def peak_rss_mb(self) -> float:
        return self.peak_child_kb / 1024.0


WORKLOADS = {w.name: w for w in (SpectralLarge, TimeseriesSmall, CliMixed)}
