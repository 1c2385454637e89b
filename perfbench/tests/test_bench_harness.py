"""The benchmark's own tests, at tiny sizes.

Run from the root of the repository:

    python3 -m pytest perfbench/tests -q
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import calibrate
import checks
import instances as gen
import run
import tracing
import workloads
import ptqm

DECLARED = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    """Shrink the in-process workloads; cli-mixed is already d <= 4."""
    monkeypatch.setattr(workloads.SpectralLarge, "DIMS", (4, 6))
    monkeypatch.setattr(workloads.TimeseriesSmall, "DIMS", (2,))
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "STARTUP_REPEATS", 1)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_every_declared_metric_is_printed_with_its_unit(tiny, capsys, workload, trace):
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0.05",
                     "--trace", str(trace)]) == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    if not trace:
        assert result["metrics"]["ok_rate"]["value"] == 1.0


def test_generator_is_deterministic_per_seed():
    def draw(seed):
        rng = np.random.default_rng(seed)
        return [gen.instance(rng, 5, kind, shape)
                for kind in gen.CLASSES for shape in gen.PAIR_SHAPES]

    a, b, c = draw(7), draw(7), draw(8)
    for x, y in zip(a, b):
        assert np.array_equal(x.h, y.h) and np.array_equal(x.t, y.t)
        assert np.array_equal(x.rho, y.rho) and x.blocks == y.blocks
    assert not any(np.allclose(x.h, z.h) for x, z in zip(a, c))


@pytest.mark.parametrize("shape", gen.PAIR_SHAPES)
@pytest.mark.parametrize("kind", gen.CLASSES)
def test_generator_planted_structure_is_recovered(kind, shape):
    inst = gen.instance(np.random.default_rng(11), 12, kind, shape)
    pair = ptqm.validate_pt_pair(inst.p, inst.t)
    assert ptqm.is_pt_symmetric(inst.h, pair)[0]
    dec = ptqm.pt_canonical_form(inst.h, pair, cluster_tol=inst.cluster_tol)
    assert checks.canonical(dec, inst, pair.pt) is None
    assert checks.metric(ptqm.build_metric(dec), inst.h, inst.unbroken) is None


def _canonical_op(inst):
    pair = ptqm.validate_pt_pair(inst.p, inst.t)
    dec = ptqm.pt_canonical_form(inst.h, pair, cluster_tol=inst.cluster_tol)
    return dec, ptqm.build_metric(dec), pair


def test_checker_counts_a_corrupted_result_as_failed():
    inst = gen.instance(np.random.default_rng(5), 6, "unbroken", "swap")
    dec, met, pair = _canonical_op(inst)
    assert checks.canonical(dec, inst, pair.pt) is None

    bent = dec.Psi.copy()
    bent[:, 0] *= 1.0 + 1e-3j
    assert checks.canonical(replace(dec, Psi=bent), inst, pair.pt) is not None
    swapped = replace(dec, spectral_class=replace(dec.spectral_class, tag="Broken"))
    assert checks.canonical(swapped, inst, pair.pt) is not None
    assert checks.metric(replace(met, eta=met.eta + 1e-3 * np.eye(6)), inst.h, True) is not None
    assert checks.metric(replace(met, positive_definite=False), inst.h, True) is not None

    good = workloads.Op("canonical", "good", lambda: (dec, met, pair),
                        lambda res: checks.canonical(res[0], inst, res[2].pt))
    bad = workloads.Op("canonical", "bad", lambda: (replace(dec, Psi=bent), met, pair),
                       good.check)
    raises = workloads.Op("canonical", "raises", lambda: 1 / 0, good.check)
    tally = run.Tally()
    for op in (good, bad, raises):
        tally.run(op)
    assert (tally.attempted, tally.failed) == (3, 2)


def test_checker_counts_a_wrong_cli_exit_as_failed(tmp_path):
    wl = workloads.CliMixed(1, tmp_path)
    ops = {op.label: op for op in wl.cycle(in_process=True)}
    op = ops["canonical not-PT d=4"]
    res = op.run()
    assert res.code == 3 and op.check(res) is None
    assert op.check(replace(res, code=4)) is not None
    ok = ops["stokes"]
    res = ok.run()
    assert ok.check(res) is None
    assert ok.check(replace(res, stdout=res.stdout.replace(b"1", b"2", 1))) is not None


@pytest.mark.parametrize("kind", gen.CLASSES)
def test_traced_schur_calls_equal_clusters_per_decomposition(kind):
    d = 6
    inst = gen.instance(np.random.default_rng(2), d, kind, "householder_t")
    with tracing.Tracer() as tracer:
        tracer.op = 0
        _canonical_op(inst)
    n_pairs = sum(b[0] == "ComplexConjugatePair" for b in inst.blocks)
    clusters = len(inst.blocks) + n_pairs  # a conjugate pair is two clusters
    # one sorted Schur per cluster; a conjugate pair's minus chains are the
    # PT images of its plus chains, so the pair costs a single Schur
    assert tracer.op_counts(0)["linalg.schur_calls"] == clusters - n_pairs
    if kind == "unbroken":
        assert clusters == d
        ratio = (tracer.op_counts(0)["linalg.schur_sorted_sdim"]
                 / tracer.op_counts(0)["linalg.schur_sorted_dim"])
        assert ratio == pytest.approx(1.0 / d)


def test_tracer_restores_the_library():
    before = (ptqm.pt_canonical_form, ptqm.canonical._cluster_chains,
              ptqm.dynamics.propagator)
    with tracing.Tracer() as tracer:
        assert ptqm.canonical._cluster_chains is not before[1]
    assert (ptqm.pt_canonical_form, ptqm.canonical._cluster_chains,
            ptqm.dynamics.propagator) == before
    assert all(span[0] in tracing.LAYERS for span in tracer.spans)


def test_propagator_is_counted_once_per_grid_point():
    inst = gen.instance(np.random.default_rng(4), 3, "unbroken", "trivial")
    pair = ptqm.validate_pt_pair(inst.p, inst.t)
    grid = ptqm.TimeGrid(0.0, 1.0, 7)
    with tracing.Tracer() as tracer:
        tracer.op = 0
        ptqm.invariant_report(inst.h, pair, inst.rho, grid)
    assert tracer.op_counts(0)["dynamics.propagator_calls"] == 7
    totals = tracer.layer_totals()
    assert totals["dynamics"][0] >= 1 and totals["metric"][0] >= 7


def test_reference_scales_by_the_timings_around_an_op():
    ref = calibrate.Reference(calibrate.Kernel("noop", lambda: None, 0.01, 0.0))
    ref.times = [0.01, 0.03, 0.02]
    assert ref.scale(0) == pytest.approx(0.5)
    assert ref.scale(1) == pytest.approx(0.4)
    assert ref.scale(2) == pytest.approx(0.5)  # after the last timing, it alone


def test_reference_kernel_calls_nothing_in_the_library():
    with tracing.Tracer() as tracer:
        tracer.op = 0
        calibrate.COMPUTE.run()
    assert not tracer.spans and not tracer.op_counts(0)
