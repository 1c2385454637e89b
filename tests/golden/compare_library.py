"""Bit-for-bit comparison of the library results of two source trees.

    python tests/golden/compare_library.py SRC_A SRC_B

SRC_A and SRC_B are directories holding the ptqm package, such as the
src directories of two checkouts. Each tree runs in a fresh interpreter
of its own, which draws seeded ptqm.sampling.random_instance inputs of
every kind and pair kind at d = 2 ... 12 and at d = 32, with a random
density each, and calls classify_spectrum, pt_canonical_form,
build_metric, invariant_report, embedded_evolution_check and
verify_free_evolution on them (the last three with decomp= the
decomposition, on the default 201-point grid; the free check at
c = uniform_bound and at c = 1). An exceptional-point draw is
decomposed with cluster_tol = 1e-6. It then calls bender_eigensystem,
the other constructor of a decomposition, on seeded unbroken (r, s,
theta).

Every result is hashed whole: arrays by dtype, shape and bytes, floats
and complexes by float.hex, dicts in their insertion order, dataclasses
by their fields and public properties and cached_properties in one
name-sorted pass, each read as a call of its own, so a value moved
between a field and a property keeps the hash. A call records its
result, or the type and text of the error it raised, and the category
and text of every warning it issued. The inputs are hashed too, so a
change of the sampler shows as well.

The script prints every call whose hash differs, then how many calls
of each function differ, and one sha256 per tree over all calls; the
exit status is 1 when they differ.
The golden tests compare within a tolerance and compare_trees.py
compares the command line's text; this compares every bit the library
returns.
"""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import warnings
from collections import Counter
from functools import cached_property
from pathlib import Path

DIMS = (*range(2, 13), 32)
KINDS = ("unbroken", "complex", "ep")
PAIR_KINDS = ("trivial", "swap", "real_involution", "householder_t")
BENDER_SEED, BENDER_DRAWS = 2018, 24


def _feed(h, x) -> None:
    """Hash x into h; see the module docstring for the encoding."""
    import numpy as np

    if isinstance(x, np.ndarray):
        h.update(f"nd {x.dtype.str} {x.shape} ".encode())
        h.update(np.ascontiguousarray(x).tobytes())
    elif isinstance(x, (bool, np.bool_)) or x is None or isinstance(x, (int, str)):
        h.update(f"{type(x).__name__} {x!r} ".encode())
    elif isinstance(x, float):
        h.update(f"f {float(x).hex()} ".encode())
    elif isinstance(x, complex):
        h.update(f"c {x.real.hex()} {x.imag.hex()} ".encode())
    elif isinstance(x, dict):
        h.update(f"dict {len(x)} ".encode())
        for key, value in x.items():
            _feed(h, key)
            _feed(h, value)
    elif isinstance(x, (tuple, list)):
        h.update(f"seq {len(x)} ".encode())
        for item in x:
            _feed(h, item)
    elif dataclasses.is_dataclass(x):
        h.update(f"dc {type(x).__name__} ".encode())
        properties = {name for cls in type(x).__mro__ for name, attr in vars(cls).items()
                      if isinstance(attr, (property, cached_property))
                      and not name.startswith("_")}
        for name in sorted(properties.union(f.name for f in dataclasses.fields(x))):
            _feed(h, name)
            _feed(h, _run(lambda: getattr(x, name))[1])
    else:
        h.update(f"{type(x).__name__} {x!r} ".encode())


def _run(call):
    """(result or None, the hashable record of the call)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = call()
            outcome = ("ok", result)
        except Exception as exc:  # noqa: BLE001 - every error is part of the record
            result = None
            outcome = ("error", type(exc).__name__, str(exc))
    return result, (outcome, [(w.category.__name__, str(w.message)) for w in caught])


def _emit() -> None:
    """Print [call, sha256] for every call, as JSON, under the tree on sys.path."""
    import numpy as np
    import ptqm
    from ptqm.sampling import random_density, random_instance

    lines = []

    def record(name, call):
        result, rec = _run(call)
        h = hashlib.sha256()
        _feed(h, rec)
        lines.append([name, h.hexdigest()])
        return result

    grid = ptqm.default_grid()
    for d in DIMS:
        for ki, kind in enumerate(KINDS):
            for pi, pair_kind in enumerate(PAIR_KINDS):
                rng = np.random.default_rng([d, ki, pi])
                inst = random_instance(rng, d, kind, pair_kind)
                rho = random_density(rng, d)
                tag = f"d={d} {kind} {pair_kind}"
                record(f"input {tag}", lambda: (inst["h"], inst["pair"], rho))
                h, pair = inst["h"], inst["pair"]
                tol = {"cluster_tol": 1e-6} if kind == "ep" else {}
                record(f"classify_spectrum {tag}",
                       lambda: ptqm.classify_spectrum(h, pair, **tol))
                dec = record(f"pt_canonical_form {tag}",
                             lambda: ptqm.pt_canonical_form(h, pair, **tol))
                if dec is None:
                    continue
                record(f"build_metric {tag}", lambda: ptqm.build_metric(dec))
                record(f"invariant_report {tag}",
                       lambda: ptqm.invariant_report(h, pair, rho, grid, decomp=dec))
                record(f"embedded_evolution_check {tag}",
                       lambda: ptqm.embedded_evolution_check(h, pair, rho, grid, decomp=dec))
                c = ptqm.uniform_bound(dec) if dec.spectral_class.unbroken else 0.5
                for factor in (c, 1.0):
                    record(f"verify_free_evolution c={factor!r} {tag}",
                           lambda: ptqm.verify_free_evolution(h, pair, factor, grid, decomp=dec))
    rng = np.random.default_rng(BENDER_SEED)
    for _ in range(BENDER_DRAWS):
        r, theta = rng.uniform(0.1, 3.0), rng.uniform(-np.pi, np.pi)
        # unbroken: |s| > |r sin(theta)|
        s = float(rng.choice([-1.0, 1.0]) * (abs(r * np.sin(theta)) + rng.uniform(0.05, 2.0)))
        p = ptqm.BenderParams(r=r, s=s, theta=theta)
        record(f"bender_eigensystem {p}", lambda: ptqm.bender_eigensystem(p))
    json.dump(lines, sys.stdout)


def _lines(src: Path) -> list:
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PTQM_CONFIG", None)
    proc = subprocess.run([sys.executable, __file__, "--emit"], env=env, capture_output=True,
                          text=True, timeout=600, check=True)
    return json.loads(proc.stdout)


def main(argv: list) -> int:
    if argv == ["--emit"]:
        _emit()
        return 0
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    trees = [Path(a).resolve() for a in argv]
    for tree in trees:
        if not (tree / "ptqm" / "dynamics.py").is_file():
            sys.stderr.write(f"{tree} holds no ptqm package\n")
            return 2
    runs = [_lines(tree) for tree in trees]
    a, b = runs
    differing = [(x[0], y[0]) for x, y in zip(a, b) if x != y]
    for name_a, name_b in differing:
        print(f"differs: {name_a}" + (f" (A) / {name_b} (B)" if name_a != name_b else ""))
    for function, count in Counter(name.split()[0] for name, _ in differing).items():
        print(f"{function}: {count} differing calls")
    if len(a) != len(b):
        print(f"A made {len(a)} calls, B {len(b)}")
    print(f"{len(a)} calls")
    for tree, lines in zip(trees, runs):
        print(f"sha256 {hashlib.sha256(json.dumps(lines).encode()).hexdigest()}  {tree}")
    return 0 if a == b else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
