"""Tests of the benchmark itself: python3 -m pytest bench -q

The slow test runs the traced worker twice per workload and requires every
deterministic counter to repeat exactly.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gen
import ref
import run
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))


def _traced(workload, seed, nblocks):
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "traced", workload, str(seed), str(nblocks)],
        cwd=ROOT, env=dict(os.environ, PYTHONHASHSEED="0"), capture_output=True, text=True,
        timeout=300, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def _deterministic(layers):
    return {
        k: v["value"] for k, v in layers.items()
        if k.endswith((".calls", "box_points", "cache_hits", "cache_misses", "canonical_c_per_call"))
        or ".strategy." in k or k == "tracing.spans"
    }


@pytest.mark.parametrize("workload,nblocks", [("classify", 1), ("walk_roots", 3), ("solve_sweep", 1)])
def test_counters_repeat_exactly(workload, nblocks):
    first = _traced(workload, 7, nblocks)
    second = _traced(workload, 7, nblocks)
    assert first["failures"] == [] and second["failures"] == []
    counts = _deterministic(first["layers"])
    assert counts == _deterministic(second["layers"])
    assert sum(v for k, v in counts.items() if k.endswith(".calls")) > 0


def test_blocks_depend_only_on_seed_and_index():
    lib = workloads.load_library()

    def shape(ops):
        return [(op.kind, op.size, repr(op.args[0])) for op in ops]

    for workload in workloads.WORKLOADS:
        a = shape(workloads.block(lib, workload, 3, 1))
        assert a == shape(workloads.block(lib, workload, 3, 1))
        assert a != shape(workloads.block(lib, workload, 4, 1))


def test_generators_build_what_they_claim():
    rng = random.Random(5)
    for m in (8, 12, 16):
        for extra in range(4):
            assert ref.beta(*gen.switched_quiver(rng, m, extra)) == 1
            if extra:
                assert ref.beta(*gen.negative_cycle_graph(rng, m, extra)) == 0
        for n in (8, 20):
            mm, ends = gen.unbalanced_one_tree(rng, n, allow_loop=False)
            assert mm == len(ends) == n and ref.beta(mm, ends) == 0
            assert all(u != v for (u, _), (v, _) in ends)
            mm, ends = gen.tree_graph(rng, n)
            assert mm == len(ends) + 1 == n + 1 and ref.beta(mm, ends) == 1
        mm, arrows, relations = gen.gentle_presentation(rng, m)
        assert ref.det(ref.cartan(mm, arrows, relations)) == 1
        for v in range(1, mm + 1):
            assert sum(1 for _, s, _ in arrows if s == v) <= 2
            assert sum(1 for _, _, t in arrows if t == v) <= 2


def test_self_time_subtracts_direct_children():
    t = tracing.Tracer()
    t.names += ["a", "b"]
    # op [0, 100] > a [10, 60] > b [20, 30]; a second b [70, 90] under op
    for fid, parent, start, end in ((0, -1, 0, 100), (1, 0, 10, 60), (2, 1, 20, 30), (2, 0, 70, 90)):
        t.fid.append(fid)
        t.parent.append(parent)
        t.start.append(start)
        t.end.append(end)
    stats = t.self_times()
    assert stats == {"bench.op": (1, 30), "a": (1, 40), "b": (2, 30)}
    assert sum(ns for _, ns in stats.values()) == 100


def test_tracer_rebinds_every_importing_module_and_restores():
    lib = workloads.load_library()
    orig = lib.qform.analyze
    t = tracing.Tracer()
    t.install()
    try:
        assert lib.classify.analyze is lib.qform.analyze is not orig
        assert lib.roots_dioph.canonical_c is lib.classify.canonical_c
        assert lib.qform.analyze.cache_info() == orig.cache_info()
    finally:
        t.uninstall()
    assert lib.classify.analyze is orig and lib.gentle.analyze is orig


def test_clopper_pearson_upper_bound():
    assert math.isclose(run.clopper_pearson_upper(0, 100), 1 - 0.05 ** (1 / 100), rel_tol=1e-9)
    assert run.clopper_pearson_upper(3, 3) == 1.0
    assert 0.0 < run.clopper_pearson_upper(1, 1000) < run.clopper_pearson_upper(2, 1000) < 0.01


def test_refuses_to_run_without_library_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "walk_roots", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout == ""
