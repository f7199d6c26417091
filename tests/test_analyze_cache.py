"""The `analyze` cache holds one pass's working set, and no more.

Its bound is `maxsize=64`. A form that a graph certifies is typed and
realized with no analysis, so the cache serves the callers that read one form
twice: the set-up of a `solve` route (`_route`, then `positive_core` on the
same q), the refusal ladders (`dynkin_type`, `realize` and the type-C
functions on one refused form) and `qf-info` (its report, then a
`dynkin_type` that types E or refuses). No operation of the benchmark
analyzes more than one distinct form. The LDL cache of the solver's core
search (`classify._ldl`, keyed by the core form) has the same bound, and
loses no hit on the solve_sweep traffic.
"""

from __future__ import annotations

import sys
import tracemalloc
from pathlib import Path

from bidiforms import classify
from bidiforms.bidigraph import canonical_a
from bidiforms.classify import DynkinType, dynkin_type
from bidiforms.qform import IntegralQuadraticForm, analyze

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _signed(q, t):
    """q with x_k replaced by -x_k for each bit k of t: distinct forms for t < 2^(n-1)."""
    s = [-1 if t >> k & 1 else 1 for k in range(q.n)]
    return IntegralQuadraticForm(q.diag, {(i, j): v * s[i - 1] * s[j - 1] for (i, j), v in q.off.items()})


def test_analyze_keeps_at_most_64_forms():
    # the bound was 2048: a stream of distinct forms kept up to 2048 analyses alive
    analyze.cache_clear()
    a10 = canonical_a(10, 0).incidence_form()
    for t in range(300):
        q = _signed(a10, t)
        analyze(q)  # `dynkin_type` types these forms off their graphs, without `analyze`
        assert dynkin_type(q) == (DynkinType("A", 10), 0)
    info = analyze.cache_info()
    assert info.misses == 300 and info.currsize <= 64


def test_memory_held_by_analyze_stays_at_64_entries():
    # the rank-1 forms (x_i + x_j)^2 on 50 variables: each analysis holds a
    # radical basis of 49 vectors, and one entry holds about 22 KB (tracemalloc,
    # Python 3.11). 96 distinct forms held 1.003 times what the first 64 did;
    # with the old bound of 2048 they held 1.50 times as much
    n = 50
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)][:96]
    forms = []
    for i, j in pairs:
        diag = [0] * n
        diag[i - 1] = diag[j - 1] = 1
        forms.append(IntegralQuadraticForm(diag, {(i, j): 2}))
    analyze.cache_clear()
    tracemalloc.start()
    try:
        for q in forms[:64]:
            analyze(q)
        held_64 = tracemalloc.get_traced_memory()[0]
        entries = analyze.cache_info().currsize
        for q in forms[64:]:
            analyze(q)
        held_96 = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        analyze.cache_clear()
    assert held_64 > entries * 15_000
    assert held_96 < 1.1 * held_64


def test_bench_traffic_analyzes_no_form_twice(monkeypatch):
    # the first blocks of each benchmark workload, run in-process with a counting
    # wrapper in every module that binds `analyze`, and one around each of the
    # unit-graph search and the star chase: each distinct form is analyzed once,
    # searched once and chased once, so no bound loses a hit on this traffic.
    # Classify analyzes no form: its graph forms are typed and realized off their
    # graphs, the type-C ones (11 a block, 77 in 7 blocks) off their star graphs
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    lib = workloads.load_library()
    seen, searched, chased = set(), set(), set()
    unit_graph, star_snapshot = classify._unit_graph, classify._star_snapshot

    def counting(q):
        seen.add(q)
        return analyze(q)

    def counting_search(q):
        searched.add(q)
        return unit_graph(q)

    def counting_chase(q):
        chased.add(q)
        return star_snapshot(q)

    for name, module in list(sys.modules.items()):
        if name == "bidiforms" or name.startswith("bidiforms."):
            for attr, value in list(vars(module).items()):
                if value is analyze:
                    monkeypatch.setattr(module, attr, counting)
    monkeypatch.setattr(classify, "_unit_graph", counting_search)
    monkeypatch.setattr(classify, "_star_snapshot", counting_chase)
    assert lib.classify.analyze is counting
    distinct = {}
    for workload, blocks in (("classify", 7), ("walk_roots", 2), ("solve_sweep", 2)):
        for cached in (analyze, unit_graph, star_snapshot):
            cached.cache_clear()
        for counted in (seen, searched, chased):
            counted.clear()
        for b in range(blocks):
            for op in workloads.block(lib, workload, 7, b):
                op.run(lib)
        assert analyze.cache_info().misses == len(seen), workload
        assert unit_graph.cache_info().misses == len(searched), workload
        assert star_snapshot.cache_info().misses == len(chased), workload
        distinct[workload] = len(seen)
    for cached in (analyze, unit_graph, star_snapshot):
        cached.cache_clear()
    assert distinct["classify"] == 0 and distinct["solve_sweep"] > 64 and distinct["walk_roots"] == 0


def test_ldl_cache_factors_each_core_once(monkeypatch):
    # the first two solve_sweep blocks: every positive core form that the core search
    # factors is factored once, within a bound of 64 entries
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    lib = workloads.load_library()
    ldl, cores = classify._ldl, set()

    def counting(q):
        cores.add(q)
        return ldl(q)

    monkeypatch.setattr(classify, "_ldl", counting)
    ldl.cache_clear()
    for b in range(2):
        for op in workloads.block(lib, "solve_sweep", 7, b):
            op.run(lib)
    info = ldl.cache_info()
    ldl.cache_clear()
    assert info.maxsize == 64 and info.misses == len(cores) > 20 and info.hits > 10 * len(cores)
    assert info.currsize <= 64
