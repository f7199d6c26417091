"""The three benchmark workloads as seeded streams of checked operations.

A workload is a sequence of blocks. Each block holds a fixed mix of
operation kinds and sizes in a seeded random order, so every block costs
about the same and a run's figures do not hinge on which sizes a seed drew.
Block `b` of a workload depends only on (workload, seed, b).

An operation calls the library through module attributes (`lib.classify`,
...), so wrappers installed by the tracer are seen. `run` is the timed
library work; `check` verifies its output with `ref` and the generator's
construction, never with the layer under test, and raises `CheckFailed`.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

import gen
import ref

WORKLOADS = ("classify", "walk_roots", "solve_sweep")


class CheckFailed(Exception):
    pass


def expect(cond, what):
    if not cond:
        raise CheckFailed(what)


class Op:
    __slots__ = ("kind", "size", "args", "expected")

    def __init__(self, kind, size, args, expected):
        self.kind = kind
        self.size = size
        self.args = args
        self.expected = expected

    def run(self, lib):
        return RUNNERS[self.kind](lib, *self.args)

    def check(self, out):
        CHECKS[self.kind](out, *self.args, **self.expected)


def load_library():
    """Import the library and its CLI module; returns the module namespace."""
    import bidiforms
    import bidiforms.cli  # noqa: F401  (import cost belongs to set-up)
    from bidiforms import bidigraph, classify, gentle, qform, roots_dioph, walks

    return SimpleNamespace(
        package=bidiforms, bidigraph=bidigraph, classify=classify, gentle=gentle,
        qform=qform, roots_dioph=roots_dioph, walks=walks,
    )


def block(lib, workload, seed, b):
    rng = random.Random(f"{workload}:{seed}:{b}")
    ops = BLOCK_MAKERS[workload](lib, rng, b)
    rng.shuffle(ops)
    return ops


def _form(lib, G):
    diag, off = ref.form_data(G)
    return lib.qform.IntegralQuadraticForm(diag, off)


def _graph_op(lib, kind, m, ends, **expected):
    G = ref.gram_of_graph(m, ends)
    B = lib.bidigraph.BidirectedGraph(m, ends)
    return Op(kind, m, (_form(lib, G), B, G), dict(expected, m=m, n=len(ends)))


# -- classify -----------------------------------------------------------------

SIZES = range(8, 17)
# per vertex count: one of each graph family plus one rotating extra, which
# gives 10 quivers, 10 negative-cycle graphs, 11 loop graphs and 5 gentle
# presentations in 36 operations (28 / 28 / 31 / 14 %)
EXTRAS = ("gentle",) * 5 + ("loops", "loops", "quiver", "negcycle")


def _classify_block(lib, rng, b):
    ops = []
    for k, m in enumerate(SIZES):
        # arrows beyond a spanning tree: 0-3 (A), 1-3 (D), 0-2 plus 1-2 loops (C)
        extra = (k + b) % 4
        for kind in ("quiver", "negcycle", "loops", EXTRAS[(k + b) % len(EXTRAS)]):
            if kind == "quiver":
                _, ends = gen.switched_quiver(rng, m, extra)
                ops.append(_graph_op(lib, kind, m, ends, family="A", beta=1, loops=0))
            elif kind == "negcycle":
                _, ends = gen.negative_cycle_graph(rng, m, 1 + extra % 3)
                ops.append(_graph_op(lib, kind, m, ends, family="D", beta=0, loops=0))
            elif kind == "loops":
                loops = 1 + extra % 2
                _, ends = gen.bidirected_loop_graph(rng, m, extra % 3, loops)
                ops.append(_graph_op(lib, kind, m, ends, family="C", beta=0, loops=loops))
            else:
                _, arrows, relations = gen.gentle_presentation(rng, m)
                pres = lib.gentle.GentlePresentation(m, arrows, relations)
                ops.append(Op(kind, m, (pres, m, arrows, relations), {}))
    return ops


def _run_graph_classify(lib, q, B, G):
    typ, corank = lib.classify.dynkin_type(q)
    realized = lib.classify.realize(q)
    return typ, corank, realized, lib.bidigraph.rank_corank(B), None


def _run_loops_classify(lib, q, B, G):
    typ, corank, realized, rank_corank, _ = _run_graph_classify(lib, q, B, G)
    return typ, corank, realized, rank_corank, lib.classify.canonical_c(q)


def _check_graph_classify(out, q, B, G, family, beta, loops, m, n):
    typ, corank, realized, rank_corank, canon = out
    rank = m - beta
    expect(ref.beta(m, B.ends) == beta, "generator balance")
    expect((typ.family, typ.rank, corank) == (family, rank, n - rank),
           f"type {typ} corank {corank}, expected {family}{rank} corank {n - rank}")
    expect(tuple(rank_corank) == (typ.rank, corank), f"rank_corank {rank_corank} disagrees with type")
    expect(ref.gram_of_graph(realized.m, realized.ends) == G, "realized graph has another form")
    if family == "C":
        T, r, c1, c2 = canon
        expect((r, c1 + c2, c2) == (m, corank, loops - 1), f"canonical_c gave r={r} c1={c1} c2={c2}")
        Tm = T.matrix.to_lists()
        expect(ref.det(Tm) in (1, -1), "canonical_c matrix is not unimodular")
        expect(ref.matmul(ref.matmul(ref.transpose(Tm), G), Tm) == ref.canonical_c_gram(r, c1, c2),
               "q∘T is not the canonical C form")


def _run_gentle(lib, pres, m, arrows, relations):
    return lib.gentle.euler_pipeline(pres)


def _check_gentle(report, pres, m, arrows, relations):
    G = ref.gram_of_form(report.form)
    I = report.incidence.to_lists()
    expect(ref.matmul(I, ref.transpose(I)) == G, "I I^tr != Gram matrix")
    C = ref.cartan(m, arrows, relations)
    expect(report.cartan.to_lists() == C, "Cartan matrix differs from path count")
    CGCt = ref.matmul(ref.matmul(C, G), ref.transpose(C))
    expect(CGCt == [[C[i][j] + C[j][i] for j in range(m)] for i in range(m)], "Gram != C^-1 + C^-tr")
    graph = report.graph
    expect(ref.gram_of_graph(graph.m, graph.ends) == G, "Euler graph has another form")


# -- walk_roots ---------------------------------------------------------------

# arrow counts of the eight small-graph operations per block. Over the
# slots of one arrow count, the vertex count cycles through 1..min(5, n + 1),
# and each one-vertex graph (all arrows loops) gets the next number of
# directed loops in 0..min(n, 4). Directed loops give the largest walk-state
# sets; five of them on one vertex is left out because that single graph
# costs as much as twenty blocks and alone sets peak memory, so whether a
# run drew it would decide the run's figures.
WALK_ARROWS = (5, 5, 4, 4, 4, 4, 3, 2)
POSITIVE_ARROWS = range(8, 25)


def _cycled(values, k):
    return values[k % len(values)]


def _walk_block(lib, rng, b):
    ops = []
    for k, n in enumerate(WALK_ARROWS):
        g = WALK_ARROWS.count(n) * b + WALK_ARROWS[:k].count(n)
        vertices = range(1, min(5, n + 1) + 1)
        m = _cycled(vertices, g)
        directed = g // len(vertices) % (min(n, 4) + 1)
        m, ends = gen.small_graph(rng, m, n, directed_loops=directed)
        d = 1 + (k + b) % 2
        G = ref.gram_of_graph(m, ends)
        B = lib.bidigraph.BidirectedGraph(m, ends)
        ops.append(Op("walk", n, (B, d, G), {"beta": ref.beta(m, ends)}))
    n = _cycled(POSITIVE_ARROWS, b)
    m, ends = gen.tree_graph(rng, n)
    ops.append(Op("tree", n, (lib.bidigraph.BidirectedGraph(m, ends), ref.gram_of_graph(m, ends)), {}))
    n = _cycled(POSITIVE_ARROWS, b + len(POSITIVE_ARROWS) // 2)
    m, ends = gen.unbalanced_one_tree(rng, n)
    ops.append(Op("one_tree", n, (lib.bidigraph.BidirectedGraph(m, ends), ref.gram_of_graph(m, ends)), {}))
    return ops


def _run_walk(lib, B, d, G):
    sets, complete = lib.walks.walk_root_cover(B, bound=3)
    roots = lib.walks.theorem_c_roots(B, d, 2 * (B.n + B.m))
    return sets, complete, roots


def _check_walk(out, B, d, G, beta):
    sets, complete, roots = out
    expect(complete, "walk_root_cover is incomplete")
    for value in (0, 1, 2):
        expect(all(ref.value(G, x) == value for x in sets[value]), f"cover vector with q(x) != {value}")
    expect((len(sets[2]) == 0) == (beta == 1), "cover 2-roots empty iff balanced fails")
    expect(all(ref.value(G, x) == d for x in roots.vectors), f"walk root with q(x) != {d}")
    if d == 2:
        expect((len(roots.vectors) == 0) == (beta == 1), "walk 2-roots empty iff balanced fails")


def _run_positive(lib, B, G):
    return lib.walks.roots_positive(B)


def _check_tree(out, B, G):
    n = len(G)
    values = [ref.value(G, x) for x in out.vectors]
    expect(len(values) == n * n + n + 1, f"{len(values)} roots, expected n^2+n+1")
    expect(values.count(1) == n * n + n and values.count(0) == 1, "tree root values")


def _check_one_tree(out, B, G):
    n = len(G)
    values = [ref.value(G, x) for x in out.vectors]
    expect(len(values) == 2 * n * n + 1, f"{len(values)} roots, expected 2n^2+1")
    expect(values.count(2) == 2 * n, f"{values.count(2)} 2-roots, expected 2n")
    expect(values.count(0) == 1 and values.count(1) == 2 * n * n - 2 * n, "1-tree root values")


# -- solve_sweep --------------------------------------------------------------

# per round 19 type-C forms, 19 positive unit forms and one small form per
# entry of SMALL_ARROWS (its variable count): 48 forms, 40 / 40 / 20 %
TYPEC_FORMS = UNIT_FORMS = 19
SMALL_ARROWS = (1, 2, 2, 3, 3, 3, 3, 3, 3, 3)
SWEEP_TARGETS = 40
SWEEP_RANKS = range(4, 11)


def _targets(rng):
    """SWEEP_TARGETS values of d in [1, 300], one from each of as many equal strata."""
    edges = [1 + 300 * j // SWEEP_TARGETS for j in range(SWEEP_TARGETS)] + [301]
    return [rng.randrange(lo, hi) for lo, hi in zip(edges, edges[1:])]


def _small_form(rng, n, m):
    """A form on n <= 3 variables with SWEEP_TARGETS values q(y) > 0, |y_i| <= 3."""
    while True:
        m, ends = gen.small_graph(rng, m, n)
        G = ref.gram_of_graph(m, ends)
        targets = []
        for _ in range(20 * SWEEP_TARGETS):
            v = ref.value(G, [rng.randint(-3, 3) for _ in range(n)])
            if v > 0:
                targets.append(v)
                if len(targets) == SWEEP_TARGETS:
                    return G, targets


def _sweep_block(lib, rng, b):
    forms = []
    for k in range(TYPEC_FORMS):
        j = k + b * TYPEC_FORMS
        m, ends = gen.bidirected_loop_graph(rng, _cycled(SWEEP_RANKS, j), j % 3, 1 + j % 2)
        forms.append((ref.gram_of_graph(m, ends), _targets(rng)))
    for k in range(UNIT_FORMS):
        j = k + b * UNIT_FORMS
        if j % 2:
            m, ends = gen.tree_graph(rng, _cycled(SWEEP_RANKS, j))
        else:
            m, ends = gen.unbalanced_one_tree(rng, _cycled(SWEEP_RANKS, j), allow_loop=False)
        forms.append((ref.gram_of_graph(m, ends), _targets(rng)))
    for k, n in enumerate(SMALL_ARROWS):
        forms.append(_small_form(rng, n, _cycled(range(1, n + 2), k + b)))
    ops = []
    for G, targets in forms:
        q = _form(lib, G)
        ops += [Op("solve", len(G), (q, d, G), {}) for d in targets]
    return ops


def _run_solve(lib, q, d, G):
    return lib.roots_dioph.solve(q, d)


def _check_solve(out, q, d, G):
    expect(len(out.x) == len(G) and ref.value(G, out.x) == d, f"solve returned x with q(x) != {d}")


BLOCK_MAKERS = {"classify": _classify_block, "walk_roots": _walk_block, "solve_sweep": _sweep_block}
RUNNERS = {
    "quiver": _run_graph_classify, "negcycle": _run_graph_classify, "loops": _run_loops_classify,
    "gentle": _run_gentle, "walk": _run_walk, "tree": _run_positive, "one_tree": _run_positive,
    "solve": _run_solve,
}
CHECKS = {
    "quiver": _check_graph_classify, "negcycle": _check_graph_classify,
    "loops": _check_graph_classify, "gentle": _check_gentle, "walk": _check_walk,
    "tree": _check_tree, "one_tree": _check_one_tree, "solve": _check_solve,
}
