"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite is exact integer arithmetic and runs in well under a
minute.
"""

import heapq
import random

from bidiforms.bidigraph import (
    BidirectedGraph,
    OrthogonalMatrix,
    arrow_permutation,
    balance,
    canonical_a,
    canonical_c as canonical_c_graph,
    canonical_d,
    graph_gabrielov,
    rank_corank,
    sign_flip,
    switch,
)
from bidiforms.classify import (
    canonical_c,
    dynkin_type,
    dynkin_unit_form,
    gabrielov_update,
    realize,
)
from bidiforms.errors import NotIncidenceForm
from bidiforms.exact_linalg import IntMatrix
from bidiforms.gentle import euler_pipeline, threads
from bidiforms.qform import IntegralQuadraticForm
from bidiforms.roots_dioph import (
    LAGRANGE_BRIDGE,
    RootSystemReport,
    companion,
    reflect,
    root_system_report,
    solve,
)
from bidiforms.walks import (
    brute_force_roots,
    roots_positive,
    theorem_c_roots,
    walk_root_cover,
)
from tests.test_bidigraph import B_3V, B_4V, gabrielov_matrix, random_connected
from tests.test_gentle import EX_LOOP_PAIR, LAMBDA_K, random_gentle
from tests.test_qform import Q_ALGO, Q_C4, q_a

PASS = "PASS  criterion {n}: {what}"


# -- helpers: tree and 1-tree generation -------------------------------------


def _prufer_edges(seq, k):
    degree = [1] * (k + 1)
    for s in seq:
        degree[s] += 1
    leaves = [v for v in range(1, k + 1) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for s in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, s))
        degree[s] -= 1
        if degree[s] == 1:
            heapq.heappush(leaves, s)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return edges


def _tree_canon(k, edges):
    if k == 1:
        return "()"
    adj = {v: set() for v in range(1, k + 1)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    # find the center by pruning leaves
    alive = set(adj)
    deg = {v: len(adj[v]) for v in alive}
    layer = [v for v in alive if deg[v] <= 1]
    while len(alive) > 2:
        nxt = []
        for v in layer:
            alive.discard(v)
            for w in adj[v]:
                if w in alive:
                    deg[w] -= 1
                    if deg[w] == 1:
                        nxt.append(w)
        layer = nxt

    def encode(root, parent):
        subs = sorted(encode(w, root) for w in adj[root] if w != parent)
        return "(" + "".join(subs) + ")"

    return min(encode(c, None) for c in alive)


def _all_tree_shapes(k):
    """All trees on k vertices up to isomorphism (as edge lists)."""
    if k == 1:
        return []
    if k == 2:
        return [[(1, 2)]]
    shapes = {}
    for seq in _all_seqs(k, k - 2):
        edges = _prufer_edges(seq, k)
        shapes.setdefault(_tree_canon(k, edges), edges)
    return list(shapes.values())


def _all_seqs(k, length):
    if length == 0:
        yield ()
        return
    for rest in _all_seqs(k, length - 1):
        for v in range(1, k + 1):
            yield rest + (v,)


def _signed_tree(rng, edges, k):
    ends = []
    for (u, v) in edges:
        ends.append(((u, rng.choice((1, -1))), (v, rng.choice((1, -1)))))
    return BidirectedGraph(k, ends)


def _sample_trees(rng, n, count):
    """`count` random signed trees with n arrows (Pruefer sampling)."""
    k = n + 1
    out = []
    path = [(i, i + 1) for i in range(1, k)]
    star = [(1, i) for i in range(2, k + 1)]
    out.append(_signed_tree(rng, path, k))
    out.append(_signed_tree(rng, star, k))
    for _ in range(count):
        seq = tuple(rng.randint(1, k) for _ in range(k - 2))
        out.append(_signed_tree(rng, _prufer_edges(seq, k), k))
    return out


def _unbalanced_one_tree(rng, n, cycle_len):
    """Unbalanced 1-tree with n arrows: odd cycle of given length plus tree arrows."""
    ends = []
    if cycle_len == 1:
        ends.append(((1, -1), (1, -1)))  # bidirected loop
        used = 1
    else:
        for i in range(1, cycle_len):
            ends.append(((i, 1), (i + 1, -1)))
        # close the cycle with a two-head arrow to make it negative
        ends.append(((cycle_len, -1), (1, -1)))
        used = cycle_len
    for _ in range(n - cycle_len):
        anchor = rng.randint(1, used)
        used += 1
        ends.append(
            ((anchor, rng.choice((1, -1))), (used, rng.choice((1, -1))))
        )
    B = BidirectedGraph(used, ends)
    assert B.m == B.n == n
    return B


# -- criteria -----------------------------------------------------------------


def test_criterion_1_example_pair():
    q = IntegralQuadraticForm([1, 1, 1], {(1, 2): -1, (2, 3): -1})
    for B in (B_3V, B_4V):
        assert B.incidence_form() == q
        assert q.gram().to_lists() == [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
        assert rank_corank(B) == (3, 0)
    assert balance(B_3V).beta == 0
    assert balance(B_4V).beta == 1
    print(PASS.format(n=1, what="worked example pair: forms, Gram, balance, ranks"))


def test_criterion_2_example_root_sets():
    q = B_3V.incidence_form()
    ones = theorem_c_roots(B_3V, 1, 8).vectors
    twos = theorem_c_roots(B_3V, 2, 10).vectors
    expected_ones = set()
    for v in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 1, 1)]:
        expected_ones |= {v, tuple(-c for c in v)}
    expected_twos = set()
    for v in [(1, 0, 1), (1, 0, -1), (1, 2, 1)]:
        expected_twos |= {v, tuple(-c for c in v)}
    assert ones == frozenset(expected_ones)
    assert twos == frozenset(expected_twos)
    assert brute_force_roots(q, 1, 3).vectors == ones
    assert brute_force_roots(q, 2, 3).vectors == twos
    print(PASS.format(n=2, what="worked example 1-root and 2-root sets, oracle agreement"))


def test_criterion_3_positive_counts():
    rng = random.Random(301)
    for n in range(1, 9):
        if n <= 5:
            trees = [
                _signed_tree(rng, edges, n + 1) for edges in _all_tree_shapes(n + 1)
            ]
        else:
            trees = _sample_trees(rng, n, count=10)
        for B in trees:
            rep = roots_positive(B)
            assert len(rep.vectors) == n * n + n + 1
            q = B.incidence_form()
            if n <= 5:
                assert {x for x in rep.vectors if q.evaluate(x) == 1} == \
                    brute_force_roots(q, 1, 3).vectors
                assert brute_force_roots(q, 0, 3).vectors == {(0,) * n}
    for n in range(2, 9):
        for cycle_len in {1, 2, min(3, n), n}:
            if cycle_len > n:
                continue
            B = _unbalanced_one_tree(rng, n, cycle_len)
            rep = roots_positive(B)
            assert len(rep.vectors) == 2 * n * n + 1
            assert rep.value_counts[2] == 2 * n
            if n <= 5:
                q = B.incidence_form()
                assert {x for x in rep.vectors if q.evaluate(x) == 1} == \
                    brute_force_roots(q, 1, 3).vectors
                twos = {x for x in rep.vectors if q.evaluate(x) == 2}
                assert twos <= brute_force_roots(q, 2, 4).vectors
    print(PASS.format(n=3, what="tree count n^2+n+1 and 1-tree count 2n^2+1 with 2n two-roots"))


def test_criterion_4_oracle_sandwich():
    rng = random.Random(401)
    done = 0
    while done < 200:
        m = rng.randint(1, 5)
        n = rng.randint(max(1, m - 1), 5)
        B = random_connected(rng, m=m, n=n)
        q = B.incidence_form()
        sets, complete = walk_root_cover(B, bound=3)
        assert complete, "boxed 0/1-roots must be covered by walk roots"
        for d in (0, 1, 2):
            for x in sets[d]:
                assert q.evaluate(x) == d
        beta = balance(B).beta
        assert (len(sets[2]) == 0) == (beta == 1)
        done += 1
    print(PASS.format(n=4, what="walk-root sandwich on 200 random graphs (bound 3)"))


def test_criterion_5_universality():
    targets = {
        "A4": q_a(4),
        "D4": dynkin_unit_form("D", 4),
        "C4": Q_C4,
        "C5^(1,1)": canonical_c_graph(5, 1, 1).incidence_form(),
    }
    for name, q in targets.items():
        for d in range(0, 301):
            rep = solve(q, d)
            assert q.evaluate(rep.x) == d, f"{name} failed at d={d}"
    a4 = targets["A4"]
    assert a4.evaluate((0, 5, 1, 14)) == 203
    assert a4.evaluate((1, 0, 0, 17)) == 290
    table = [
        ((0, 1, 0, 0), 1), ((-1, 0, 0, 0), 2), ((0, 2, 1, 0), 3), ((0, 2, 0, 0), 4),
        ((-1, 1, 0, 0), 5), ((0, 3, 2, 1), 6), ((0, 3, 1, 0), 7), ((-2, 0, 0, 0), 8),
        ((0, 3, 0, 0), 9), ((-1, 2, 0, 0), 10), ((0, 4, 2, 1), 11), ((0, 4, 2, 0), 12),
        ((0, 4, 1, 0), 13), ((-1, 3, 2, 1), 14), ((-1, 3, 1, 0), 15), ((0, 4, 0, 0), 16),
    ]
    for x, d in table:
        assert Q_C4.evaluate(x) == d
    bridged = LAGRANGE_BRIDGE.transpose() @ Q_C4.gram() @ LAGRANGE_BRIDGE
    assert bridged == IntMatrix([[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]])
    assert LAGRANGE_BRIDGE.det() == 2
    print(PASS.format(n=5, what="universality 0..300 on four forms, witnesses, bridge matrix"))


def test_criterion_6_algo_pipeline():
    B = realize(Q_ALGO)
    assert B.incidence_form() == Q_ALGO
    assert B.m == 3 and B.n == 4
    assert len(B.bidirected_loops()) == 1
    T, r, c1, c2 = canonical_c(Q_ALGO)
    assert (r, c1, c2) == (3, 1, 0)
    target = canonical_c_graph(3, 1, 0).incidence_form()
    assert (T.matrix.transpose() @ Q_ALGO.gram() @ T.matrix) == target.gram()
    print(PASS.format(n=6, what="realization and canonical reduction of the 4-variable example"))


def test_criterion_7_classification_consistency():
    for r in range(1, 7):
        for c in range(3):
            typ, crk = dynkin_type(canonical_a(r, c).incidence_form())
            assert (typ.family, typ.rank, crk) == ("A", r, c)
    for r in range(4, 7):
        for c in range(3):
            typ, crk = dynkin_type(canonical_d(r, c).incidence_form())
            assert (typ.family, typ.rank, crk) == ("D", r, c)
    for r in range(2, 7):
        for c1 in range(3):
            for c2 in range(3):
                typ, crk = dynkin_type(canonical_c_graph(r, c1, c2).incidence_form())
                assert (typ.family, typ.rank, crk) == ("C", r, c1 + c2)
    for r in (6, 7, 8):
        q = dynkin_unit_form("E", r)
        typ, crk = dynkin_type(q)
        assert (typ.family, typ.rank, crk) == ("E", r, 0)
        try:
            realize(q)
            raise AssertionError("type E must not be realizable")
        except NotIncidenceForm:
            pass
    print(PASS.format(n=7, what="canonical families typed A/D/C with coranks; E rejected"))


def test_criterion_8_theorem_a_predicate():
    rng = random.Random(801)
    done = 0
    while done < 100:
        m = rng.randint(4, 7)
        n = rng.randint(m - 1, m + 2)
        B = random_connected(rng, m=m, n=n, loops=False)
        beta = balance(B).beta
        typ, crk = dynkin_type(B.incidence_form())
        assert crk == n - m + beta
        if beta == 0:
            assert typ.family == "D" and typ.rank == m
        else:
            assert typ.family == "A" and typ.rank == m - 1
        done += 1
    print(PASS.format(n=8, what="type dichotomy on 100 random loop-less graphs: D iff unbalanced"))


def criterion_9_graphs():
    """The trees (family A) and unbalanced 1-trees (family C) of criterion 9, n <= 6."""
    rng = random.Random(901)
    graphs = []
    for n in range(1, 7):
        graphs += [(B, "A") for B in [canonical_a(n, 0)] + _sample_trees(rng, n, count=2)]
    for n in range(2, 7):
        graphs += [(B, "C") for B in (canonical_c_graph(n, 0, 0), _unbalanced_one_tree(rng, n, min(3, n)))]
    return graphs


def test_criterion_9_root_systems():
    for B, family in criterion_9_graphs():
        n = B.n
        rep = root_system_report(B)
        assert rep.is_root_system and rep.family == family
        assert rep.nonzero_count == (n * n + n if family == "A" else 2 * n * n)
        _check_intertwining(B)
    # n = 18, one tree and one unbalanced 1-tree: the report alone, in milliseconds
    rng = random.Random(918)
    for B, family, count in ((_sample_trees(rng, 18, count=1)[-1], "A", 18 * 19),
                             (_unbalanced_one_tree(rng, 18, 5), "C", 2 * 18 * 18)):
        assert root_system_report(B) == RootSystemReport(True, family, 18, count)
    print(PASS.format(n=9, what="root systems A_n / C_n with reflection intertwining"))


def _check_intertwining(B):
    q = B.incidence_form()
    I_t = B.incidence_matrix().transpose()
    roots = [v for v in roots_positive(B).vectors if any(v)]
    basis = [tuple(1 if t == k else 0 for t in range(B.n)) for k in range(B.n)]
    for x in roots:
        O = companion(B, x).companion
        for e in basis:
            assert I_t.matvec(reflect(q, x, e)) == O.matvec(I_t.matvec(e))


def test_criterion_10_gentle_suite():
    rep = euler_pipeline(EX_LOOP_PAIR)
    assert rep.cartan.to_lists() == [[1, 1], [1, 2]]
    assert rep.incidence.to_lists() == [[2, 0], [-1, 1]]
    assert rep.form == IntegralQuadraticForm([2, 1], {(1, 2): -2})
    assert rep.components == (((1, 2), "C2", 0),)
    assert euler_pipeline(LAMBDA_K).form == IntegralQuadraticForm([1])
    rng = random.Random(1001)
    for _ in range(50):
        pres = random_gentle(rng)
        permitted, forbidden, phi = threads(pres)
        for v in range(1, pres.m + 1):
            assert sum(th.vertices.count(v) for th in permitted) == 2
            assert sum(th.vertices.count(v) for th in forbidden) == 2
        erep = euler_pipeline(pres)
        assert (erep.incidence @ erep.incidence.transpose()) == erep.form.gram()
        C = erep.cartan
        for fi, th in enumerate(forbidden):
            eta = permitted[phi[fi]]
            assert C.matvec(th.floor_vector(pres.m)) == eta.ceil_vector(pres.m)
    print(PASS.format(n=10, what="gentle example, Lambda=K, and 50 random presentations"))


def test_criterion_11_transformation_laws():
    rng = random.Random(1101)
    done = 0
    while done < 200:
        B = random_connected(rng)
        n = B.n
        kind = rng.choice(["gabrielov", "sign", "perm"])
        if kind == "gabrielov" and n >= 2:
            i, j = rng.sample(range(1, n + 1), 2)
            T = gabrielov_matrix(B, i, j)
            B2 = graph_gabrielov(B, i, j)
        elif kind == "sign":
            i = rng.randint(1, n)
            T = IntMatrix(
                [[(-1 if a == b == i - 1 else 1 if a == b else 0) for b in range(n)]
                 for a in range(n)]
            )
            B2 = sign_flip(B, i)
        elif kind == "perm":
            pi = list(range(1, n + 1))
            rng.shuffle(pi)
            T = IntMatrix([[1 if pi[b] - 1 == a else 0 for b in range(n)] for a in range(n)])
            B2 = arrow_permutation(B, pi)
        else:
            continue
        assert (T.transpose() @ B.incidence_matrix()) == B2.incidence_matrix()
        done += 1
    done = 0
    while done < 50:
        B = random_connected(rng)
        signs = [rng.choice((1, -1)) for _ in range(B.m)]
        perm = list(range(1, B.m + 1))
        rng.shuffle(perm)
        O = OrthogonalMatrix(signs, perm)
        assert switch(B, O).incidence_form() == B.incidence_form()
        done += 1
    done = 0
    while done < 60:
        n = rng.randint(2, 5)
        diag = [rng.choice([1, 1, 2]) for _ in range(n)]
        off = {}
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                if rng.randrange(10) < 7:
                    off[(i, j)] = rng.randint(-2, 2) * diag[i - 1] * diag[j - 1]
        q = IntegralQuadraticForm(diag, off)
        i, j = rng.sample(range(1, n + 1), 2)
        qi = q.coefficient(i, i)
        T = IntMatrix(
            [[1 if a == b else 0 for b in range(n)] for a in range(n)]
        )
        updated = gabrielov_update(q, i, j)
        if qi != 0:
            lst = T.to_lists()
            lst[i - 1][j - 1] = -(q.coefficient(i, j) // qi)
            T = IntMatrix(lst)
        assert updated == q.compose(T)
        done += 1
    print(PASS.format(n=11, what="incidence law for 200 transformations, 50 switchings, update rule"))
