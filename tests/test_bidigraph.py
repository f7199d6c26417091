import random
import re

import pytest

from bidiforms.bidigraph import (
    BidirectedGraph,
    OrthogonalMatrix,
    _Arrows,
    arrow_permutation,
    balance,
    canonical_a,
    canonical_c,
    canonical_d,
    endpoint_rewrite,
    graph_gabrielov,
    loops_graph,
    rank_corank,
    sign_flip,
    switch,
    switching_equivalent,
    undo,
)
from bidiforms.errors import InvalidInput
from bidiforms.exact_linalg import IntMatrix, integer_kernel
from bidiforms.qform import IntegralQuadraticForm, bigraph_of

# Example pair: same incidence form, different vertex counts
B_3V = BidirectedGraph(3, [((1, 1), (2, -1)), ((2, 1), (3, -1)), ((1, -1), (2, -1))])
B_4V = canonical_a(3, 0)  # directed path quiver on 4 vertices

Q_A3 = IntegralQuadraticForm([1, 1, 1], {(1, 2): -1, (2, 3): -1})


def random_graph(rng, m=None, n=None, loops=True):
    m = m or rng.randint(1, 5)
    n = n or rng.randint(1, 5)
    ends = []
    for _ in range(n):
        u = rng.randint(1, m)
        v = rng.randint(1, m) if (loops or m == 1) else rng.choice(
            [x for x in range(1, m + 1) if x != u]
        )
        ends.append(((u, rng.choice((1, -1))), (v, rng.choice((1, -1)))))
    B = BidirectedGraph(m, ends)
    if not B.is_connected():
        return None
    return B


def random_connected(rng, **kw):
    while True:
        B = random_graph(rng, **kw)
        if B is not None:
            return B


def test_incidence_matrix_example_pair():
    assert B_3V.incidence_matrix().to_lists() == [[1, -1, 0], [0, 1, -1], [-1, -1, 0]]
    assert B_4V.incidence_matrix().to_lists() == [
        [1, -1, 0, 0],
        [0, 1, -1, 0],
        [0, 0, 1, -1],
    ]
    assert B_3V.incidence_form() == Q_A3
    assert B_4V.incidence_form() == Q_A3
    assert B_3V.incidence_form().gram().to_lists() == [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]


def test_incidence_form_directed_loop_is_zero():
    B = loops_graph(1, 0, 0)
    assert B.incidence_form() == IntegralQuadraticForm([0])


def test_incidence_form_c4():
    q = canonical_c(4, 0, 0).incidence_form()
    assert q == IntegralQuadraticForm([2, 1, 1, 1], {(1, 2): -2, (2, 3): -1, (3, 4): -1})


def test_incidence_form_equals_dense_gram_oracle():
    # the sparse construction against q = from_gram(I I^tr), the dense oracle
    rng = random.Random(4242)
    kinds = {"directed_loop": 0, "bidirected_loop": 0, "parallel": 0}
    for _ in range(400):
        B = random_graph(rng, m=rng.randint(1, 6), n=rng.randint(1, 9))
        if B is None:
            continue
        if rng.random() < 0.3:  # repeat an arrow, possibly with its signs flipped
            (u, e), (v, f) = rng.choice(B.ends)
            s = rng.choice((1, -1))
            B = BidirectedGraph(B.m, list(B.ends) + [((u, s * e), (v, s * f))])
        I = B.incidence_matrix()
        q = B.incidence_form()
        oracle = IntegralQuadraticForm.from_gram(I @ I.transpose())
        assert q == oracle
        assert list(q.off.items()) == list(oracle.off.items())  # same iteration order
        kinds["directed_loop"] += bool(B.directed_loops())
        kinds["bidirected_loop"] += bool(B.bidirected_loops())
        kinds["parallel"] += len(set(map(frozenset, map(B.underlying, range(1, B.n + 1))))) < B.n
    assert min(kinds.values()) > 20


def _pushed(B, *steps):
    graph = _Arrows(B)
    for step in steps:
        graph.push(step)
    return graph.freeze()


def test_undo_reverses_each_graph_step():
    B = canonical_c(4, 1, 1)
    three_cycle = ("perm", (2, 3, 1) + tuple(range(4, B.n + 1)))
    assert undo(three_cycle) == ("perm", (3, 1, 2) + tuple(range(4, B.n + 1)))
    # a 3-cycle is not its own inverse, so applying it twice does not undo it
    assert _pushed(B, three_cycle, three_cycle) != B
    for step in (three_cycle, ("sign", 2), ("gabrielov", 1, 2), ("gabrielov", 3, 2)):
        assert _pushed(B, step, undo(step)) == B
    with pytest.raises(InvalidInput):
        undo(("rewrite", 1, 2, 1))


def test_diagonal_rule():
    rng = random.Random(1)
    for _ in range(30):
        B = random_connected(rng)
        q = B.incidence_form()
        for i in range(1, B.n + 1):
            if B.is_bidirected_loop(i):
                assert q.diag[i - 1] == 2
            elif B.is_directed_loop(i):
                assert q.diag[i - 1] == 0
            else:
                assert q.diag[i - 1] == 1


def test_balance_flags():
    assert balance(B_4V).beta == 1
    rep = balance(B_3V)
    assert rep.beta == 0
    assert rep.witness is not None


def test_balance_bidirected_loop_witness():
    B = canonical_c(2, 0, 0)
    rep = balance(B)
    assert rep.beta == 0
    v0, i, v1 = rep.witness
    assert v0 == v1 and B.is_bidirected_loop(i)


def nullity(B: BidirectedGraph) -> int:
    return len(integer_kernel(B.incidence_matrix()))


def test_balance_quiver_switch():
    rng = random.Random(2)
    for _ in range(40):
        B = random_connected(rng)
        rep = balance(B)
        assert rep.beta == nullity(B)  # Null(I(B)) = beta for connected graphs
        if rep.beta == 1:
            O = rep.quiver_switch
            assert switch(B, O).is_quiver()
            ones = (1,) * B.m
            I = B.incidence_matrix()
            assert all(v == 0 for v in (I @ O.to_matrix()).matvec(ones))
        else:
            w = rep.witness
            arrows = [w[k] for k in range(1, len(w), 2)]
            assert w[0] == w[-1]
            assert sum(1 for a in arrows if B.sigma(a) == -1) % 2 == 1


def test_rank_corank():
    assert rank_corank(B_4V) == (3, 0)
    assert rank_corank(B_3V) == (3, 0)
    assert rank_corank(loops_graph(5, 0, 0)) == (0, 5)
    for s, t in ((1, 2), (0, 4)):
        n = s + t
        B = loops_graph(0, s, t)
        assert rank_corank(B) == (1, n - 1)


def test_rank_corank_agrees_with_form():
    rng = random.Random(3)
    from bidiforms.qform import analyze

    for _ in range(25):
        B = random_connected(rng)
        rk, crk = rank_corank(B)
        rep = analyze(B.incidence_form())
        assert (rep.rank, rep.corank) == (rk, crk)


def gabrielov_matrix(B, i, j):
    q = B.incidence_form()
    qi = q.coefficient(i, i)
    qij = q.coefficient(i, j)
    n = B.n
    T = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
    if qi != 0:
        assert qij % qi == 0
        T[i - 1][j - 1] = -qij // qi
    return IntMatrix(T)


def test_transformation_law_random():
    rng = random.Random(4)
    for _ in range(200):
        B = random_connected(rng)
        n = B.n
        kind = rng.choice(["gabrielov", "sign", "perm"])
        if kind == "gabrielov":
            if n < 2:
                continue
            i, j = rng.sample(range(1, n + 1), 2)
            T = gabrielov_matrix(B, i, j)
            B2 = graph_gabrielov(B, i, j)
        elif kind == "sign":
            i = rng.randint(1, n)
            T = IntMatrix(
                [[(-1 if a == b == i - 1 else 1 if a == b else 0) for b in range(n)] for a in range(n)]
            )
            B2 = sign_flip(B, i)
        else:
            pi = list(range(1, n + 1))
            rng.shuffle(pi)
            T = IntMatrix([[1 if pi[b] - 1 == a else 0 for b in range(n)] for a in range(n)])
            B2 = arrow_permutation(B, pi)
        assert (T.transpose() @ B.incidence_matrix()) == B2.incidence_matrix()


def test_gabrielov_example_tra():
    # 4 vertices, 5 two-tail arrows; the (3,5) step turns arrow 5 into a directed arrow
    B0 = BidirectedGraph(
        4,
        [
            ((1, 1), (2, 1)),
            ((1, 1), (2, 1)),
            ((1, 1), (3, 1)),
            ((2, 1), (4, 1)),
            ((1, 1), (2, 1)),
        ],
    )
    B1 = graph_gabrielov(B0, 3, 5)
    assert B1.arrow_ends(5) == ((2, 1), (3, -1))  # directed from u2 to u3
    assert not B1.is_loop(5) and B1.sigma(5) == 1


def test_gabrielov_non_incident_is_identity():
    B = canonical_a(3, 0)
    assert graph_gabrielov(B, 1, 3) == B


def test_full_transformation_chain_lands_on_canonical_a():
    # six-stage chain: two inflations, two sign flips, an arrow permutation
    # and a final switching turn the all-two-tail graph into A_3^2
    B0 = BidirectedGraph(
        4,
        [
            ((1, 1), (2, 1)),
            ((1, 1), (2, 1)),
            ((1, 1), (3, 1)),
            ((2, 1), (4, 1)),
            ((1, 1), (2, 1)),
        ],
    )
    B1 = graph_gabrielov(B0, 3, 5)
    B2 = graph_gabrielov(B1, 4, 5)
    assert B2.arrow_ends(5) == ((3, -1), (4, -1))  # two-head u3 u4
    B3 = sign_flip(sign_flip(B2, 1), 2)
    B4 = arrow_permutation(B3, (3, 5, 4, 2, 1))
    O = OrthogonalMatrix.from_matrix(
        IntMatrix([[1, 0, 0, 0], [0, 0, 0, -1], [0, -1, 0, 0], [0, 0, 1, 0]])
    )
    B5 = switch(B4, O)
    assert B5 == canonical_a(3, 2)


def test_switching_preserves_form():
    rng = random.Random(5)
    for _ in range(50):
        B = random_connected(rng)
        O = random_orthogonal(rng, B.m)
        BO = switch(B, O)
        assert BO.incidence_form() == B.incidence_form()
        assert (B.incidence_matrix() @ O.to_matrix()) == BO.incidence_matrix()


def random_orthogonal(rng, m):
    signs = [rng.choice((1, -1)) for _ in range(m)]
    perm = list(range(1, m + 1))
    rng.shuffle(perm)
    return OrthogonalMatrix(signs, perm)


def test_orthogonal_matrix_round_trip():
    rng = random.Random(6)
    for _ in range(20):
        O = random_orthogonal(rng, rng.randint(1, 6))
        M = O.to_matrix()
        assert (M @ M.transpose()) == IntMatrix.identity(O.m)
        assert OrthogonalMatrix.from_matrix(M) == O


def test_switch_by_identity():
    B = B_3V
    assert switch(B, OrthogonalMatrix.identity(3)) == B


def test_endpoint_rewrite_table_rows():
    # row 1: parallel directed arrows -> directed loop at the head
    B = BidirectedGraph(2, [((2, 1), (1, -1)), ((2, 1), (1, -1))])
    B2 = endpoint_rewrite(B, 1, 2, 1)
    assert B2.is_directed_loop(2) and B2.underlying(2) == (1, 1)
    # row 2: two two-head loops -> directed loop
    B = BidirectedGraph(1, [((1, -1), (1, -1)), ((1, -1), (1, -1))])
    B2 = endpoint_rewrite(B, 1, 2, 1)
    assert B2.is_directed_loop(2)
    # row 3: two-head loop + outgoing directed arrow, eps = -1
    B = BidirectedGraph(2, [((1, -1), (1, -1)), ((1, 1), (2, -1))])
    B2 = endpoint_rewrite(B, 2, 1, -1)
    assert B2.arrow_ends(1) == ((1, -1), (2, -1))  # two-head arrow
    with pytest.raises(InvalidInput):
        endpoint_rewrite(B, 2, 1, 1)


def rewrite_matrix(n: int, i: int, j: int, eps: int) -> IntMatrix:
    """Form-level matrix of the endpoint rewrite: E_j -> E_j - eps E_i."""
    S = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
    S[i - 1][j - 1] = -eps
    return IntMatrix(S)


def test_endpoint_rewrite_matrix_law():
    cases = [
        (BidirectedGraph(2, [((2, 1), (1, -1)), ((2, 1), (1, -1))]), 1, 2, 1),
        (BidirectedGraph(1, [((1, -1), (1, -1)), ((1, -1), (1, -1))]), 1, 2, 1),
        (BidirectedGraph(2, [((1, -1), (1, -1)), ((1, 1), (2, -1))]), 2, 1, -1),
    ]
    for B, i, j, eps in cases:
        S = rewrite_matrix(B.n, i, j, eps)
        assert (S.transpose() @ B.incidence_matrix()) == endpoint_rewrite(
            B, i, j, eps
        ).incidence_matrix()


def test_line_bigraph_path_quiver():
    lb = canonical_a(4, 0).line_bigraph()
    assert lb == bigraph_of(IntegralQuadraticForm([1] * 4, {(1, 2): -1, (2, 3): -1, (3, 4): -1}))


def test_line_bigraph_antiparallel_pair():
    B = BidirectedGraph(2, [((1, 1), (2, -1)), ((1, -1), (2, 1))])
    assert B.line_bigraph().edges == {(1, 2): (2, -1)}  # double solid edge


def test_line_bigraph_directed_loop():
    assert loops_graph(1, 0, 0).line_bigraph().edges == {(1, 1): (1, -1)}


def test_line_bigraph_local_patterns():
    # composable directed arrows: single solid edge
    B = BidirectedGraph(3, [((1, 1), (2, -1)), ((2, 1), (3, -1))])
    assert B.line_bigraph().edges == {(1, 2): (1, -1)}
    # two directed arrows with heads at the shared vertex: single dotted edge
    B = BidirectedGraph(3, [((1, 1), (2, -1)), ((3, 1), (2, -1))])
    assert B.line_bigraph().edges == {(1, 2): (1, 1)}
    # parallel directed arrows with the same direction: double dotted edge
    B = BidirectedGraph(2, [((1, 1), (2, -1)), ((1, 1), (2, -1))])
    assert B.line_bigraph().edges == {(1, 2): (2, 1)}
    # directed arrow next to a parallel two-head arrow: no edge at all
    B = BidirectedGraph(2, [((1, 1), (2, -1)), ((1, -1), (2, -1))])
    assert B.line_bigraph().edges == {}
    # bidirected loop meets an incident non-loop arrow: dotted loop + double edge
    B = BidirectedGraph(2, [((1, -1), (1, -1)), ((1, 1), (2, -1))])
    assert B.line_bigraph().edges == {(1, 1): (1, 1), (1, 2): (2, -1)}


def test_arrows_push_matches_the_graph_functions():
    """The graph of the type-C chase, changed in place step after step, against
    the functions that build a new graph, and its vertex index against the one
    the new graph builds."""
    from tests.test_graph_layer import _random_graph

    rng = random.Random(2006)
    seen = {"gabrielov": 0, "sign": 0, "rewrite": 0, "perm": 0, "refused": 0}
    for _ in range(400):
        B = _random_graph(rng, connected=True)
        graph = _Arrows(B)
        for _ in range(12):
            kind = rng.choice(("gabrielov", "gabrielov", "sign", "rewrite", "perm") if B.n > 1 else ("sign",))
            if kind == "sign":
                step = ("sign", rng.randint(1, B.n))
                B = sign_flip(B, step[1])
            elif kind == "perm":
                step = ("perm", tuple(rng.sample(range(1, B.n + 1), B.n)))
                B = arrow_permutation(B, step[1])
            elif kind == "gabrielov":
                step = ("gabrielov", *rng.sample(range(1, B.n + 1), 2))
                B = graph_gabrielov(B, *step[1:])
            else:  # a legal rewrite where the graph has one, else a refused one
                steps = [("rewrite", i, j, eps) for i in range(1, B.n + 1) for j in range(1, B.n + 1)
                         for eps in (1, -1) if i != j]
                legal = []
                for step in steps:
                    try:
                        legal.append((step, endpoint_rewrite(B, *step[1:])))
                    except InvalidInput:
                        pass
                if legal:
                    step, B = rng.choice(legal)
                else:
                    with pytest.raises(InvalidInput):
                        graph.push(rng.choice(steps))
                    seen["refused"] += 1
                    kind = None
            if kind:
                graph.push(step)
                seen[kind] += 1
            assert graph.freeze() == B
            assert {v: s for v, s in graph.at.items() if s} == _incidence_columns(B)
    assert min(seen.values()) > 30, seen


def test_indices_of_one_graph_change_apart():
    """Steps on an `_Arrows` index leave its frozen graph, and another index of
    it, as they were: each type-C function indexes the snapshot's B' anew."""
    from tests.test_graph_layer import _random_graph

    rng = random.Random(2008)
    for _ in range(300):
        B = _random_graph(rng, connected=True)
        graph = _Arrows(B)
        before = {v: dict(s) for v, s in graph.at.items()}
        twin = _Arrows(B)
        B2 = B
        for _ in range(6):
            kind = rng.choice(("gabrielov", "sign", "perm") if B.n > 1 else ("sign",))
            if kind == "sign":
                step = ("sign", rng.randint(1, B.n))
                B2 = sign_flip(B2, step[1])
            elif kind == "perm":
                step = ("perm", tuple(rng.sample(range(1, B.n + 1), B.n)))
                B2 = arrow_permutation(B2, step[1])
            else:
                step = ("gabrielov", *rng.sample(range(1, B.n + 1), 2))
                B2 = graph_gabrielov(B2, *step[1:])
            twin.push(step)
        assert twin.freeze() == B2 and {v: s for v, s in twin.at.items() if s} == _incidence_columns(B2)
        assert graph.freeze() == B and graph.at == before and graph.ends == list(B.ends)


def test_arrows_perm_in_place_equals_arrow_permutation():
    """A perm on the chase's graph, after other steps or not, gives the graph
    and the vertex index of `arrow_permutation`."""
    from tests.test_graph_layer import _random_graph

    rng = random.Random(2007)
    for _ in range(600):
        B = _random_graph(rng)
        graph = _Arrows(B)
        if rng.random() < 0.5:
            k = rng.randint(1, B.n)
            graph.push(("sign", k))
            B = sign_flip(B, k)
        for _ in range(rng.randint(1, 2)):
            pi = tuple(rng.sample(range(1, B.n + 1), B.n))
            graph.push(("perm", pi))
            B = arrow_permutation(B, pi)
            assert graph.freeze() == B and graph.freeze().ends == B.ends
            assert {v: s for v, s in graph.at.items() if s} == _incidence_columns(B)


def _incidence_columns(B):
    """{v: {k: entry of arrow k at v}} for each vertex an arrow touches, from the
    incidence rows and the graph's own vertex index."""
    return {v: {i: B.incidence_row(i)[v - 1] for _, i in arrows} for v, arrows in B.adjacency().items()}


def test_line_bigraph_restriction_compatibility():
    rng = random.Random(7)
    for _ in range(20):
        B = random_connected(rng, m=3, n=4)
        q = B.incidence_form()
        X = sorted(rng.sample(range(1, 5), rng.randint(1, 4)))
        sub = BidirectedGraph(B.m, [B.ends[i - 1] for i in X])
        assert sub.incidence_form() == q.restrict(X)


def test_switching_equivalent_round_trip():
    rng = random.Random(8)
    for _ in range(25):
        m = rng.randint(1, 4)
        B = random_connected(rng, m=m, n=rng.randint(max(1, m - 1), 4))
        O = random_orthogonal(rng, B.m)
        B2 = switch(B, O)
        found = switching_equivalent(B, B2)
        assert found is not None
        assert switch(B, found) == B2


def test_switching_equivalent_rejects_different_sizes():
    assert switching_equivalent(B_3V, B_4V) is None


def test_balanced_equal_forms_are_switching_equivalent():
    # two balanced loop-less connected graphs with equal incidence forms
    B = canonical_a(3, 1)
    O = OrthogonalMatrix((1, -1, 1, -1), (3, 1, 4, 2))
    B2 = switch(B, O)
    found = switching_equivalent(B, B2)
    assert found is not None and switch(B, found) == B2


def test_independently_built_equal_forms_are_switching_equivalent():
    # a backtracking realization and the canonical graph carry the same form,
    # are balanced, loop-less and connected, hence must be switchings
    from bidiforms.classify import realize

    B = canonical_a(3, 1)
    q = B.incidence_form()
    B2 = realize(q)
    assert B2.incidence_form() == q
    found = switching_equivalent(B, B2)
    assert found is not None and switch(B, found) == B2


def test_canonical_c_line_bigraph_shape():
    # dotted loop at 1, double solid edge 1-2, solid chain onward
    from bidiforms.qform import Bigraph

    lb = canonical_c(3, 0, 0).line_bigraph()
    assert lb == Bigraph(3, {(1, 1): (1, 1), (1, 2): (2, -1), (2, 3): (1, -1)})


def test_canonical_families():
    assert canonical_a(3, 0) == B_4V
    assert bigraph_of(canonical_c(4, 0, 0).incidence_form()) == canonical_c(4, 0, 0).line_bigraph()
    for r, c1, c2 in [(2, 0, 0), (3, 1, 0), (4, 1, 2), (5, 2, 1)]:
        B = canonical_c(r, c1, c2)
        assert rank_corank(B) == (r, c1 + c2)
        assert len(B.bidirected_loops()) == c2 + 1
    for r, c in [(1, 0), (3, 2), (5, 1)]:
        assert rank_corank(canonical_a(r, c)) == (r, c)
    for r, c in [(3, 0), (4, 2), (6, 1)]:
        assert rank_corank(canonical_d(r, c)) == (r, c)
    with pytest.raises(InvalidInput):
        canonical_c(1, 0, 0)


def test_json_round_trip():
    rng = random.Random(9)
    for _ in range(20):
        B = random_connected(rng)
        assert BidirectedGraph.from_json_dict(B.to_json_dict()) == B


def test_graphs_and_matrices_pickle_and_copy():
    import copy
    import pickle

    from bidiforms.bidigraph import OrthogonalMatrix, switch
    from bidiforms.classify import GTransform, canonical_c as canonical_c_form
    from tests.test_graph_layer import _random_graph, _random_orthogonal

    rng = random.Random(7106)
    objs = []
    for _ in range(200):
        B = _random_graph(rng)
        B.adjacency()  # the cached index is not part of the value
        O = _random_orthogonal(rng, B.m)
        objs += [B, O, switch(B, O), O.to_matrix()]
    T, *_ = canonical_c_form(IntegralQuadraticForm([2, 1, 1], {(1, 2): 2, (1, 3): -2, (2, 3): -1}))
    objs += [T, OrthogonalMatrix.identity(1)]
    for obj in objs:
        for back in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj), copy.copy(obj)):
            assert type(back) is type(obj) and back == obj
            if not isinstance(obj, GTransform):  # a GTransform has no hash
                assert hash(back) == hash(obj)

    class Forged:  # pickles as a call of `cls` on `args`, as the value types do
        def __init__(self, cls, args):
            self.cls, self.args = cls, args

        def __reduce__(self):
            return (self.cls, self.args)

    # a pickle that calls a value type's constructor is checked (a pickled GTransform,
    # one the library held, names `GTransform._trusted` instead)
    with pytest.raises(InvalidInput):
        pickle.loads(pickle.dumps(Forged(BidirectedGraph, (1, (((1, 1), (2, -1)),)))))
    with pytest.raises(InvalidInput):
        pickle.loads(pickle.dumps(Forged(IntegralQuadraticForm, ((1, 1), {(1, 1): 2}))))
    with pytest.raises(InvalidInput):
        pickle.loads(pickle.dumps(Forged(GTransform, (IntMatrix([[2]]), ()))))


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: BidirectedGraph(2, [((1, 2), (2, -1))]), InvalidInput, "endpoint signs must be +-1"),
        (lambda: BidirectedGraph(2, [((0, 1), (2, -1))]), InvalidInput, "vertices are 1-based"),
        (lambda: BidirectedGraph(0, [((1, 1), (2, -1))]), InvalidInput, "graph needs at least one vertex"),
        (lambda: BidirectedGraph(2, []), InvalidInput, "graph needs at least one arrow"),
        (lambda: setattr(B_3V, "m", 4), AttributeError, "BidirectedGraph is immutable"),
        (lambda: setattr(OrthogonalMatrix.identity(2), "signs", (1, 1)), AttributeError,
         "OrthogonalMatrix is immutable"),
        (lambda: OrthogonalMatrix((1, 2), (1, 2)), InvalidInput, "signs must be +-1"),
        (lambda: OrthogonalMatrix((1, 1), (1, 1)), InvalidInput, "perm must be a permutation of 1..m"),
        (lambda: OrthogonalMatrix.from_matrix(IntMatrix([[1, 0]])), InvalidInput,
         "orthogonal matrix must be square"),
        (lambda: OrthogonalMatrix.from_matrix(IntMatrix([[2, 0], [0, 1]])), InvalidInput,
         "not a signed permutation matrix"),
        (lambda: OrthogonalMatrix.from_matrix(IntMatrix([[1, 0], [1, 0]])), InvalidInput,
         "not a signed permutation matrix"),  # one nonzero per row, but two in a column
        (lambda: switch(B_3V, OrthogonalMatrix.identity(2)), InvalidInput, "switching matrix size mismatch"),
        (lambda: endpoint_rewrite(B_3V, 1, 2, 2), InvalidInput, "eps must be +-1"),
        (lambda: endpoint_rewrite(B_3V, 1, 1, 1), InvalidInput, "endpoint rewrite needs two distinct arrows"),
        (lambda: canonical_a(0, 0), InvalidInput, "canonical_a requires r >= 1, c >= 0"),
        (lambda: canonical_d(2, 0), InvalidInput, "canonical_d requires r >= 3, c >= 0"),
        (lambda: loops_graph(0, 0, 0), InvalidInput, "loops_graph requires p, s, t >= 0 with p+s+t >= 1"),
    ],
)
def test_graphs_refuse_malformed_input(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as refused:
        build()
    assert type(refused.value) is error


@pytest.mark.parametrize(
    "build",
    [
        lambda: BidirectedGraph(2.0, [((1, 1), (2, -1))]),
        lambda: BidirectedGraph(2, [((1.5, 1), (2, -1))]),
        lambda: BidirectedGraph(2, [((1, 1.0), (2, -1))]),
        lambda: OrthogonalMatrix((1, -1.0), (1, 2)),
        lambda: OrthogonalMatrix((1, -1), (1, 2.0)),
        lambda: arrow_permutation(B_3V, (3, 1.0, 2)),
    ],
)
def test_graphs_refuse_non_integers(build):
    with pytest.raises(InvalidInput, match="expected an integer, got"):
        build()
