import random

import pytest

from bidiforms.bidigraph import (
    BidirectedGraph,
    OrthogonalMatrix,
    apply,
    arrow_permutation,
    balance,
    canonical_a,
    canonical_c,
    canonical_d,
    endpoint_rewrite,
    graph_gabrielov,
    loops_graph,
    nullity,
    rank_corank,
    rewrite_matrix,
    sign_flip,
    switch,
    switching_equivalent,
    undo,
)
from bidiforms.errors import InvalidInput
from bidiforms.exact_linalg import IntMatrix
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


def test_undo_reverses_each_graph_step():
    B = canonical_c(4, 1, 1)
    three_cycle = ("perm", (2, 3, 1) + tuple(range(4, B.n + 1)))
    assert undo(three_cycle) == ("perm", (3, 1, 2) + tuple(range(4, B.n + 1)))
    # a 3-cycle is not its own inverse, so applying it twice does not undo it
    assert apply(apply(B, three_cycle), three_cycle) != B
    for step in (three_cycle, ("sign", 2), ("gabrielov", 1, 2), ("gabrielov", 3, 2)):
        assert apply(apply(B, step), undo(step)) == B
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


def test_apply_dispatcher():
    B = canonical_a(3, 1)
    assert apply(B, ("sign", 2)) == sign_flip(B, 2)
    assert apply(B, ("gabrielov", 1, 2)) == graph_gabrielov(B, 1, 2)
    assert apply(B, ("perm", (2, 1, 3, 4))) == arrow_permutation(B, (2, 1, 3, 4))
    O = OrthogonalMatrix.identity(4)
    assert apply(B, ("switch", O)) == B
    with pytest.raises(InvalidInput):
        apply(B, ("nonsense",))


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

    # unpickling goes through the checked constructors
    with pytest.raises(InvalidInput):
        pickle.loads(pickle.dumps(Forged(BidirectedGraph, (1, (((1, 1), (2, -1)),)))))
    with pytest.raises(InvalidInput):
        pickle.loads(pickle.dumps(Forged(IntegralQuadraticForm, ((1, 1), {(1, 1): 2}))))
    with pytest.raises(InvalidInput):
        pickle.loads(pickle.dumps(Forged(GTransform, (IntMatrix([[2]]), ()))))
