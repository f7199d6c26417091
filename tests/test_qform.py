import json
import random
import re

import pytest

from bidiforms.bidigraph import (
    BidirectedGraph,
    OrthogonalMatrix,
    canonical_a,
    canonical_c as canonical_c_graph,
    canonical_d,
    endpoint_rewrite,
    graph_gabrielov,
    loops_graph,
    sign_flip,
)
from bidiforms.classify import (
    DynkinType,
    GTransform,
    _Chase,
    dynkin_plus_zero,
    dynkin_unit_form,
    gabrielov,
    gabrielov_update,
    pivot_saturate,
    star_realization,
)
from bidiforms.errors import InvalidInput
from bidiforms.exact_linalg import IntMatrix
from bidiforms.qform import (
    Bigraph,
    IntegralQuadraticForm,
    analyze,
    bigraph_of,
    form_of,
    zero_form,
)
from bidiforms.roots_dioph import companion, four_squares, solve
from bidiforms.walks import Walk, brute_force_roots, theorem_c_roots
from tests.test_exact_linalg import _reference_integer_kernel


def q_a(r):
    """Unit form of the Dynkin path A_r."""
    return IntegralQuadraticForm([1] * r, {(i, i + 1): -1 for i in range(1, r)})


def _sign_update(q, i):
    """q with x_i replaced by -x_i, by the chase's own row update: the off-diagonal
    terms at i change sign."""
    ch = _Chase(q)
    ch.push("sign", i)
    return ch.q


Q_A3 = q_a(3)
Q_A4 = q_a(4)
Q_C2 = IntegralQuadraticForm([2, 1], {(1, 2): -2})
Q_C4 = IntegralQuadraticForm([2, 1, 1, 1], {(1, 2): -2, (2, 3): -1, (3, 4): -1})
# the 4-variable running example of the classification pipeline
Q_ALGO = IntegralQuadraticForm(
    [2, 1, 1, 1], {(1, 2): -2, (1, 3): 2, (2, 3): -1, (2, 4): 1, (3, 4): -1}
)


def test_evaluate_known_values():
    assert Q_A4.evaluate((0, 5, 1, 14)) == 203
    assert Q_A4.evaluate((1, 0, 0, 17)) == 290
    assert Q_C4.evaluate((-1, 3, 2, 1)) == 14


def test_evaluate_zero_vector():
    assert Q_A4.evaluate((0, 0, 0, 0)) == 0


def test_evaluate_dimension_mismatch():
    with pytest.raises(InvalidInput):
        Q_A4.evaluate((1, 2, 3))


def test_polarization_identity_random():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(1, 5)
        q = _random_form(rng, n)
        x = tuple(rng.randint(-4, 4) for _ in range(n))
        y = tuple(rng.randint(-4, 4) for _ in range(n))
        assert q.polarize(x, y) == q.evaluate(
            tuple(a + b for a, b in zip(x, y))
        ) - q.evaluate(x) - q.evaluate(y)
        assert q.polarize(x, x) == 2 * q.evaluate(x)


def _random_form(rng, n):
    diag = [rng.randint(-2, 3) for _ in range(n)]
    off = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if rng.randrange(10) < 6:
                off[(i, j)] = rng.randint(-3, 3)
    return IntegralQuadraticForm(diag, off)


def test_analyze_c2():
    rep = analyze(Q_C2)
    assert rep.non_negative
    assert (rep.rank, rep.corank) == (2, 0)
    assert rep.cox_regular and rep.fully_regular
    assert not rep.unit
    assert rep.dotted_loops == 1
    assert rep.connected and rep.irreducible


def test_analyze_zero_form():
    rep = analyze(zero_form(1))
    assert rep.rank == 0 and rep.corank == 1
    assert rep.radical_basis == ((1,),)
    assert not rep.irreducible
    assert rep.content == 0


def test_analyze_content():
    # the gcd of all coefficients, Cox-regular or not
    assert analyze(IntegralQuadraticForm([2] * 5)).content == 2
    assert analyze(IntegralQuadraticForm([2, 4], {(1, 2): 4})).content == 2
    assert analyze(IntegralQuadraticForm([2, 4], {(1, 2): 6})).content == 2
    assert analyze(IntegralQuadraticForm([6, 9], {(1, 2): -3})).content == 3
    assert analyze(IntegralQuadraticForm([2, 3], {(1, 2): -1})).content == 1
    assert analyze(Q_C2).content == 1


def test_analyze_radical_is_the_kernel_of_the_gram_matrix():
    # analyze skips the kernel at full rank; the result must equal the full computation
    rng = random.Random(515)
    full = 0
    for _ in range(200):
        n = rng.randint(1, 6)
        off = {(i, j): rng.randint(-2, 2) for i in range(1, n + 1) for j in range(i + 1, n + 1)}
        q = IntegralQuadraticForm([rng.randint(0, 2) for _ in range(n)], off)
        rep = analyze(q)
        assert rep.radical_basis == tuple(_reference_integer_kernel(q.gram()))
        assert len(rep.radical_basis) == rep.corank
        full += rep.corank == 0
    assert 20 < full < 180


def test_analyze_algo_example():
    rep = analyze(Q_ALGO)
    assert rep.non_negative
    assert (rep.rank, rep.corank) == (3, 1)


def test_rank_plus_corank_and_radical():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 5)
        q = _random_form(rng, n)
        rep = analyze(q)
        assert rep.rank + rep.corank == n
        if rep.non_negative:
            for h in rep.radical_basis:
                assert q.evaluate(h) == 0
                for k in range(n):
                    e = tuple(1 if t == k else 0 for t in range(n))
                    assert q.polarize(h, e) == 0


def test_restrict_drops_middle_variable():
    r = Q_A3.restrict([1, 3])
    assert r == IntegralQuadraticForm([1, 1])


def test_restrict_identity_and_errors():
    assert Q_A4.restrict([1, 2, 3, 4]) == Q_A4
    with pytest.raises(InvalidInput):
        Q_A4.restrict([])
    with pytest.raises(InvalidInput):
        Q_A4.restrict([0, 1])


def test_restrict_canonical_extension_to_c4():
    from bidiforms.bidigraph import canonical_a, canonical_c as canonical_c_graph, canonical_d, loops_graph

    for r, c1, c2 in [(4, 1, 1), (5, 0, 2), (6, 2, 0)]:
        q = canonical_c_graph(r, c1, c2).incidence_form()
        assert q.restrict([1, 2, 3, 4]) == Q_C4


def test_restrict_corank_monotone_for_nonnegative():
    rng = random.Random(9)
    checked = 0
    while checked < 15:
        n = rng.randint(2, 5)
        q = _random_form(rng, n)
        rep = analyze(q)
        if not rep.non_negative:
            continue
        X = sorted(rng.sample(range(1, n + 1), rng.randint(1, n)))
        sub = analyze(q.restrict(X))
        assert sub.corank <= rep.corank
        checked += 1


def test_direct_sum_block_gram():
    s = Q_A3.direct_sum(Q_C2)
    G = s.gram()
    assert G.rows == 5
    assert G[0, 3] == 0 and G[2, 4] == 0
    assert s.restrict([1, 2, 3]) == Q_A3
    assert s.restrict([4, 5]) == Q_C2


def test_bigraph_round_trip():
    rng = random.Random(13)
    for _ in range(40):
        q = _random_form(rng, rng.randint(1, 5))
        assert form_of(bigraph_of(q)) == q


def test_bigraph_shapes():
    d = bigraph_of(Q_A3)
    assert d.edges == {(1, 2): (1, -1), (2, 3): (1, -1)}
    z = bigraph_of(zero_form(1))
    assert z.edges == {(1, 1): (1, -1)}  # one solid loop
    dd = bigraph_of(IntegralQuadraticForm([1, 1], {(1, 2): 2}))
    assert dd.edges == {(1, 2): (2, 1)}  # double dotted edge


def test_bigraph_connectivity_ignores_loops():
    q = IntegralQuadraticForm([2, 1])
    assert not analyze(q).connected
    assert analyze(Q_C2).connected


def test_json_round_trip_bit_exact():
    rng = random.Random(17)
    for _ in range(25):
        q = _random_form(rng, rng.randint(1, 5))
        blob = json.dumps(q.to_json_dict())
        assert IntegralQuadraticForm.from_json_dict(json.loads(blob)) == q
    z = zero_form(3)
    assert IntegralQuadraticForm.from_json_dict(z.to_json_dict()) == z


def test_json_refuses_a_repeated_off_pair():
    # the constructor sums repeated keys; JSON has one entry per pair, so a repeat is refused
    data = {"n": 2, "diag": [1, 1], "off": [[1, 2, 1], [1, 2, -1]]}
    with pytest.raises(InvalidInput, match=r"\(1, 2\) is given twice"):
        IntegralQuadraticForm.from_json_dict(data)
    data["off"] = [[1, 2, -1], [1, 2, -1]]
    with pytest.raises(InvalidInput):
        IntegralQuadraticForm.from_json_dict(data)
    data["off"] = [[1, 2, -1]]
    assert IntegralQuadraticForm.from_json_dict(data) == IntegralQuadraticForm([1, 1], {(1, 2): -1})


def test_from_gram_consistency():
    rng = random.Random(19)
    for _ in range(20):
        q = _random_form(rng, rng.randint(1, 4))
        assert IntegralQuadraticForm.from_gram(q.gram()) == q


def test_permuted_is_trivial_equivalence():
    q = Q_ALGO
    pi = (3, 1, 4, 2)
    qp = q.permuted(pi)
    rng = random.Random(23)
    for _ in range(10):
        x = tuple(rng.randint(-3, 3) for _ in range(4))
        y = [0] * 4
        for k in range(4):
            y[pi[k] - 1] = x[k]
        assert qp.evaluate(x) == q.evaluate(y)


def test_off_is_read_only():
    q = IntegralQuadraticForm([1, 1], {(1, 2): -1})
    h = hash(q)
    analyze(q)
    with pytest.raises(TypeError):
        q.off[(1, 2)] = -3
    with pytest.raises(TypeError):
        del q.off[(1, 2)]
    assert q.off == {(1, 2): -1} and hash(q) == h
    assert analyze(q).rank == 2


def test_bigraph_edges_are_read_only():
    d = bigraph_of(Q_ALGO)
    h = hash(d)
    with pytest.raises(TypeError):
        d.edges[(1, 3)] = (1, 1)
    with pytest.raises(TypeError):
        del d.edges[(1, 2)]
    assert hash(d) == h and d == bigraph_of(Q_ALGO)
    assert form_of(d) == Q_ALGO


def _round_trips(obj):
    import copy
    import pickle

    return [pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj), copy.copy(obj)]


def test_forms_and_bigraphs_pickle_and_copy():
    rng = random.Random(7105)
    for _ in range(200):
        q = _random_form(rng, rng.randint(1, 6))
        for obj in (q, bigraph_of(q)):
            for back in _round_trips(obj):
                assert type(back) is type(obj) and back == obj and hash(back) == hash(obj)
        for back in _round_trips(q):
            assert list(back.off.items()) == list(q.off.items())
            assert analyze(back) == analyze(q)
            with pytest.raises(TypeError):
                back.off[(1, 2)] = 5


def _unimodular(rng, n):
    """A product of random elementary column operations on the identity."""
    cols = [[int(i == j) for i in range(n)] for j in range(n)]
    for _ in range(2 * n):
        if n > 1:
            i, j = rng.sample(range(n), 2)
            k = rng.randint(-2, 2)
            cols[j] = [a + k * b for a, b in zip(cols[j], cols[i])]
    return IntMatrix(zip(*cols))


def test_compose_matches_the_dense_product():
    # the sparse G T columns against from_gram(T^tr G T), the order of `off` included
    rng = random.Random(7109)
    singular = 0
    for _ in range(300):
        n = rng.randint(1, 7)
        q = _random_form(rng, n)
        if rng.random() < 0.5:
            T = _unimodular(rng, n)
        else:
            rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            if n > 1 and rng.random() < 0.5:
                rows = [row[:-1] + [row[0] - row[1]] for row in rows]  # a dependent column
            T = IntMatrix(rows)
        singular += T.det() == 0
        want = IntegralQuadraticForm.from_gram(T.transpose() @ q.gram() @ T)
        got = q.compose(T)
        assert got == want and list(got.off.items()) == list(want.off.items())
    assert singular > 50
    with pytest.raises(InvalidInput):
        Q_A3.compose(IntMatrix.identity(4))


def _congruence(G, S):
    """S^tr G S on plain lists of ints."""
    n = len(G)
    GS = [[sum(G[a][k] * S[k][b] for k in range(n)) for b in range(n)] for a in range(n)]
    return [[sum(S[k][a] * GS[k][b] for k in range(n)) for b in range(n)] for a in range(n)]


def test_compose_matches_a_plain_list_product():
    """q.compose(T) on dense and sparse T, with zero columns and negative entries,
    against T^tr G T computed on lists: the coefficients, in ascending order,
    and the hash of the checked constructor's form."""
    rng = random.Random(7121)
    kinds = {"dense": 0, "sparse": 0, "zero column": 0}
    for _ in range(600):
        n = rng.randint(1, 12)
        q = _random_form(rng, n)
        kind = rng.choice(tuple(kinds))
        density = 1.0 if kind == "dense" else 0.2
        T = [[rng.randint(-4, 4) if rng.random() < density else 0 for _ in range(n)] for _ in range(n)]
        if kind == "zero column":
            b = rng.randrange(n)
            for row in T:
                row[b] = 0
        kinds[kind] += 1
        G = [[0] * n for _ in range(n)]
        for i, d in enumerate(q.diag):
            G[i][i] = 2 * d
        for (i, j), v in q.off.items():
            G[i - 1][j - 1] = G[j - 1][i - 1] = v
        R = _congruence(G, T)
        want = IntegralQuadraticForm(
            [R[a][a] // 2 for a in range(n)],
            {(a + 1, b + 1): R[a][b] for a in range(n) for b in range(a + 1, n) if R[a][b]},
        )
        got = q.compose(IntMatrix(T))
        assert got == want and hash(got) == hash(want)
        assert list(got.off.items()) == sorted(want.off.items())
        assert type(got.diag) is tuple and all(type(v) is int and v for v in got.off.values())
    assert min(kinds.values()) > 150, kinds
    for n in (1, 3, 12):
        q = _random_form(rng, n)
        for shape in ((n + 1, n + 1), (n, n + 1), (n + 1, n)):
            T = IntMatrix([[1] * shape[1] for _ in range(shape[0])])
            with pytest.raises(InvalidInput, match="composition matrix has wrong size"):
                q.compose(T)


def test_hash_is_the_sorted_key_for_every_producer():
    # the hash is cached on first use; it must equal the key the uncached hash used,
    # on the constructor's forms and on every form built without its checks, and
    # every producer stores its coefficient map, and a bigraph its edges, ascending
    rng = random.Random(7111)
    for _ in range(100):
        n = rng.randint(2, 6)
        q = IntegralQuadraticForm([1] * n, {(i, j): rng.randint(-2, 2) for i in range(1, n + 1)
                                            for j in range(i + 1, n + 1) if rng.random() < 0.5})
        i, j = rng.sample(range(1, n + 1), 2)
        pi = list(range(1, n + 1))
        rng.shuffle(pi)
        C = canonical_c_graph(rng.randint(2, 4), rng.randint(0, 2), rng.randint(0, 2)).incidence_form()
        sigma = list(range(1, C.n + 1))
        rng.shuffle(sigma)
        Cp = C.permuted(sigma)  # the same type-C form, its variables shuffled
        made = [
            q,
            IntegralQuadraticForm(q.diag, dict(reversed(list(q.off.items())))),
            IntegralQuadraticForm.from_gram(q.gram()),
            IntegralQuadraticForm.from_json_dict({**q.to_json_dict(), "off": q.to_json_dict()["off"][::-1]}),
            q.direct_sum(Cp),
            gabrielov_update(q, i, j),
            _sign_update(q, i),
            q.restrict(rng.sample(range(1, n + 1), rng.randint(1, n))),
            q.permuted(pi),
            q.compose(_unimodular(rng, n)),
            C,
            pivot_saturate(Cp, rng.randint(1, C.n))[0],
            star_realization(Cp)[1],
            dynkin_plus_zero(Cp)[1],
        ]
        made += [back for p in made for back in _round_trips(p)]
        for p in made:
            want = hash((p.diag, tuple(sorted(p.off.items()))))
            assert hash(p) == want and hash(p) == want
            assert list(p.off) == sorted(p.off)
        edges = dict(bigraph_of(q).edges)
        graphs = [bigraph_of(q), bigraph_of(Cp), Bigraph(n, dict(reversed(list(edges.items()))))]
        for delta in graphs + [back for g in graphs for back in _round_trips(g)]:
            assert list(delta.edges) == sorted(delta.edges)


_B_REWRITE = BidirectedGraph(2, [((1, 1), (2, -1)), ((1, 1), (1, 1))])


@pytest.mark.parametrize(
    "build",
    [
        lambda: IntegralQuadraticForm([1.9, 1], {(1, 2): -1}),
        lambda: IntegralQuadraticForm(["1", 1], {(1, 2): -1}),
        lambda: IntegralQuadraticForm([1, 1], {(1, 2): -1.5}),
        lambda: IntegralQuadraticForm([1, 1], {(1.0, 2): -1}),
        lambda: Q_A3.evaluate([1.9, 0.2, 0]),
        lambda: Q_A3.polarize([1, 0, 0], [0, 0.5, 0]),
        lambda: Q_A3.permuted([1.0, 2, 3]),
        lambda: Q_A3.restrict([1, 2.5]),
        lambda: Bigraph(2.0, {(1, 2): (1, -1)}),
        lambda: Bigraph(2, {(1, 2): (1.5, -1)}),
        lambda: Bigraph(2, {(1, 2.0): (1, -1)}),
        lambda: Bigraph(2, {(1, 2): (1, 1.0)}),
        lambda: solve(Q_C4, 2.5),
        lambda: solve(IntegralQuadraticForm([1, 1, 1]), 3, bound=1.5),
        lambda: brute_force_roots(Q_A3, 1, 1.5),
        lambda: four_squares("7"),
        lambda: theorem_c_roots(canonical_c_graph(3, 0, 0), 1, 2.5),
        lambda: companion(canonical_c_graph(3, 0, 0), ["1", 0, 0]),
        # index and size arguments: a TypeError from deep inside, or a silent answer
        lambda: Q_A3.coefficient(1.5, 2),  # returned 0
        lambda: canonical_a(2, 0).arrow_ends(1.5),
        lambda: canonical_a(2, 0).underlying(1.5),
        lambda: canonical_a(2, 0).incident_arrows(1.5),  # returned []
        lambda: pivot_saturate(Q_C4, 1.5),
        lambda: gabrielov(Q_A3, 1, 2.5),
        lambda: gabrielov_update(Q_A3, 1, 2.5),  # returned Q_A3
        lambda: GTransform.identity(3).then_gabrielov(Q_A3, 1.0, 2),
        lambda: GTransform.identity(3).then_sign(Q_A3, 1.5),
        lambda: GTransform.identity(1.5),
        lambda: IntMatrix.identity(1.5),
        lambda: IntMatrix.zero(2, 1.5),
        lambda: OrthogonalMatrix.identity(1.5),
        lambda: OrthogonalMatrix.identity(2).apply_endpoint(1.5, 1),
        lambda: sign_flip(canonical_a(2, 0), 1.5),
        lambda: graph_gabrielov(canonical_a(2, 0), 1, 2.5),
        lambda: endpoint_rewrite(_B_REWRITE, 1, 2, 1.0),  # returned a graph with the end (2, 1.0)
        lambda: endpoint_rewrite(_B_REWRITE, 1.5, 2, 1),
        lambda: Walk(canonical_a(2, 0), 1, [(1, False), (1, False)]).power(1.5),
    ],
)
def test_forms_and_vectors_refuse_non_integers(build):
    # int() would truncate 1.9 to 1 and read "1" as 1; the JSON readers refuse both too
    with pytest.raises(InvalidInput, match="expected an integer, got"):
        build()


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: setattr(Q_A3, "n", 4), AttributeError, "IntegralQuadraticForm is immutable"),
        (lambda: setattr(bigraph_of(Q_A3), "n", 4), AttributeError, "Bigraph is immutable"),
        (lambda: IntegralQuadraticForm([]), InvalidInput, "a form needs at least one variable"),
        (lambda: zero_form(0), InvalidInput, "zero form needs at least one variable"),
        (lambda: IntegralQuadraticForm.from_gram(IntMatrix([[2, 1], [0, 2]])), InvalidInput,
         "Gram matrix must be symmetric"),
        (lambda: IntegralQuadraticForm.from_gram(IntMatrix([[1]])), InvalidInput,
         "Gram matrix must have even diagonal"),
        (lambda: IntegralQuadraticForm.from_gram(IntMatrix([])), InvalidInput,
         "a form needs at least one variable"),
        (lambda: Q_A3.permuted([1, 1, 2]), InvalidInput, "not a permutation of 1..n"),
        (lambda: IntegralQuadraticForm.from_json_dict({"n": 2, "diag": [1, 1], "off": [[2, 1, -1]]}),
         InvalidInput, "off entries must have i < j"),
        (lambda: Bigraph(0, {}), InvalidInput, "bigraph needs at least one vertex"),
        (lambda: Bigraph(2, {(1, 3): (1, -1)}), InvalidInput, "edge endpoint out of range"),
        (lambda: Bigraph(2, {(1, 2): (-1, -1)}), InvalidInput, "edge multiplicity must be >= 0 with sign +-1"),
    ],
)
def test_forms_and_bigraphs_refuse_malformed_input(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as refused:
        build()
    assert type(refused.value) is error


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: IntMatrix.identity(-1), "size must be >= 0"),  # returned an empty matrix
        (lambda: IntMatrix.zero(-1, 2), "size must be >= 0"),
        (lambda: GTransform.identity(-2), "size must be >= 0"),
        (lambda: OrthogonalMatrix.identity(-1), "size must be >= 0"),
        (lambda: OrthogonalMatrix.identity(2).apply_endpoint(0, 1), "out of range"),  # read vertex 2
    ],
)
def test_negative_sizes_and_indices_are_refused(build, message):
    with pytest.raises(InvalidInput, match=message):
        build()


@pytest.mark.parametrize(
    "build",
    [
        lambda: DynkinType("A", 2.5),
        lambda: zero_form(2.5),
        lambda: dynkin_unit_form("A", 2.5),
        lambda: canonical_a(2.5, 0),
        lambda: canonical_c_graph(3, 0.5, 0),
        lambda: canonical_d("4", 0),
        lambda: loops_graph(1.5, 0, 0),
    ],
)
def test_named_constructors_refuse_non_integer_sizes(build):
    # a float size used to build an invalid type, or fail with a TypeError in range()
    with pytest.raises(InvalidInput, match="expected an integer, got"):
        build()


class _Index:
    """An integer type that is not int: it has `__index__` only."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def test_forms_and_vectors_take_any_integer_type():
    q = IntegralQuadraticForm([_Index(1), 1, 1], {(1, _Index(2)): _Index(-1), (2, 3): -1})
    assert q == Q_A3 and all(type(c) is int for c in (*q.diag, *q.off.values()))
    assert all(type(i) is int for pair in q.off for i in pair)
    assert Q_A3.evaluate([_Index(1), True, 0]) == 1
    assert Q_A3.permuted([_Index(3), 2, 1]) == Q_A3
    delta = Bigraph(2, {(1, 2): (_Index(1), True), (1, 1): (2, _Index(-1))})
    assert dict(delta.edges) == {(1, 2): (1, 1), (1, 1): (2, -1)}
    assert all(type(x) is int for edge in delta.edges.values() for x in edge)
    assert gabrielov_update(Q_A3, _Index(1), _Index(2)) == gabrielov_update(Q_A3, 1, 2)
