import random
import re
from itertools import product

import pytest

from bench import gen
from bidiforms import qform, walks
from bidiforms.bidigraph import BidirectedGraph, balance, canonical_a, canonical_c, loops_graph
from bidiforms.errors import InvalidInput, NotPositive
from bidiforms.qform import IntegralQuadraticForm
from bidiforms.walks import (
    RootSet,
    Walk,
    _WalkStates,
    brute_force_roots,
    roots_positive,
    theorem_c_roots,
    trivial_walk,
    walk_root_cover,
)
from tests.test_bidigraph import B_3V, B_4V, Q_A3, random_connected

# unbalanced 3-vertex graph of the worked examples: arrows
# 1: u1 -> u2, 2: u2 -> u3, 3: two-head u1 u2


def test_inc_worked_example_walk():
    w = Walk.parse_text(B_3V, "3 2 2 3 1 1 2")
    assert w.inc() == (-1, -1, -1)
    w4 = Walk.parse_text(B_4V, "4 3 3 2 2 1 1")
    assert w4.inc() == (-1, -1, -1)


def test_inc_trivial_walk_is_zero():
    assert trivial_walk(B_3V, 2).inc() == (0, 0, 0)


def test_inc_one_vertex_basis():
    B = loops_graph(0, 1, 3)  # i1 two-tail, i2..i4 two-head
    for k in range(2, 5):
        w = Walk(B, 1, [(1, False), (k, False)])
        expected = tuple(1 if t in (0, k - 1) else 0 for t in range(4))
        assert w.inc() == expected
        assert B.incidence_form().evaluate(w.inc()) == 0


def test_one_vertex_radical_basis_golden():
    # the vectors e1+ek form a basis of the radical of the one-vertex graph form
    from bidiforms.exact_linalg import IntMatrix, integer_kernel
    from tests.test_exact_linalg import hermite_normal_form

    for n in (2, 3, 5):
        B = loops_graph(0, 1, n - 1)
        q = B.incidence_form()
        ys = [Walk(B, 1, [(1, False), (k, False)]).inc() for k in range(2, n + 1)]
        kernel = integer_kernel(q.gram())
        assert len(kernel) == n - 1 == len(ys)
        # equal lattices iff equal Hermite normal forms
        assert hermite_normal_form(IntMatrix(ys)) == hermite_normal_form(
            IntMatrix(kernel)
        )


def test_inc_intertwining_identity():
    rng = random.Random(21)
    for _ in range(40):
        B = random_connected(rng)
        w = random_walk(rng, B)
        x = w.inc()
        It = B.incidence_matrix().transpose()
        lhs = It.matvec(x)
        expected = [0] * B.m
        expected[w.start - 1] += 1
        expected[w.end - 1] -= w.sigma()
        assert list(lhs) == expected


def random_walk(rng, B, max_len=6, start=None):
    w = trivial_walk(B, start or rng.randint(1, B.m))
    for _ in range(rng.randint(0, max_len)):
        v = w.end
        options = []
        for a in range(1, B.n + 1):
            u, u2 = B.underlying(a)
            if v in (u, u2):
                if B.is_directed_loop(a):
                    options.append((a, False))
                    options.append((a, True))
                else:
                    options.append((a, False))
        if not options:
            break
        a, inv = rng.choice(options)
        w = w.compose(Walk(B, v, [(a, inv)]))
    return w


def test_compose_inc_law():
    rng = random.Random(23)
    for _ in range(40):
        B = random_connected(rng)
        w1 = random_walk(rng, B)
        w2 = random_walk(rng, B, start=w1.end)
        w = w1.compose(w2)
        lhs = w.inc()
        rhs = tuple(
            a + w1.sigma() * b for a, b in zip(w1.inc(), w2.inc())
        )
        assert lhs == rhs


def test_inverse_inc_law():
    rng = random.Random(25)
    for _ in range(40):
        B = random_connected(rng)
        w = random_walk(rng, B)
        assert w.inverse().inc() == tuple(-w.sigma() * c for c in w.inc())
    assert trivial_walk(B_3V, 1).inverse().inc() == (0, 0, 0)


def test_conjugation_law():
    rng = random.Random(27)
    hits = 0
    while hits < 15:
        B = random_connected(rng)
        w = random_walk(rng, B)
        wp = random_walk(rng, B)
        if not (wp.is_closed() and wp.sigma() == 1 and w.end == wp.start):
            continue
        conj = w.compose(wp).compose(w.inverse())
        assert conj.inc() == tuple(w.sigma() * c for c in wp.inc())
        hits += 1


def test_power_laws():
    # negative closed walk of the 3-vertex example
    w = Walk.parse_text(B_3V, "3 2 2 1 1 3 2 2 3")
    assert w.sigma() == -1
    assert w.inc() == (-1, -2, -1)
    assert w.power(2).inc() == (0, 0, 0)
    assert w.power(3).inc() == w.inc()
    # positive closed walks scale linearly
    rng = random.Random(29)
    hits = 0
    while hits < 10:
        B = random_connected(rng)
        wp = random_walk(rng, B)
        if not (wp.is_closed() and wp.sigma() == 1):
            continue
        for k in (2, 3):
            assert wp.power(k).inc() == tuple(k * c for c in wp.inc())
        hits += 1


def test_power_is_one_walk_equal_to_repeated_compose(monkeypatch):
    w = Walk.parse_text(B_3V, "3 2 2 1 1 3 2 2 3")
    for base, sign in ((w, 1), (w.inverse(), -1)):
        composed = Walk(B_3V, w.start)
        for k in range(6):
            assert w.power(sign * k) == composed and w.power(sign * k).vertices == composed.vertices
            composed = composed.compose(base)
    # the steps are inferred once, not once per factor
    calls = []
    infer = walks._infer_vertices
    monkeypatch.setattr(walks, "_infer_vertices", lambda *args: calls.append(args) or infer(*args))
    assert w.power(10_000).length == 10_000 * w.length and len(calls) == 1


def test_reduce_preserves_inc():
    rng = random.Random(31)
    for _ in range(60):
        B = random_connected(rng)
        w = random_walk(rng, B)
        back = w.compose(w.inverse())
        assert back.reduce().length == 0
        assert back.reduce().inc() == back.inc() == (0,) * B.n
        ww = w.compose(w.inverse()).compose(w)
        assert ww.reduce().inc() == ww.inc() == w.inc()


def test_walk_text_round_trip():
    w = Walk.parse_text(B_3V, "3 2 2 3 1 1 2")
    assert Walk.parse_text(B_3V, w.format_text()) == w
    B = loops_graph(1, 0, 0)
    w = Walk(B, 1, [(1, True), (1, False)])
    assert "^-1" in w.format_text()
    assert Walk.parse_text(B, w.format_text()) == w


def test_walk_validation_errors():
    with pytest.raises(InvalidInput):
        Walk(B_3V, 1, [(2, False)])  # arrow 2 is not incident to vertex 1
    with pytest.raises(InvalidInput):
        Walk(B_3V, 1, [(1, True)])  # formal inverse of a non-directed-loop
    # the steps fix the vertices, and a vertex token that disagrees with its arrow is refused
    assert Walk.parse_text(B_3V, "1 1 2").vertices == (1, 2)
    with pytest.raises(InvalidInput, match="^arrow 1 does not join 1 and 3$"):
        Walk.parse_text(B_3V, "1 1 3")
    with pytest.raises(InvalidInput, match="^arrow 3 does not join 2 and 2$"):
        Walk.parse_text(B_3V, "1 1 2 3 2")


def test_theorem_c_roots_a3():
    expected_ones = set()
    for v in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 1, 1)]:
        expected_ones.add(v)
        expected_ones.add(tuple(-c for c in v))
    for B in (B_3V, B_4V):
        rs = theorem_c_roots(B, 1, 8)
        assert rs.vectors == frozenset(expected_ones)
    assert brute_force_roots(Q_A3, 1, 3).vectors == frozenset(expected_ones)


def test_theorem_c_roots_refuses_a_negative_length_cap():
    for d in (0, 1, 2):
        with pytest.raises(InvalidInput):
            theorem_c_roots(canonical_a(3, 0), d, -3)
    assert theorem_c_roots(canonical_a(3, 0), 0, 0).vectors == frozenset({(0, 0, 0)})


def test_a_negative_bound_is_refused_before_any_walk_state(monkeypatch):
    B = canonical_c(3, 0, 0)

    def no_states(*args):
        raise AssertionError("walk states were built")

    monkeypatch.setattr(walks, "_WalkStates", no_states)
    for bound in (-1, -3):
        with pytest.raises(InvalidInput, match="bound must be >= 0"):
            walk_root_cover(B, bound)


def test_theorem_c_two_roots():
    assert theorem_c_roots(B_4V, 2, 10).vectors == frozenset()
    expected = set()
    for v in [(1, 0, 1), (1, 0, -1), (1, 2, 1)]:
        expected.add(v)
        expected.add(tuple(-c for c in v))
    assert theorem_c_roots(B_3V, 2, 10).vectors == frozenset(expected)
    assert brute_force_roots(Q_A3, 2, 3).vectors == frozenset(expected)


def test_brute_force_trivial_cases():
    assert brute_force_roots(Q_A3, -1, 2).vectors == frozenset()
    assert (0, 0, 0) in brute_force_roots(Q_A3, 0, 1).vectors


def test_oracle_sandwich_random():
    rng = random.Random(33)
    for _ in range(40):
        m = rng.randint(1, 5)
        B = random_connected(rng, m=m, n=rng.randint(max(1, m - 1), 5))
        q = B.incidence_form()
        sets, complete = walk_root_cover(B, bound=2)
        assert complete
        for d in (0, 1, 2):
            for x in sets[d]:
                assert q.evaluate(x) == d
        beta = 1 if not sets[2] else 0
        from bidiforms.bidigraph import balance

        assert balance(B).beta == beta


def test_roots_positive_tree_counts():
    for n in range(1, 7):
        B = canonical_a(n, 0)
        rep = roots_positive(B)
        assert len(rep.vectors) == n * n + n + 1
        assert rep.value_counts[1] == n * n + n


def test_roots_positive_single_arrow():
    rep = roots_positive(canonical_a(1, 0))
    assert rep.vectors == frozenset({(0,), (1,), (-1,)})


def test_roots_positive_one_tree_counts():
    rng = random.Random(35)
    B = B_3V  # unbalanced 1-tree with n = 3
    rep = roots_positive(B)
    assert len(rep.vectors) == 2 * 9 + 1
    assert rep.value_counts[2] == 6
    q = B.incidence_form()
    twos = {x for x in rep.vectors if q.evaluate(x) == 2}
    assert twos == brute_force_roots(q, 2, 3).vectors
    ones = {x for x in rep.vectors if q.evaluate(x) == 1}
    assert ones == brute_force_roots(q, 1, 3).vectors


def test_roots_positive_rejects_non_positive():
    with pytest.raises(NotPositive):
        roots_positive(canonical_a(2, 1))  # corank 1
    with pytest.raises(NotPositive):
        roots_positive(loops_graph(1, 1, 0))  # directed loop


# -- the fast paths against plain references ---------------------------------


def _naive_box(q, bound):
    """{value: vectors} over the box |x_i| <= bound, one `evaluate` per point."""
    by_value = {}
    for x in product(range(-bound, bound + 1), repeat=q.n):
        by_value.setdefault(q.evaluate(x), set()).add(x)
    return by_value


def test_brute_force_roots_matches_naive_box():
    rng = random.Random(41)
    for n in range(1, 6):
        for bound in range(0, 4 if n < 5 else 3):
            indefinite = IntegralQuadraticForm(
                [rng.choice((0, -1, 1, 2)) for _ in range(n)],
                {(i, j): rng.randint(-3, 3) for i in range(1, n + 1) for j in range(i + 1, n + 1)},
            )
            zero_diag = IntegralQuadraticForm(
                [0] * n, {(i, i + 1): rng.choice((-2, -1, 1, 2)) for i in range(1, n)}
            )
            for q in (indefinite, zero_diag, random_connected(rng, n=n).incidence_form()):
                by_value = _naive_box(q, bound)
                for d in (-1, 0, 1, 2, 5):
                    assert brute_force_roots(q, d, bound).vectors == by_value.get(d, set())


def test_brute_force_roots_deep_form_without_recursion():
    q = IntegralQuadraticForm([1] * 1000, {(i, i + 1): -1 for i in range(1, 1000)})
    assert brute_force_roots(q, 0, 0).vectors == {(0,) * 1000}
    assert brute_force_roots(q, 1, 0).vectors == frozenset()
    with pytest.raises(InvalidInput):
        brute_force_roots(q, 0, -1)


def _reference_states(B, start, length_cap, prune):
    """Walk states (vertex, sign, inc) from `start` as tuples, by a plain BFS."""
    steps = {v: [] for v in range(1, B.m + 1)}  # v -> (arrow, next vertex, d(v, arrow))
    for a in range(1, B.n + 1):
        (u, e), (u2, e2) = B.arrow_ends(a)
        if B.is_directed_loop(a):
            steps[u] += [(a, u, 1), (a, u, -1)]
        elif u == u2:
            steps[u].append((a, u, e))
        else:
            steps[u].append((a, u2, e))
            steps[u2].append((a, u, e2))
    init = (start, 1, (0,) * B.n)
    levels = [[init]]
    seen = {init}
    for _ in range(length_cap):
        nxt = []
        for v, sign, x in levels[-1]:
            for a, w, d in steps[v]:
                y = list(x)
                y[a - 1] += sign * d
                state = (w, sign * B.sigma(a), tuple(y))
                if abs(y[a - 1]) <= prune and state not in seen:
                    seen.add(state)
                    nxt.append(state)
        if not nxt:
            break
        levels.append(nxt)
    return levels


def _reference_class(start, state):
    v, sign, _ = state
    return 1 if v != start else (0 if sign == 1 else 2)


def _sign_closed(vectors):
    return frozenset(vectors) | {tuple(-c for c in x) for x in vectors}


def _reference_theorem_c(B, d, length_cap):
    vectors = set()
    for start in range(1, B.m + 1):
        for level in _reference_states(B, start, length_cap, length_cap):
            vectors |= {state[2] for state in level if _reference_class(start, state) == d}
    vectors = _sign_closed(vectors)
    return vectors - {(0,) * B.n} if d else vectors


def _reference_cover(B, bound):
    q = B.incidence_form()
    want = {d: brute_force_roots(q, d, bound).vectors for d in (0, 1)}
    first_check = B.n + B.m
    hard = max(4 * B.n * bound, first_check)
    runs = {s: _reference_states(B, s, hard, bound + 1) for s in range(1, B.m + 1)}
    sets = {0: {(0,) * B.n}, 1: set(), 2: set()}
    for level in range(1, hard + 1):
        alive = False
        for start, levels in runs.items():
            for state in levels[level] if level < len(levels) else ():
                alive = True
                d = _reference_class(start, state)
                if d == 0 or any(state[2]):
                    sets[d] |= _sign_closed([state[2]])
        covered = want[0] <= sets[0] and want[1] <= sets[1]
        if not alive or level >= first_check and covered:
            break
    return {d: frozenset(s) for d, s in sets.items()}, want[0] <= sets[0] and want[1] <= sets[1]


def _unpacked(states, s):
    low, key = divmod(s, states.m2)[::-1]
    x = []
    for _ in range(states.n):
        key, digit = divmod(key, states.base)
        x.append(digit - states.prune)
    return (low // 2 + 1, -1 if low % 2 else 1, tuple(x))


def test_walk_state_levels_match_reference_bfs():
    # two levels suffice to tell new states from seen ones: each level is exactly the reference's
    rng = random.Random(45)
    for _ in range(20):
        m = rng.randint(1, 4)
        B = random_connected(rng, m=m, n=rng.randint(max(1, m - 1), 4))
        cap, prune = rng.randint(0, 6), rng.randint(0, 3)
        states = _WalkStates(B, prune)
        for start in range(1, B.m + 1):
            got = [{_unpacked(states, s) for s in level} for level in states.levels(start, cap)]
            assert got == [set(level) for level in _reference_states(B, start, cap, prune)]


def _with_two_regimes(rng):
    """Seeded connected graphs with m <= 5, one-vertex graphs with 3-4 directed loops among them."""
    graphs = [loops_graph(3, 0, 0), loops_graph(4, 0, 0), loops_graph(3, 1, 0),
              loops_graph(4, 0, 1)]
    for m in range(1, 6):
        for _ in range(4):
            graphs.append(random_connected(rng, m=m, n=rng.randint(max(1, m - 1), 5)))
    return graphs


def test_walk_state_levels_match_reference_bfs_in_both_regimes():
    # below j = prune the steps are taken untested, from j = prune on each is tested
    rng = random.Random(4513)
    for B in _with_two_regimes(rng):
        cap = rng.randint(2, 6)
        for prune in (cap + rng.randint(1, 2), cap, rng.randint(1, cap - 1), 0):
            states = _WalkStates(B, prune)
            for start in range(1, B.m + 1):
                got = [{_unpacked(states, s) for s in level} for level in states.levels(start, cap)]
                want = [set(level) for level in _reference_states(B, start, cap, prune)]
                assert got == want, (B, prune)


def test_walk_root_cover_matches_the_reference_at_the_workload_bound():
    rng = random.Random(4515)
    graphs = [loops_graph(2, 0, 1), loops_graph(3, 0, 0), B_3V]
    while len(graphs) < 14:
        m = rng.randint(1, 3)
        graphs.append(random_connected(rng, m=m, n=rng.randint(max(1, m - 1), 3)))
    for B in graphs:
        assert walk_root_cover(B, 3) == _reference_cover(B, 3), B


def test_theorem_c_roots_match_the_reference_on_the_heavy_shape():
    B = loops_graph(4, 1, 0)  # one vertex, 4 directed loops and 1 bidirected loop
    for d in (0, 1, 2):
        assert theorem_c_roots(B, d, 6).vectors == _reference_theorem_c(B, d, 6)


def test_walk_roots_match_tuple_state_reference():
    rng = random.Random(43)
    seen_kinds = set()
    for _ in range(30):
        m = rng.randint(1, 4)
        B = random_connected(rng, m=m, n=rng.randint(max(1, m - 1), 4))
        for a in range(1, B.n + 1):
            if B.is_directed_loop(a):
                seen_kinds.add("directed loop")
            elif B.is_loop(a):
                seen_kinds.add("bidirected loop")
            elif sorted(B.underlying(a)) in [sorted(B.underlying(b)) for b in range(1, a)]:
                seen_kinds.add("parallel")
        for d in (0, 1, 2):
            cap = rng.randint(0, 6)
            assert theorem_c_roots(B, d, cap).vectors == _reference_theorem_c(B, d, cap)
        bound = rng.randint(0, 2)
        assert walk_root_cover(B, bound) == _reference_cover(B, bound)
    assert seen_kinds == {"directed loop", "bidirected loop", "parallel"}


def _all_starts_theorem_c(B, d, length_cap):
    """`theorem_c_roots` with a BFS from every start vertex, the last one included."""
    states = _WalkStates(B, length_cap)
    m2, keys = states.m2, set()
    for start in range(1, B.m + 1):
        home = 2 * (start - 1) + (d == 2)
        for level in states.levels(start, length_cap):
            if d == 1:
                keys.update(s // m2 for s in level if s % m2 >> 1 != start - 1)
            else:
                keys.update(s // m2 for s in level if s % m2 == home)
    if d != 0:
        keys.discard(states.zero)
    return states.sign_closed_vectors(keys)


def test_theorem_c_roots_match_the_all_starts_search():
    # open walks from the last vertex are left out: they are the others' reversed
    rng = random.Random(4701)
    for m in range(1, 6):
        for _ in range(8):
            B = random_connected(rng, m=m, n=rng.randint(max(1, m - 1), m + 1))
            for d in (0, 1, 2):
                cap = rng.randint(0, 7)
                want = _all_starts_theorem_c(B, d, cap)
                assert theorem_c_roots(B, d, cap).vectors == want, (B, d, cap)
            if m == 1:
                assert theorem_c_roots(B, 1, 7).vectors == frozenset()


def _reference_positive_roots(B):
    """Roots of a tree or unbalanced 1-tree from composed, reduced `Walk`s."""
    order, prev = [1], {1: None}  # BFS spanning tree, rooted at 1
    for v in order:
        for a in range(1, B.n + 1):
            u, u2 = B.underlying(a)
            if u != u2 and v in (u, u2):
                w = u2 if v == u else u
                if w not in prev:
                    prev[w] = (v, a)
                    order.append(w)
    to_root = {}
    for v in order:
        to_root[v] = Walk(B, v)
        if prev[v] is not None:
            to_root[v] = Walk(B, v, [(prev[v][1], False)]).compose(to_root[prev[v][0]])
    pairs = [(s, t) for s in range(1, B.m + 1) for t in range(s, B.m + 1)]
    walks = [to_root[s].compose(to_root[t].inverse()) for s, t in pairs if s < t]
    if B.m == B.n:  # the arrow left out of the tree closes the cycle
        (extra,) = set(range(1, B.n + 1)) - {p[1] for p in prev.values() if p}
        u, u2 = B.underlying(extra)
        cycle = to_root[u].inverse().compose(Walk(B, u, [(extra, False)])).compose(to_root[u2])
        walks += [to_root[s].compose(cycle).compose(to_root[t].inverse()) for s, t in pairs]
    return _sign_closed([(0,) * B.n] + [w.reduce().inc() for w in walks])


def random_tree_like(rng, m, cycle):
    """A random tree on m vertices (a path for a long cycle) and one arrow closing a cycle."""
    ends = []
    for v in range(2, m + 1):
        u = v - 1 if cycle == "long" else rng.randint(1, v - 1)
        ends.append(((u, rng.choice((1, -1))), (v, rng.choice((1, -1)))))
    if cycle == "loop":
        u = rng.randint(1, m)
        ends.append(((u, 1), (u, 1)))
    elif cycle == "parallel":
        (u, _), (v, _) = rng.choice(ends)
        ends.append(((u, rng.choice((1, -1))), (v, rng.choice((1, -1)))))
    elif cycle == "long":
        ends.append(((1, rng.choice((1, -1))), (m, rng.choice((1, -1)))))
    perm = list(range(1, m + 1))
    rng.shuffle(perm)
    ends = [((perm[u - 1], e), (perm[v - 1], f)) for (u, e), (v, f) in ends]
    rng.shuffle(ends)
    return BidirectedGraph(m, ends)


def test_roots_positive_matches_walk_composition():
    rng = random.Random(47)
    kinds = {"tree": 0, "loop": 0, "parallel": 0, "long": 0}
    while min(kinds.values()) < 6:
        kind = rng.choice(list(kinds))
        B = random_tree_like(rng, rng.randint(3, 7), None if kind == "tree" else kind)
        try:
            rep = roots_positive(B)
        except NotPositive:  # a balanced cycle
            assert kind != "tree"
            continue
        kinds[kind] += 1
        _check_positive_roots(B, rep)
    # the bench's generators up to n = 30: trees and unbalanced 1-trees
    rng = random.Random(4705)
    for n in (2, 3, 5, 8, 13, 21, 30):
        for B in (BidirectedGraph(*gen.tree_graph(rng, n)), BidirectedGraph(*gen.unbalanced_one_tree(rng, n))):
            _check_positive_roots(B, roots_positive(B))


def _check_positive_roots(B, rep):
    """`rep` is the set of composed walks, and its counts are those of q, keys in value order."""
    assert rep.vectors == _reference_positive_roots(B)
    q = B.incidence_form()
    counts = {}
    for x in rep.vectors:
        counts[q.evaluate(x)] = counts.get(q.evaluate(x), 0) + 1
    assert list(rep.value_counts.items()) == sorted(counts.items())


def test_roots_positive_checks_the_vectors_it_builds(monkeypatch):
    """The value check reads the images of the tree-walk incs it is given, not
    the theorem's I^tr a_s = e_s - sigma_s e_root: one inc with e_k added, for
    an arrow k from its vertex to another, trips it on every tree and 1-tree.
    (With k a bidirected loop the sum can be another walk's inc, which gives
    the same root set and rightly passes.)"""
    tree_incs = walks._tree_incs
    rng = random.Random(4706)  # trees and unbalanced 1-trees on 2 to 7 vertices
    graphs = [BidirectedGraph(*gen.tree_graph(rng, n)) for n in range(1, 7)]
    graphs += [BidirectedGraph(*gen.unbalanced_one_tree(rng, rng.randint(2, 7))) for _ in range(12)]
    assert {B.m - B.n for B in graphs} == {0, 1}
    assert any(B.bidirected_loops() for B in graphs)
    tripped = 0
    for B in graphs:
        roots_positive(B)
        for s in range(1, B.m + 1):
            for k in B.incident_arrows(s):
                if B.is_loop(k):
                    continue

                def perturbed(graph, root, s=s, k=k):
                    incs = tree_incs(graph, root)
                    a, sig = incs[s]
                    incs[s] = (a[:k - 1] + (a[k - 1] + 1,) + a[k:], sig)
                    return incs

                monkeypatch.setattr(walks, "_tree_incs", perturbed)
                with pytest.raises(AssertionError):
                    roots_positive(B)
                tripped += 1
        monkeypatch.setattr(walks, "_tree_incs", tree_incs)
    assert tripped > 100


def test_roots_positive_evaluates_no_form(monkeypatch):
    """A deterministic work guard: the roots of path trees and path 1-trees are
    checked through their incidence images, with no incidence form built and
    no value of q evaluated."""
    def refuse(*args):
        raise RuntimeError("a form was built or evaluated")

    monkeypatch.setattr(qform, "_value", refuse)
    monkeypatch.setattr(walks, "_value", refuse, raising=False)
    monkeypatch.setattr(BidirectedGraph, "incidence_form", refuse)
    for n in (16, 64):
        cycle = [((i, 1), (i + 1, -1)) for i in range(1, n)] + [((n, 1), (1, 1))]  # one two-tail arrow
        for B, count in ((canonical_a(n, 0), n * n + n + 1), (canonical_c(n, 0, 0), 2 * n * n + 1),
                         (BidirectedGraph(n, cycle), 2 * n * n + 1)):
            assert len(roots_positive(B).vectors) == count


_DISCONNECTED = BidirectedGraph(4, [((1, 1), (2, -1)), ((3, 1), (4, -1))])


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: setattr(Walk(B_3V, 1), "start", 2), AttributeError, "Walk is immutable"),
        (lambda: Walk(B_3V, 4), InvalidInput, "walk start vertex out of range"),
        (lambda: Walk(B_3V, 1).compose(Walk(B_4V, 1)), InvalidInput, "walks live on different graphs"),
        (lambda: Walk(B_3V, 1).compose(Walk(B_3V, 2)), InvalidInput, "walks are not composable"),
        (lambda: Walk.parse_text(B_3V, "1 1 2").power(2), InvalidInput, "powers are defined for closed walks"),
        (lambda: Walk.parse_text(B_3V, "1 1"), InvalidInput, "walk text must alternate vertices and arrows"),
        (lambda: Walk.parse_text(B_3V, "1 x 2"), InvalidInput,
         "bad walk token: invalid literal for int() with base 10: 'x'"),
        (lambda: walk_root_cover(_DISCONNECTED, 1), InvalidInput, "walk_root_cover needs a connected graph"),
        (lambda: roots_positive(_DISCONNECTED), InvalidInput, "roots_positive needs a connected graph"),
        (lambda: roots_positive(canonical_a(2, 2)), NotPositive, "graph is neither a tree nor a 1-tree"),
    ],
)
def test_walks_refuse_misuse(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as refused:
        build()
    assert type(refused.value) is error


@pytest.mark.parametrize(
    "build",
    [
        lambda: Walk(B_3V, 1.0),
        lambda: Walk(B_3V, 1, [(1.0, False)]),
        lambda: trivial_walk(B_3V, 2.0),
    ],
)
def test_walks_refuse_non_integers(build):
    with pytest.raises(InvalidInput, match="expected an integer, got"):
        build()


def _random_balanced(rng, m, n):
    """A connected balanced graph with a directed loop: a quiver on a spanning
    path, extra arrows and a directed loop, switched at random vertices."""
    pairs = [(v, v + 1) for v in range(1, m)] + [(rng.randint(1, m),) * 2]
    while len(pairs) < n:
        pairs.append((rng.randint(1, m), rng.randint(1, m)))
    flip = [None] + [rng.choice((1, -1)) for _ in range(m)]
    return BidirectedGraph(m, [((u, flip[u]), (w, -flip[w])) for u, w in pairs])


def test_theorem_c_two_roots_of_a_balanced_graph_are_empty_without_a_search(monkeypatch):
    # every closed walk of a balanced graph is positive: the BFS finds no negative one either
    rng = random.Random(4703)
    graphs = []
    for m in range(1, 6):
        for _ in range(6):
            B = _random_balanced(rng, m, rng.randint(m, m + 3))
            assert balance(B).beta == 1 and B.directed_loops() and B.is_connected()
            graphs.append(B)
    runs = []
    for B in graphs:
        cap = rng.randint(1, 7)
        runs.append((B, cap))
        assert _all_starts_theorem_c(B, 2, cap) == frozenset()
    monkeypatch.setattr(walks, "_WalkStates", None)  # the shortcut builds no walk states
    for B, cap in runs:
        assert theorem_c_roots(B, 2, cap) == RootSet(2, frozenset())
    B = graphs[-1]
    for args, message in (((B, 3, 2), "handles d in"), ((B, 2, -1), "length_cap must be >= 0"),
                          ((BidirectedGraph(3, [((1, 1), (2, -1))]), 2, 2), "needs a connected graph")):
        with pytest.raises(InvalidInput, match=message):
            theorem_c_roots(*args)
