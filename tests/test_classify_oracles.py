"""The classify kernels against the code they replaced, and at scale.

`_realize_unit_backtracking` (a vertex-indexed search on an explicit stack)
and `_greedy_core` (a deletion search that reads rank off the radical) are
checked against the recursive versions they replaced, kept below as the
references, on seeded connected unit forms of types A, D and E with corank
0 to 4, scrambled by Gabrielov steps. The forms that the library builds
without the constructor's checks (`IntegralQuadraticForm._trusted`) are
checked against the same data sent through the constructor. The large-n
tests run with little stack to spare, so that a recursion over arrows or
variables fails.
"""

from __future__ import annotations

import ast
import inspect
import random
import time

import pytest

from bidiforms import classify
from bidiforms.bidigraph import BidirectedGraph
from bidiforms.classify import (
    _sign_update,
    dynkin_type,
    dynkin_unit_form,
    gabrielov_update,
    positive_core,
    realize,
)
from bidiforms.errors import BidiformsError, InvalidInput
from bidiforms.exact_linalg import IntMatrix
from bidiforms.qform import IntegralQuadraticForm, analyze
from tests.test_graph_layer import _random_graph, _shallow_stack

# -- the references: the recursive searches before the rewrite -------------------


def _sparse_dot(ends_a, ends_b):
    total = 0
    for (u, e) in ends_a:
        for (w, f) in ends_b:
            if u == w:
                total += e * f
    return total


def _reference_realize_unit(q, m):
    """Recursive backtracking over incidence rows, each candidate checked
    against every placed row."""
    n = q.n
    order = classify._bigraph_bfs_order(q)
    G = q.gram()
    rows = {}

    def products_ok(i, row):
        for j, rj in rows.items():
            if _sparse_dot(row, rj) != G[i - 1, j - 1]:
                return False
        return True

    def candidates(used_count, first):
        if first:
            yield ((1, 1), (2, -1))
            return
        top = min(used_count + 1, m)
        for u in range(1, top + 1):
            for u2 in range(u + 1, top + 1):
                fresh = u2 == used_count + 1
                for e in (1, -1):
                    for e2 in ((1,) if fresh else (1, -1)):
                        yield ((u, e), (u2, e2))

    def rec(k, used_count):
        if k == len(order):
            return dict(rows) if used_count == m else None
        i = order[k]
        for ends in candidates(used_count, k == 0):
            if not products_ok(i, ends):
                continue
            rows[i] = ends
            new_used = max(used_count, ends[0][0], ends[1][0])
            if new_used <= m:
                res = rec(k + 1, new_used)
                if res is not None:
                    return res
            del rows[i]
        return None

    sol = rec(0, 0)
    if sol is None:
        return None
    return BidirectedGraph(m, [sol[i] for i in range(1, n + 1)])


def _reference_greedy_core(q, rep):
    """Recursive deletion search that analyzes every restriction it tries."""
    target_rank = rep.rank

    def search(X):
        a = analyze(q.restrict(sorted(X)))
        if a.rank < target_rank or not a.connected:
            return None
        if a.corank == 0:
            return sorted(X)
        for v in sorted(X):
            res = search(X - {v})
            if res is not None:
                return res
        return None

    return search(frozenset(range(1, q.n + 1)))


# -- seeded unit forms of Dynkin type with a radical -------------------------------


def _root(rng, q0, steps):
    """A root of the Dynkin unit form q0: a simple root moved by simple reflections."""
    x = [0] * q0.n
    x[rng.randrange(q0.n)] = 1
    for _ in range(steps):
        i = rng.randrange(q0.n)
        x[i] -= 2 * x[i] + sum(q0.coefficient(i + 1, j + 1) * x[j] for j in range(q0.n) if j != i)
    return x


def _extended_form(rng, family, r, c, scramble):
    """q0∘T for q0 of type family_r, T = [I | c roots of q0]: a non-negative unit
    form of rank r and corank c; then permuted and scrambled by Gabrielov steps
    and sign inversions."""
    q0 = dynkin_unit_form(family, r)
    cols = [[1 if a == b else 0 for a in range(r)] for b in range(r)]
    cols += [_root(rng, q0, rng.randint(1, 3 * r)) for _ in range(c)]
    T = IntMatrix(list(zip(*cols)))
    q = IntegralQuadraticForm.from_gram(T.transpose() @ q0.gram() @ T)
    pi = list(range(1, q.n + 1))
    rng.shuffle(pi)
    q = q.permuted(pi)
    for _ in range(scramble):
        if rng.random() < 0.25 or q.n == 1:
            q = _sign_update(q, rng.randint(1, q.n))
        else:
            i, j = rng.sample(range(1, q.n + 1), 2)
            q = gabrielov_update(q, i, j)
    return q


def _seeded_forms(seed, count):
    """(family, q) for `count` connected forms; families A and D outnumber E."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        family = rng.choice("AAADDE")
        r = {"A": rng.randint(1, 8), "D": rng.randint(4, 8), "E": rng.randint(6, 8)}[family]
        q = _extended_form(rng, family, r, rng.randint(0, 4), rng.randint(0, 6))
        rep = analyze(q)
        if rep.connected:
            assert rep.non_negative and rep.rank == r and rep.unit
            out.append((family, q))
    return out


def test_realizer_and_core_match_the_recursive_searches():
    forms = _seeded_forms(7101, 2000)
    coranks = set()
    realized = cores = e_cores = 0
    for family, q in forms:
        rep = analyze(q)
        coranks.add(rep.corank)
        if family != "E":  # a core of a form of type E may span a sublattice of another type
            assert dynkin_type(q, rep)[0].family == family
        if rep.corank:
            X = positive_core(q, rep)
            assert X == _reference_greedy_core(q, rep), q
            cores += 1
            e_cores += family == "E"
        if family != "E":
            m = rep.rank + 1 if family == "A" else rep.rank
            B = classify._realize_unit_backtracking(q, m)
            assert B == _reference_realize_unit(q, m), q
            assert B.to_json_dict() == realize(q).to_json_dict()
            realized += 1
    assert coranks == {0, 1, 2, 3, 4}
    assert realized > 1200 and cores > 1200 and e_cores > 150


def test_realizer_matches_the_recursive_search_when_it_finds_no_graph():
    # m too small for the form: both searches exhaust their candidates
    rng = random.Random(7102)
    outcomes = []
    for _ in range(30):
        q = _extended_form(rng, "A", rng.randint(3, 6), rng.randint(0, 2), 3)
        if not analyze(q).connected:
            continue
        for m in (2, analyze(q).rank):
            B = classify._realize_unit_backtracking(q, m)
            assert B == _reference_realize_unit(q, m)
            outcomes.append(B is None)
    assert sum(outcomes) > 40


# -- forms built without the constructor's checks -----------------------------------


def _same_form(got, q_ref):
    """Equal in value, in the order `off` iterates, in hash, and normalized."""
    assert got == q_ref
    assert type(got.diag) is tuple and got.diag == q_ref.diag
    assert list(got.off.items()) == list(q_ref.off.items())
    assert hash(got) == hash(q_ref)
    assert got.n == len(got.diag)
    assert all(1 <= i < j <= got.n and type(v) is int and v for (i, j), v in got.off.items())


def _checked(q):
    return IntegralQuadraticForm(q.diag, dict(q.off))


def _reference_gabrielov_update(q, i, j):
    if q.coefficient(i, i) == 0:
        return q
    qij = q.coefficient(i, j)
    ratio = classify._gabrielov_ratio(q, i, j)
    off = dict(q.off)
    for k in range(1, q.n + 1):
        if k in (i, j):
            continue
        new = q.coefficient(k, j) - q.coefficient(k, i) * ratio
        key = (min(k, j), max(k, j))
        if new:
            off[key] = new
        else:
            off.pop(key, None)
    key = (min(i, j), max(i, j))
    if qij:
        off[key] = -qij
    else:
        off.pop(key, None)
    return IntegralQuadraticForm(q.diag, off)


def _reference_restrict(q, X):
    X = sorted(set(X))
    pos = {orig: t + 1 for t, orig in enumerate(X)}
    off = {(pos[i], pos[j]): v for (i, j), v in q.off.items() if i in pos and j in pos}
    return IntegralQuadraticForm([q.diag[i - 1] for i in X], off)


def _reference_permuted(q, pi):
    inv = {p: k for k, p in enumerate(pi, start=1)}
    off = {(inv[i], inv[j]): v for (i, j), v in q.off.items()}
    return IntegralQuadraticForm([q.diag[p - 1] for p in pi], off)


def _reference_incidence_form(B):
    at = [[] for _ in range(B.m + 1)]
    diag = []
    for i, ((u, e), (u2, e2)) in enumerate(B.ends, start=1):
        if u == u2:
            c = e + e2
            diag.append(c * c // 2)
            if c:
                at[u].append((i, c))
        else:
            diag.append(1)
            at[u].append((i, e))
            at[u2].append((i, e2))
    off = {}
    for arrows in at:
        for k, (i, c) in enumerate(arrows):
            for j, c2 in arrows[k + 1:]:
                off[(i, j)] = off.get((i, j), 0) + c * c2
    return IntegralQuadraticForm(diag, dict(sorted(off.items())))


def _random_form(rng):
    n = rng.randint(1, 7)
    diag = [rng.choice((0, 1, 1, 2, -1)) for _ in range(n)]
    off = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if rng.random() < 0.5:
                off[(i, j) if rng.random() < 0.5 else (j, i)] = rng.randint(-3, 3) * max(1, abs(diag[i - 1]))
    return IntegralQuadraticForm(diag, off)


def test_trusted_forms_equal_the_checked_constructor():
    rng = random.Random(7103)
    steps = 0
    for _ in range(1500):
        q = _random_form(rng)
        n = q.n
        got = []
        if n >= 2:
            i, j = rng.sample(range(1, n + 1), 2)
            try:
                want = _reference_gabrielov_update(q, i, j)
            except BidiformsError as exc:
                with pytest.raises(type(exc)):
                    gabrielov_update(q, i, j)
            else:
                got.append((gabrielov_update(q, i, j), want))
                steps += 1
        i = rng.randint(1, n)
        flipped = {k: -v if i in k else v for k, v in q.off.items()}
        got.append((_sign_update(q, i), IntegralQuadraticForm(q.diag, flipped)))
        X = rng.sample(range(1, n + 1), rng.randint(1, n))
        got.append((q.restrict(X), _reference_restrict(q, X)))
        pi = list(range(1, n + 1))
        rng.shuffle(pi)
        got.append((q.permuted(pi), _reference_permuted(q, pi)))
        for form, want in got:
            _same_form(form, want)
            _same_form(form, _checked(form))
    assert steps > 800
    for _ in range(1500):
        B = _random_graph(rng)
        form = B.incidence_form()
        _same_form(form, _reference_incidence_form(B))
        _same_form(form, _checked(form))


def test_incidence_form_drops_products_that_cancel():
    # a directed and a two-tail arrow between 1 and 2: (+1)(+1) + (-1)(+1) = 0
    q = BidirectedGraph(2, [((1, 1), (2, -1)), ((1, 1), (2, 1))]).incidence_form()
    assert dict(q.off) == {} and q == IntegralQuadraticForm([1, 1])
    assert hash(q) == hash(IntegralQuadraticForm([1, 1]))


def test_gabrielov_update_keeps_its_refusals():
    q = IntegralQuadraticForm([1, 1, 0], {(1, 2): -1, (2, 3): 1})
    with pytest.raises(InvalidInput):
        gabrielov_update(q, 1, 1)
    with pytest.raises(InvalidInput):
        gabrielov_update(q, 4, 1)
    with pytest.raises(InvalidInput):
        gabrielov_update(q, 1, 4)
    assert gabrielov_update(q, 3, 1) is q  # q_3 = 0: the identity
    assert gabrielov_update(q, 1, 3) is q  # q_13 = 0: the identity


# -- large n, with little stack to spare ----------------------------------------


def test_realize_long_paths_without_recursion():
    for family, m in (("A", 201), ("D", 200)):
        q = dynkin_unit_form(family, 200)
        start = time.perf_counter()
        with _shallow_stack():
            B = realize(q)
        assert B.m == m and B.incidence_form() == q
        assert time.perf_counter() - start < 30  # about 1 s; the recursive search took minutes


def test_positive_core_of_a_large_corank_three_form_without_recursion():
    rng = random.Random(7104)
    q = _extended_form(rng, "A", 60, 3, 40)
    rep = analyze(q)
    assert q.n == 63 and rep.connected and rep.corank == 3
    with _shallow_stack():
        X = positive_core(q, rep)
    sub = analyze(q.restrict(X))
    assert len(X) == 60 and sub.corank == 0 and sub.connected and sub.rank == rep.rank


@pytest.mark.parametrize("name", ["_realize_unit_backtracking", "_greedy_core"])
def test_searches_hold_no_recursive_function(name):
    outer = ast.parse(inspect.getsource(getattr(classify, name))).body[0]
    nested = [f for f in ast.walk(outer) if isinstance(f, ast.FunctionDef) and f is not outer]
    banned = {name} | {f.name for f in nested}
    for f in [outer] + nested:
        called = {c.func.id for c in ast.walk(f) if isinstance(c, ast.Call) and isinstance(c.func, ast.Name)}
        # the outer function may call its helpers; nothing may call back into itself or them
        assert not called & ({name} if f is outer else banned), f"{name}: {f.name} recurses"
