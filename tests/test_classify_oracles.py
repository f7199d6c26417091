"""The classify kernels against the code they replaced, and at scale.

`_realize_unit_backtracking` (a vertex-indexed search on an explicit stack
over forced rows, whose generator is checked at every node against the one
it replaced) and `_greedy_core` (a deletion search that reads rank off the
radical) are checked against the recursive versions they replaced, kept
below as the references, on seeded connected unit forms of types A, D and E
with corank 0 to 4, scrambled by Gabrielov steps. So is the Fincke-Pohst
enumeration behind `positive_roots_by_value` and `first_root_with_value`,
against the two recursive searches it replaced. The determinant that
`analyze` gives for the typing (`FormAnalysis.positive_det`) is checked
against the Gram determinant of the positive core that `dynkin_type` took
before. The forms, graphs and matrices that the library builds without the
constructor's checks (`IntegralQuadraticForm._trusted`,
`BidirectedGraph._trusted`, `IntMatrix._trusted`) are checked against the
same data sent through the constructor, and the chase's row check after a
Gabrielov step against the full incidence form it replaced.
The large-n tests run with little stack to spare, so that a recursion over
arrows or variables fails, no function in the package may call itself by
name, and every private module-level function must be used in the package.
"""

from __future__ import annotations

import ast
import inspect
import pathlib
import random
import re
import time
from fractions import Fraction
from math import isqrt

import pytest

from bidiforms import classify, qform
from bench import gen
from bidiforms.bidigraph import (
    _Arrows,
    BidirectedGraph,
    arrow_permutation,
    canonical_c as canonical_c_graph,
    endpoint_rewrite,
    graph_gabrielov,
    loops_graph,
    sign_flip,
)
from bidiforms.classify import (
    _row_matches,
    _Rows,
    canonical_c,
    dynkin_plus_zero,
    dynkin_type,
    dynkin_unit_form,
    first_root_with_value,
    GTransform,
    gabrielov_update,
    pivot_saturate,
    positive_core,
    positive_roots_by_value,
    realize,
    star_realization,
)
from bidiforms.errors import BidiformsError, InvalidInput, NotCoxRegular
from bidiforms.exact_linalg import IntMatrix
from bidiforms.gentle import GentlePresentation, euler_pipeline
from bidiforms.qform import IntegralQuadraticForm, analyze, form_adjacency, traverse
from tests.test_exact_linalg import _reference_integer_kernel
from tests.test_graph_layer import _random_graph, _shallow_stack
from tests.test_qform import _congruence, _sign_update

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
    order = traverse(form_adjacency(q), 1)[0]
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


def _reference_candidates(placed, i, used):
    """The rows the realizer generated before `_UnitRows.candidates`: every row with
    one end at the first placed neighbour whose other end is a vertex of a
    placed neighbour, of a row at its first end, or fresh, in (u, u2, e, e2) order."""
    rows, at, m = placed.rows, placed.at, placed.m
    (a, _), (b, _) = rows[placed.earlier[i][0]]
    near = {v for j in placed.earlier[i] for v, _ in rows[j]}
    if used < m:
        near.add(used + 1)  # the fresh vertex
    pairs = {(min(x, y), max(x, y)) for x in (a, b)
             for y in near.union(v for j in at[x] for v, _ in rows[j]) if y != x}
    for u, u2 in sorted(pairs):
        fresh = u2 == used + 1
        for e in (1, -1):
            for e2 in ((1,) if fresh else (1, -1)):
                yield ((u, e), (u2, e2))


def _reference_greedy_core(q, rep):
    """Recursive deletion search that analyzes every restriction it tries and
    keeps a corank-0 leaf whose deleted radical rows have determinant +-1."""
    target_rank = rep.rank

    def search(X):
        a = analyze(q.restrict(sorted(X)))
        if a.rank < target_rank or not a.connected:
            return None
        if a.corank == 0:  # a core spanning a sublattice of finite index is passed over
            deleted = [v for v in range(1, q.n + 1) if v not in X]
            det = IntMatrix([[z[v - 1] for z in rep.radical_basis] for v in deleted]).det()
            return sorted(X) if abs(det) == 1 else None
        for v in sorted(X):
            res = search(X - {v})
            if res is not None:
                return res
        return None

    return search(frozenset(range(1, q.n + 1)))


def _reference_positive_roots_by_value(q, dmax):
    """Recursive enumeration of x^tr G x <= 2 dmax: each level scans a window
    widened by one around the exact interval and keeps the terms that fit."""
    G = q.gram()
    d, u = classify._ldl(G)
    n = q.n
    out = {v: set() for v in range(1, dmax + 1)}
    budget = Fraction(2 * dmax)
    x = [0] * n

    def rec(i, remaining):
        if i < 0:
            val = budget - remaining
            if val > 0:
                qval = val / 2
                if qval.denominator == 1:
                    out[int(qval)].add(tuple(x))
            return
        shift = sum(u[i][j] * x[j] for j in range(i + 1, n))
        r = remaining / d[i]
        halfwidth = (isqrt(r.numerator * r.denominator) // r.denominator if r >= 0 else -1) + 1
        lo, hi = -shift - halfwidth, -shift + halfwidth
        for xi in range(-((-lo.numerator) // lo.denominator), hi.numerator // hi.denominator + 1):
            x[i] = xi
            term = d[i] * (xi + shift) ** 2
            if term <= remaining:
                rec(i - 1, remaining - term)
        x[i] = 0

    rec(n - 1, budget)
    return {v: frozenset(s) for v, s in out.items()}


def _reference_first_root_with_value(q, d):
    """Recursive centre-outward search for q(x) = d, each direction stopped at
    the first term that overshoots; the last coordinate by a perfect square."""
    if d == 0:
        return (0,) * q.n
    dd, u = classify._ldl(q.gram())
    n = q.n
    x = [0] * n

    def leaf(remaining):
        shift = sum(u[0][j] * x[j] for j in range(1, n) if x[j])
        r = remaining / dd[0]
        num, den = r.numerator, r.denominator
        sn, sd = isqrt(num), isqrt(den)
        if sn * sn != num or sd * sd != den:
            return None
        s = Fraction(sn, sd)
        for cand in (-shift + s, -shift - s):
            if cand.denominator == 1:
                x[0] = int(cand)
                return tuple(x)
        return None

    def rec(i, remaining):
        if i == 0:
            return leaf(remaining)
        shift = sum(u[i][j] * x[j] for j in range(i + 1, n) if x[j])
        c0 = round(-shift)
        xi = c0
        while True:
            term = dd[i] * (xi + shift) ** 2
            if term > remaining:
                break
            x[i] = xi
            res = rec(i - 1, remaining - term)
            if res is not None:
                return res
            xi += 1
        xi = c0 - 1
        while True:
            term = dd[i] * (xi + shift) ** 2
            if term > remaining:
                break
            x[i] = xi
            res = rec(i - 1, remaining - term)
            if res is not None:
                return res
            xi -= 1
        x[i] = 0
        return None

    if n == 1:
        return leaf(Fraction(2 * d))
    return rec(n - 1, Fraction(2 * d))


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


def test_realizer_and_core_match_the_recursive_searches(monkeypatch):
    forms = _seeded_forms(7101, 2000)
    coranks = set()
    realized = cores = e_cores = 0
    forced = classify._UnitRows.candidates
    nodes = []

    def checked(placed, i, used):
        # at every search node the forced rows drop no row that fits, and keep its place
        got = forced(placed, i, used)
        want = list(_reference_candidates(placed, i, used))
        assert set(got) <= set(want)
        assert [c for c in got if placed.fits(i, c)] == [c for c in want if placed.fits(i, c)]
        nodes.append((len(got), len(want)))
        return got

    monkeypatch.setattr(classify._UnitRows, "candidates", checked)
    for family, q in forms:
        rep = analyze(q)
        coranks.add(rep.corank)
        assert dynkin_type(q)[0].family == family
        if rep.corank:
            X = positive_core(q)
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
    assert len(nodes) > 10000 and sum(g for g, _ in nodes) * 3 < sum(w for _, w in nodes)


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


# -- the determinant typing and the positive core it replaced ----------------------


def _reference_positive_det(q):
    """The Gram determinant of the unimodular positive core, which `dynkin_type`
    read before `analyze` gave the determinant of q on Z^n / rad q."""
    return q.restrict(positive_core(q)).gram().det()


def test_positive_det_matches_the_core_determinant():
    from tests.test_classify import Q_E8_EXTENDED

    forms = [q for _, q in _seeded_forms(7101, 2000)] + [Q_E8_EXTENDED]
    forms += [dynkin_unit_form("A", r) for r in range(1, 14)]
    forms += [dynkin_unit_form("D", r) for r in range(4, 10)]
    forms += [dynkin_unit_form("E", r) for r in (6, 7, 8)]
    coranks = {}
    for q in forms:
        rep = analyze(q)
        assert rep.positive_det == _reference_positive_det(q), q
        coranks[rep.corank] = coranks.get(rep.corank, 0) + 1
    assert set(coranks) == {0, 1, 2, 3, 4} and min(coranks.values()) > 200, coranks


def test_positive_det_is_none_exactly_off_the_non_negative_forms():
    rng = random.Random(1402)
    seen = {True: 0, False: 0}
    for _ in range(600):
        q = _random_form(rng)
        rep = analyze(q)
        assert (rep.positive_det is None) == (not rep.non_negative), q
        if rep.non_negative:
            assert rep.positive_det > 0
            assert rep.corank or rep.positive_det == q.gram().det()
        seen[rep.non_negative] += 1
    assert min(seen.values()) > 100, seen


def test_typing_and_realizing_unit_forms_search_no_core(monkeypatch):
    # the type of a unit form is read off analyze; a core search here would reach a patched function
    rng = random.Random(1403)
    forms = []
    while len(forms) < 90:
        family = "ADE"[len(forms) % 3]
        r = {"A": rng.randint(1, 8), "D": rng.randint(4, 8), "E": rng.randint(6, 8)}[family]
        q = _extended_form(rng, family, r, rng.randint(0, 3), rng.randint(0, 6))
        if analyze(q).connected:
            forms.append(q)

    def outcomes():
        out = []
        for q in forms:
            out.append(dynkin_type(q))
            try:
                out.append(realize(q).to_json_dict())
            except BidiformsError as exc:
                out.append(type(exc).__name__)
        return out

    before = outcomes()
    assert before.count("NotIncidenceForm") == 30

    def refuse(*args, **kwargs):
        raise AssertionError("positive core searched while typing a unit form")

    monkeypatch.setattr(classify, "positive_core", refuse)
    monkeypatch.setattr(classify, "_greedy_core", refuse)
    assert outcomes() == before


def test_type_c_functions_share_one_star_chase(monkeypatch):
    saturate = classify._saturate
    calls = []
    monkeypatch.setattr(classify, "_saturate", lambda ch, i0: calls.append(i0) or saturate(ch, i0))
    rng = random.Random(1404)
    for r, c1, c2 in ((3, 1, 1), (5, 2, 0), (6, 0, 2)):
        B = canonical_c_graph(r, c1, c2)
        for _ in range(2 * B.n):
            B = graph_gabrielov(B, *rng.sample(range(1, B.n + 1), 2))
        q = B.incidence_form()
        classify._star_snapshot.cache_clear()
        del calls[:]
        realize(q)
        star_realization(q)
        canonical_c(q)
        dynkin_plus_zero(q, "C")
        assert len(calls) == 1, (r, c1, c2)


# -- the Fincke-Pohst enumeration --------------------------------------------------


def _positive_forms(seed, count):
    """Dynkin forms of types A, D and E, then the positive ones among `count`
    seeded forms scrambled by Gabrielov steps."""
    forms = [dynkin_unit_form("A", r) for r in range(1, 14)]
    forms += [dynkin_unit_form("D", r) for r in range(4, 10)]
    forms += [dynkin_unit_form("E", r) for r in (6, 7, 8)]
    return forms + [q for _, q in _seeded_forms(seed, count) if analyze(q).corank == 0]


def _sweep_cores(seed, count):
    """Positive unit forms like the solve benchmark's: the incidence forms of
    trees (type A) and of connected graphs with one negative cycle and no
    loop (type D), with 4 to 10 arrows and random arrow signs."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        r = 4 + len(out) % 7
        m = r + 1 if len(out) % 2 else r
        pairs = [(rng.randint(1, v - 1), v) for v in range(2, m + 1)]
        if m == r:
            pairs.append(tuple(rng.sample(range(1, m + 1), 2)))
        B = BidirectedGraph(m, [((u, rng.choice((1, -1))), (v, rng.choice((1, -1)))) for u, v in pairs])
        q = B.incidence_form()
        rep = analyze(q)
        if rep.corank == 0 and rep.rank == r:
            out.append(q)
    return out


def test_root_sets_match_the_recursive_enumeration():
    for q in _positive_forms(7105, 100):
        assert positive_roots_by_value(q, 2) == _reference_positive_roots_by_value(q, 2), q
    # the level intervals of A_11 at dmax = 2 include one that holds no integer
    A11 = dynkin_unit_form("A", 11)
    roots = positive_roots_by_value(A11, 2)
    assert len(roots[1]) == 11 * 12 and roots == _reference_positive_roots_by_value(A11, 2)


def test_first_root_matches_the_recursive_search():
    rng = random.Random(7106)
    found = 0
    for q in _sweep_cores(7107, 28) + _positive_forms(7108, 50):
        for d in [0] + [rng.randint(1 + 30 * k, 30 * (k + 1)) for k in range(10)]:
            x = first_root_with_value(q, d)
            assert x == _reference_first_root_with_value(q, d), (q, d)
            found += x is not None
    assert found > 600  # A_1..A_3 miss some values; a form of rank >= 4 misses none


def test_fincke_pohst_runs_without_recursion():
    # the recursive searches need a frame per variable, more than the stack has left
    A = dynkin_unit_form("A", 80)
    D = dynkin_unit_form("D", 30)
    with _shallow_stack(frames=20):
        x = first_root_with_value(A, 97)
        roots = positive_roots_by_value(D, 1)
        with pytest.raises(RecursionError):
            _reference_first_root_with_value(A, 97)
        with pytest.raises(RecursionError):
            _reference_positive_roots_by_value(D, 1)
    assert A.evaluate(x) == 97
    assert len(roots[1]) == 2 * 30 * 29 and all(D.evaluate(v) == 1 for v in roots[1])


def test_no_function_in_the_package_calls_itself():
    calls = []
    for path in sorted(pathlib.Path(classify.__file__).parent.glob("*.py")):
        for f in ast.walk(ast.parse(path.read_text())):
            if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)):
                calls += [
                    f"{path.name}:{c.lineno} {f.name}"
                    for c in ast.walk(f)
                    if isinstance(c, ast.Call) and isinstance(c.func, ast.Name) and c.func.id == f.name
                ]
    assert calls == []


def test_every_private_function_of_the_package_is_used_in_the_package():
    # a module-level private function that only tests call belongs beside its tests
    paths = sorted(pathlib.Path(classify.__file__).parent.glob("*.py"))
    texts = {path: path.read_text() for path in paths}
    unused = []
    for path, text in texts.items():
        for f in ast.parse(text).body:
            if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)) and f.name.startswith("_") \
                    and not f.name.startswith("__"):
                word = re.compile(rf"\b{f.name}\b")
                own = ast.get_source_segment(text, f)
                uses = sum(len(word.findall(t)) for t in texts.values()) - len(word.findall(own))
                if not uses:
                    unused.append(f"{path.name}:{f.lineno} {f.name}")
    assert unused == []


def _is_layout_map(node):
    """Whether `node` is a form's `.off` or a bigraph's `.edges`, or its items, keys or values."""
    if isinstance(node, ast.Call) and not node.args and isinstance(node.func, ast.Attribute) \
            and node.func.attr in ("items", "keys", "values"):
        node = node.func.value
    return isinstance(node, ast.Attribute) and node.attr in ("off", "edges")


def test_no_code_in_the_package_sorts_a_coefficient_map():
    # the constructors store `off` and `edges` ascending; a reader that sorts them again
    # would make the layout a policy that every producer has to keep
    sorts = []
    for path in sorted(pathlib.Path(classify.__file__).parent.glob("*.py")):
        for c in ast.walk(ast.parse(path.read_text())):
            if isinstance(c, ast.Call) and isinstance(c.func, ast.Name) and c.func.id == "sorted" and c.args:
                arg = c.args[0]  # a map, or a comprehension over one
                if any(_is_layout_map(it) for it in [g.iter for g in getattr(arg, "generators", ())] or [arg]):
                    sorts.append(f"{path.name}:{c.lineno}")
    assert sorts == []


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


def test_a_perm_reorders_the_rows_in_place_as_the_permuted_form():
    """A perm on the rows gives the rows of q.permuted(pi); rows changed by
    perms alone freeze to q.permuted(pi) with its map order, as `then_perm`
    returns it, and after a step too they freeze to the right value."""
    rng = random.Random(7108)
    for _ in range(800):
        q = _random_form(rng)
        pi, sigma = (tuple(rng.sample(range(1, q.n + 1), q.n)) for _ in range(2))
        want = q.permuted(pi)
        f = _Rows(q)
        f.permute(pi)
        assert f.rows == _Rows(want).rows
        _same_form(f.freeze(), want)
        f = _Rows(q)
        f.permute(pi)
        f.permute(sigma)  # two perms rename through both
        _same_form(f.freeze(), want.permuted(sigma))
        T, got = GTransform.identity(q.n).then_perm(q, pi)
        _same_form(got, want)
        assert T.matrix == _step_matrix(q, ("perm", pi))
        i = rng.randint(1, q.n)
        f = _Rows(q)
        f.negate(i)
        f.permute(pi)
        got = f.freeze()
        assert got == _sign_update(q, i).permuted(pi)
        _same_form(got, _checked(got))


def test_then_perm_refuses_what_is_not_a_permutation():
    # the rows would take 0 as the last variable and fail on n + 1 without the check
    q = IntegralQuadraticForm([2, 1, 1], {(1, 2): 1})
    for pi in ((1, 1, 2), (1, 2), (0, 1, 2), (1, 2, 4), (2, 3, 1, 4)):
        with pytest.raises(InvalidInput, match="not a permutation of 1..n"):
            GTransform.identity(3).then_perm(q, pi)


def _same_graph(got, B_ref):
    """Equal in value, in its ends, in hash and in its vertex index, and
    normalized as the constructor leaves it."""
    assert got == B_ref and got.ends == B_ref.ends and hash(got) == hash(B_ref)
    assert type(got.ends) is tuple and got.m == B_ref.m
    assert got.adjacency() == B_ref.adjacency()


def test_trusted_graphs_equal_the_checked_constructor():
    rng = random.Random(7105)
    seen = {"loop": 0, "parallel": 0, "rewritten": 0, "endpoint rewrite": 0}
    for _ in range(1500):
        B = _random_graph(rng)
        seen["loop"] += any(u == u2 for (u, _), (u2, _) in B.ends)
        seen["parallel"] += len(set(map(B.underlying, range(1, B.n + 1)))) < B.n
        if rng.random() < 0.5:  # built or not, B's index is not shared with the derived graphs
            B.adjacency()
        derived = [sign_flip(B, rng.randint(1, B.n))]
        if B.n >= 2:
            i, j = rng.sample(range(1, B.n + 1), 2)
            derived.append(graph_gabrielov(B, i, j))
            seen["rewritten"] += derived[-1] is not B
            for eps in (1, -1):
                try:
                    derived.append(endpoint_rewrite(B, i, j, eps))
                except InvalidInput:  # outside the table of legal configurations
                    continue
                seen["endpoint rewrite"] += 1
        pi = list(range(1, B.n + 1))
        rng.shuffle(pi)
        derived.append(arrow_permutation(B, pi))
        for B2 in derived:
            _same_graph(B2, BidirectedGraph(B2.m, B2.ends))
    assert seen.pop("endpoint rewrite") > 60 and min(seen.values()) > 600
    B = BidirectedGraph(2, [((1, 1), (2, -1)), ((2, 1), (2, 1))])
    for bad in (lambda: sign_flip(B, 0), lambda: sign_flip(B, 3),
                lambda: arrow_permutation(B, (1, 1)), lambda: arrow_permutation(B, (1,)),
                lambda: graph_gabrielov(B, 1, 1), lambda: graph_gabrielov(B, 1, 3)):
        with pytest.raises(InvalidInput):
            bad()


def _same_matrix(got, want):
    """Equal in value, in its entries and in hash, with tuples of ints as the constructor leaves them."""
    assert got == want and got.entries == want.entries and hash(got) == hash(want)
    assert (got.rows, got.cols) == (want.rows, want.cols)
    assert type(got.entries) is tuple and all(type(row) is tuple for row in got.entries)
    assert all(type(x) is int for row in got.entries for x in row)


def test_trusted_matrices_equal_the_checked_constructor():
    rng = random.Random(7106)
    for _ in range(500):
        q = _random_form(rng)
        G = q.gram()
        _same_matrix(G, IntMatrix(G.to_lists()))
        k = rng.randint(0, 3)
        T = IntMatrix([[rng.randint(-2, 2) for _ in range(k)] for _ in range(q.n)])
        want = [[sum(G[i, t] * T[t, j] for t in range(q.n)) for j in range(k)] for i in range(q.n)]
        _same_matrix(G @ T, IntMatrix(want))
    _same_matrix(IntMatrix([[], []]) @ IntMatrix([]), IntMatrix([[], []]))
    for B in _type_c_graphs(rng, 60):
        q = B.incidence_form()
        ch, *_ = classify._directed_star(q, analyze(q))
        _same_matrix(ch.M, IntMatrix(zip(*ch.cols)))


def _type_c_graphs(rng, count):
    """Connected graphs with a form of type C: bidirected loops, parallel arrows, both signs."""
    out = []
    while len(out) < count:
        B = _random_graph(rng, connected=True)
        q = B.incidence_form()
        if classify._is_type_c(analyze(q), q):
            out.append(B)
    return out


def test_every_row_checked_gabrielov_push_also_passes_the_full_check(monkeypatch):
    push = classify._Chase.push
    checked = []

    def push_and_check_all(self, *step):
        push(self, *step)
        if self.graph is not None and step[0] in ("gabrielov", "rewrite"):
            assert self.graph.freeze().incidence_form() == self.q
            checked.append(step[0])

    monkeypatch.setattr(classify._Chase, "push", push_and_check_all)
    for B in _type_c_graphs(random.Random(7106), 60):
        q = B.incidence_form()
        canonical_c(q)
        for variant in ("C", "D"):
            try:
                dynkin_plus_zero(q, variant)
            except InvalidInput:  # variant D needs rank >= 4
                assert variant == "D"
        # realize pushes before its chase has a graph; its pull-back is checked whole
        assert realize(q).incidence_form() == q
    assert checked.count("gabrielov") > 700 and checked.count("rewrite") > 50


def _flip_end(B, k, side):
    ends = list(B.ends)
    pair = list(ends[k - 1])
    v, e = pair[side]
    pair[side] = (v, -e)
    ends[k - 1] = tuple(pair)
    return BidirectedGraph(B.m, ends)


def test_star_graph_is_the_checked_graph_and_its_row_check_refuses_a_flipped_arrow(monkeypatch):
    """B' is built unchecked from normalized ends: it equals the constructor's
    graph. Checked arrow by arrow against the saturated rows it passes; with
    one arrow flipped it fails, in the snapshot too, and with one end flipped
    it fails exactly when the incidence form changes."""
    refused = 0
    for B in _type_c_graphs(random.Random(7109), 150):
        q = B.incidence_form()
        _, _, rows, form, star, _ = classify._star_snapshot(q)
        _same_graph(star, BidirectedGraph(star.m, star.ends))
        assert star.incidence_form() == form and _Rows(form).rows == rows
        f = _Rows(form)
        assert all(_row_matches(_Arrows(star), f, j) for j in range(1, star.n + 1))
        for k in range(1, star.n + 1):
            wrong = sign_flip(star, k)  # every arrow meets the loop at 1, so its row changes
            assert not all(_row_matches(_Arrows(wrong), f, j) for j in range(1, star.n + 1))
            refused += 1
            for side in (0, 1):  # one end: a switching at a vertex of one arrow keeps the form
                wrong = _flip_end(star, k, side)
                same = wrong.incidence_form() == form
                assert all(_row_matches(_Arrows(wrong), f, j) for j in range(1, star.n + 1)) == same
                refused += not same
    assert refused > 2000
    q = canonical_c_graph(5, 1, 1).incidence_form().permuted((3, 1, 2, 4, 5, 6, 7))
    star_graph = classify._star_graph

    def flipped_star_graph(rows):
        B, part = star_graph(rows)
        return sign_flip(B, 2), part

    monkeypatch.setattr(classify, "_star_graph", flipped_star_graph)
    with pytest.raises(AssertionError):
        classify._star_snapshot.__wrapped__(q)


def test_row_check_rejects_a_flipped_end_sign():
    rejected = {"j": 0, "k": 0}
    for B in _type_c_graphs(random.Random(7107), 120):
        q = B.incidence_form()
        for j in range(1, B.n + 1):
            assert _row_matches(_Arrows(B), _Rows(q), j)
            diag = list(q.diag)
            diag[j - 1] += 1
            assert not _row_matches(_Arrows(B), _Rows(IntegralQuadraticForm(diag, q.off)), j)
            # only row j of the incidence form can change, so the row check is the full check
            for side in (0, 1):
                B2 = _flip_end(B, j, side)
                same = B2.incidence_form() == q
                assert _row_matches(_Arrows(B2), _Rows(q), j) == same
                rejected["j"] += not same
            # an end of another arrow k at a vertex where arrow j has a nonzero entry changes q_jk
            entry = {}
            for v, e in B.ends[j - 1]:
                entry[v] = entry.get(v, 0) + e
            for k in range(1, B.n + 1):
                for side, (v, _) in enumerate(B.ends[k - 1]):
                    if k != j and entry.get(v):
                        assert not _row_matches(_Arrows(_flip_end(B, k, side)), _Rows(q), j)
                        rejected["k"] += 1
    assert rejected["j"] > 1000 and rejected["k"] > 3000


def _step_matrix(q, step):
    """The dense matrix S of one tagged step on q, from its definition."""
    n = q.n
    S = [[int(a == b) for b in range(n)] for a in range(n)]
    tag = step[0]
    if tag in ("gabrielov", "rewrite"):
        i, j = step[1], step[2]
        qi = q.coefficient(i, i)
        c = step[3] if tag == "rewrite" else q.coefficient(i, j) // qi if qi else 0
        S[i - 1][j - 1] -= c  # E_j -> E_j - c E_i
    elif tag == "sign":
        S[step[1] - 1][step[1] - 1] = -1
    else:  # new variable b is old variable pi(b): column b of S is E_pi(b)
        S = [[int(step[1][b] == a + 1) for b in range(n)] for a in range(n)]
    return IntMatrix(S)


def _scrambled_type_c_graphs(rng):
    """Canonical type-C graphs of rank 3..9 moved by random graph steps, whose
    incidence forms have every type-C shape and no special arrow order."""
    out = []
    for r in range(3, 10):
        B = canonical_c_graph(r, rng.randint(0, 3), rng.randint(0, 2))
        for _ in range(3 * B.n):
            i, j = rng.sample(range(1, B.n + 1), 2)
            B = sign_flip(B, i) if rng.random() < 0.3 else graph_gabrielov(B, i, j)
        pi = list(range(1, B.n + 1))
        rng.shuffle(pi)
        out.append(arrow_permutation(B, pi))
    return out


def test_every_chase_step_is_the_composition_with_its_matrix(monkeypatch):
    """The Gram rows of the chase after each step, read without freezing them,
    are S^tr G S for the rows G before it and the step's matrix S, computed
    on plain lists; a form frozen before the step does not change."""
    push = classify._Chase.push
    seen = {"gabrielov": 0, "sign": 0, "perm": 0, "rewrite": 0}

    def push_and_compose(self, *step):
        G = [list(row) for row in self.form.rows]
        before = IntegralQuadraticForm.from_gram(IntMatrix(G))
        frozen = self.q if rng.random() < 0.5 else None  # the next step must leave it as it is
        push(self, *step)
        after = [list(row) for row in self.form.rows]
        assert after == _congruence(G, _step_matrix(before, step).to_lists()), step
        assert frozen is None or (frozen == before and hash(frozen) == hash(before))
        seen[step[0]] += 1

    rng = random.Random(1201)
    monkeypatch.setattr(classify._Chase, "push", push_and_compose)
    graphs = _type_c_graphs(rng, 40) + _scrambled_type_c_graphs(rng)
    for B in graphs:
        q = B.incidence_form()
        i0 = rng.randint(1, q.n)
        sat, T = pivot_saturate(q, i0)
        assert sat == q.compose(T.matrix)
        T, q_star, _, _ = star_realization(q)
        assert q_star == q.compose(T.matrix)
        canonical_c(q)
        for variant in ("C", "D"):
            try:
                dynkin_plus_zero(q, variant)
            except InvalidInput:  # variant D needs rank >= 4
                assert variant == "D"
    assert min(seen.values()) > 50, seen


def test_public_steps_are_the_composition_with_their_matrix():
    rng = random.Random(1202)
    steps = 0
    for _ in range(800):
        q = _random_form(rng)
        T = GTransform.identity(q.n)
        for _ in range(4):
            i, j = rng.randint(1, q.n), rng.randint(1, q.n)
            kind = rng.choice(("gabrielov", "sign", "perm"))
            if kind == "gabrielov" and i != j:
                step = ("gabrielov", i, j)
                try:
                    q2 = gabrielov_update(q, i, j)
                except NotCoxRegular:
                    assert q.coefficient(i, j) % q.coefficient(i, i)
                    continue
                T2, q3 = T.then_gabrielov(q, i, j)
            elif kind == "sign":
                step = ("sign", i)
                q2 = _sign_update(q, i)
                T2, q3 = T.then_sign(q, i)
            else:
                pi = list(range(1, q.n + 1))
                rng.shuffle(pi)
                step = ("perm", tuple(pi))
                q2 = q.permuted(pi)
                T2, q3 = T.then_perm(q, pi)
            S = _step_matrix(q, step)
            assert q2 == q3 == q.compose(S), step
            assert T2.matrix == T.matrix @ S and T2.steps == T.steps + (step,)
            q, T = q2, T2
            steps += 1
    assert steps > 2500


def test_canonical_c_builds_a_fixed_number_of_forms(monkeypatch):
    """A deterministic work guard: the chase freezes its rows a fixed number
    of times, however many steps it takes. The caches start empty, so the
    count does not depend on what ran before: the snapshot's form, the
    target and the closing q∘M."""
    built = []
    trusted = IntegralQuadraticForm._trusted
    monkeypatch.setattr(IntegralQuadraticForm, "_trusted",
                        classmethod(lambda cls, diag, off: built.append(1) or trusted(diag, off)))
    counts = []
    for n in (16, 64):
        q = canonical_c_graph(n, n // 4, n // 4).incidence_form()
        classify._canonical_target.cache_clear()
        classify._star_snapshot.cache_clear()
        del built[:]
        canonical_c(q)
        counts.append(len(built))
    assert counts == [3, 3], counts


def test_type_c_pass_thaws_freezes_and_builds_incidence_forms_a_fixed_number_of_times(monkeypatch):
    """A deterministic work guard on the type-C pass: `canonical_c` and a type-C
    `realize` each thaw, freeze and build incidence forms as often on C_16 as
    on C_64, the input given as is and with its variables reversed (which
    takes perm steps)."""
    counts = dict.fromkeys(("_gram_rows", "freeze", "incidence_form"), 0)

    def counted(owner, name):
        function = getattr(owner, name)

        def wrapper(*args):
            counts[name] += 1
            return function(*args)
        monkeypatch.setattr(owner, name, wrapper)

    counted(classify, "_gram_rows")  # the one thaw
    counted(classify._Rows, "freeze")
    counted(BidirectedGraph, "incidence_form")
    seen = {}
    for n in (16, 64):
        q = canonical_c_graph(n, n // 4, n // 4).incidence_form()
        for form in (q, q.permuted(range(q.n, 0, -1))):
            for f in (canonical_c, realize):
                classify._canonical_target.cache_clear()
                classify._star_snapshot.cache_clear()
                analyze(form)  # outside the count
                counts.update(dict.fromkeys(("_gram_rows", "freeze", "incidence_form"), 0))
                f(form)
                seen.setdefault((f.__name__, form == q), []).append(dict(counts))
    # canonical_c thaws q and its target, realize thaws q; each builds one incidence form
    want = {"canonical_c": {"_gram_rows": 2, "freeze": 0, "incidence_form": 1},
            "realize": {"_gram_rows": 1, "freeze": 0, "incidence_form": 1}}
    for (name, as_is), runs in seen.items():
        assert runs == [want[name]] * 2, (name, as_is, runs)


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
        X = positive_core(q)
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


# -- the radical from the sparse elimination, and the graph of the chase --------


def _generator_forms(rng):
    """The forms of the bench generators: the classify workload's graphs of types
    A, D and C and its gentle Euler forms, and the solve_sweep workload's type-C
    graphs, trees, one-trees and small graphs."""
    for m in range(8, 17):
        for extra in range(4):
            yield BidirectedGraph(*gen.switched_quiver(rng, m, extra)).incidence_form()
            yield BidirectedGraph(*gen.negative_cycle_graph(rng, m, 1 + extra % 3)).incidence_form()
            yield BidirectedGraph(*gen.bidirected_loop_graph(rng, m, extra % 3, 1 + extra % 2)).incidence_form()
        yield euler_pipeline(GentlePresentation(*gen.gentle_presentation(rng, m))).form
    for r in range(4, 11):
        for j in range(3):
            yield BidirectedGraph(*gen.bidirected_loop_graph(rng, r, j, 1 + j % 2)).incidence_form()
        yield BidirectedGraph(*gen.tree_graph(rng, r)).incidence_form()
        yield BidirectedGraph(*gen.unbalanced_one_tree(rng, r, allow_loop=False)).incidence_form()
    for n in (1, 2, 3):
        for m in range(1, n + 2):
            for _ in range(10):
                yield BidirectedGraph(*gen.small_graph(rng, m, n)).incidence_form()


def _zero_variable_forms(rng, count):
    """Incidence forms with zero variables: connected graphs with one or two directed
    loops added, and one-vertex graphs of loops."""
    out = [loops_graph(*pst).incidence_form() for pst in ((1, 0, 0), (3, 0, 0), (2, 1, 0), (1, 1, 1), (2, 0, 2))]
    for _ in range(count):
        B = _random_graph(rng, connected=True)
        u = rng.randint(1, B.m)
        out.append(BidirectedGraph(B.m, list(B.ends) + [((u, 1), (u, -1))] * rng.randint(1, 2)).incidence_form())
    return out


def _c_prime(n):
    """C'_n: the incidence form of C_n^{n/4,n/4} with q_1 set to 1, an indefinite form of corank > 0."""
    q = canonical_c_graph(n, n // 4, n // 4).incidence_form()
    return IntegralQuadraticForm((1,) + q.diag[1:], dict(q.off))


def _indefinite_forms(rng, count):
    """`count` forms that are not non-negative and have corank > 0: a random form on
    k variables read through a random k x n integer matrix T with n > k, so the
    Gram matrix T^tr G T is singular."""
    out = []
    while len(out) < count:
        k = rng.randint(1, 5)
        n = k + rng.randint(1, 3)
        off = {(i, j): rng.randint(-3, 3) for i in range(1, k + 1) for j in range(i + 1, k + 1)}
        G = IntegralQuadraticForm([rng.randint(-1, 2) for _ in range(k)], off).gram()
        T = IntMatrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(k)])
        q = IntegralQuadraticForm.from_gram(T.transpose() @ G @ T)
        if not analyze(q).non_negative:
            out.append(q)
    return out


def test_radical_is_the_dense_integer_kernel():
    rng = random.Random(2001)
    forms = list(_generator_forms(rng))
    forms += [q for _, q in _seeded_forms(2002, 400)]
    forms += _zero_variable_forms(rng, 200)
    forms += [canonical_c_graph(n, n // 4, n // 4).incidence_form() for n in (25, 50, 100, 200)]
    seen = {"corank 0": 0, "corank 1-4": 0, "corank > 4": 0, "zero variable": 0}
    for q in forms:
        rep = analyze(q)
        assert rep.non_negative and rep.radical_basis == tuple(_reference_integer_kernel(q.gram())), q
        if rep.corank:
            seen["corank 1-4" if rep.corank <= 4 else "corank > 4"] += 1
            seen["zero variable"] += 0 in q.diag
        else:
            seen["corank 0"] += 1
    assert min(seen.values()) >= 20, seen
    # a form that is not non-negative: the rank is Bareiss's, the radical the full reduction's
    for q in _indefinite_forms(random.Random(2006), 300) + [_c_prime(n) for n in (25, 50, 100)]:
        rep, G = analyze(q), q.gram()
        assert not rep.non_negative and rep.corank and rep.positive_det is None, q
        assert rep.rank == G.rank() and rep.radical_basis == tuple(_reference_integer_kernel(G)), q


def test_analyze_builds_no_gram_matrix_for_any_form(monkeypatch):
    rng = random.Random(2003)
    forms = [q for _, q in _seeded_forms(2004, 200)] + _zero_variable_forms(rng, 50)
    forms += [canonical_c_graph(n, n // 4, n // 4).incidence_form() for n in (8, 40)]
    forms = [q for q in forms if analyze(q).non_negative and analyze(q).corank]
    assert len(forms) > 100
    forms += [IntegralQuadraticForm([1, 1], {(1, 2): 3}), _c_prime(40)] + _indefinite_forms(rng, 50)
    want = [analyze(q) for q in forms]

    def dense(*args):
        raise AssertionError("the dense Gram matrix was built or reduced")

    analyze.cache_clear()
    monkeypatch.setattr(IntegralQuadraticForm, "gram", dense)
    monkeypatch.setattr(qform, "_gram_rows", dense)
    monkeypatch.setattr(IntMatrix, "rank", dense)
    assert [analyze(q) for q in forms] == want
    assert sum(not rep.non_negative for rep in want) == 52


def test_type_c_chase_builds_a_bounded_number_of_graphs(monkeypatch):
    built = []
    trusted, init = BidirectedGraph._trusted.__func__, BidirectedGraph.__init__

    def counted_trusted(cls, m, ends):
        built.append(m)
        return trusted(cls, m, ends)

    def counted_init(self, m, ends):
        built.append(m)
        init(self, m, ends)

    monkeypatch.setattr(BidirectedGraph, "_trusted", classmethod(counted_trusted))
    monkeypatch.setattr(BidirectedGraph, "__init__", counted_init)
    counts, steps = {}, {}
    for n in (20, 100):
        q = canonical_c_graph(n, n // 4, n // 4).incidence_form()
        for f in (realize, canonical_c):
            classify._star_snapshot.cache_clear()
            built.clear()
            out = f(q)
            counts[f.__name__, n] = len(built)
        steps[n] = len(out[0].steps)
    assert steps[100] > 4 * steps[20] > 400
    # the star graph, a perm and the frozen result; canonical_c also builds its target
    assert counts["realize", 20] == counts["realize", 100] <= 3, counts
    assert counts["canonical_c", 20] == counts["canonical_c", 100] <= 4, counts
