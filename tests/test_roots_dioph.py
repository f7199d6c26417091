import json
import random
import re
import time
from fractions import Fraction
from itertools import islice, product
from math import isqrt

import pytest

from bench import gen
from bidiforms import roots_dioph
from bidiforms.bidigraph import BidirectedGraph, canonical_a, canonical_c as canonical_c_graph
from bidiforms.classify import canonical_c, dynkin_unit_form
from bidiforms.cli import run
from bidiforms.errors import InvalidInput, NotRepresented, NotTypeC, RadicalRoot, UnrepresentedWithinBound
from bidiforms.exact_linalg import IntMatrix
from bidiforms.qform import IntegralQuadraticForm, _box_roots, analyze, zero_form
from bidiforms.roots_dioph import (
    LAGRANGE_BRIDGE,
    RootSystemReport,
    companion,
    four_squares,
    reflect,
    root_system_report,
    solve,
    walk_polarization,
)
from bidiforms.walks import PositiveRoots, Walk, roots_positive
from tests.test_acceptance import criterion_9_graphs
from tests.test_bidigraph import B_3V, random_connected
from tests.test_qform import Q_C4, q_a
from tests.test_typec_golden import _scrambled
from tests.test_walks import random_walk


def test_reflect_basics():
    q = q_a(3)
    x = (1, 0, 0)
    assert reflect(q, x, x) == (-1, 0, 0)
    assert reflect(q, x, (1, 1, 0)) == (0, 1, 0)


def test_reflect_involution_random():
    rng = random.Random(61)
    q = q_a(4)
    for _ in range(30):
        x = tuple(rng.randint(-2, 2) for _ in range(4))
        if q.evaluate(x) == 0:
            continue
        y = tuple(rng.randint(-3, 3) for _ in range(4))
        img = reflect(q, x, y)
        if isinstance(img[0], int):
            assert reflect(q, x, img) == y


def _reference_reflect(q, x, y):
    """s_x(y) over Fractions, as `reflect` computed it before it divided ints."""
    coef = Fraction(2 * q.polarize(y, x), q.polarize(x, x))
    image = tuple(Fraction(b) - coef * a for a, b in zip(x, y))
    if all(v.denominator == 1 for v in image):
        return tuple(int(v) for v in image)
    return image


def test_reflect_matches_the_fraction_reference():
    rng = random.Random(62)
    kinds = {int: 0, Fraction: 0}
    for _ in range(3000):
        n = rng.randint(1, 5)
        diag = [rng.randint(-3, 3) for _ in range(n)]
        off = {(i, j): rng.randint(-4, 4) for i in range(1, n + 1) for j in range(i + 1, n + 1)}
        q = IntegralQuadraticForm(diag, off)
        x = tuple(rng.randint(-3, 3) for _ in range(n))
        y = tuple(rng.randint(-9, 9) for _ in range(n))
        if q.polarize(x, x) == 0:
            with pytest.raises(RadicalRoot):
                reflect(q, x, y)
            continue
        got, want = reflect(q, x, y), _reference_reflect(q, x, y)
        assert got == want and list(map(type, got)) == list(map(type, want))
        kinds[type(got[0])] += 1
    assert min(kinds.values()) > 500


def test_reflect_radical_error():
    with pytest.raises(RadicalRoot):
        reflect(zero_form(2), (1, 0), (0, 1))


def test_reflect_non_integral_reported():
    q = IntegralQuadraticForm([2, 1], {(1, 2): -2})
    img = reflect(q, (1, 1), (0, 1))
    # q(x) = 1 at x=(1,1); image may be fractional for non-roots elsewhere
    assert isinstance(img, tuple)


def test_companion_intertwining():
    rng = random.Random(63)
    B = B_3V
    q = B.incidence_form()
    I_t = B.incidence_matrix().transpose()
    roots = [v for v in roots_positive(B).vectors if any(v)]
    for x in roots:
        O = companion(B, x).companion
        for k in range(B.n):
            e = tuple(1 if t == k else 0 for t in range(B.n))
            sx_e = reflect(q, x, e)
            assert I_t.matvec(sx_e) == O.matvec(I_t.matvec(e))


def test_companion_rejects_radical_vector():
    B = canonical_a(2, 1)  # corank 1
    with pytest.raises(RadicalRoot):
        companion(B, (1, 1, 1))  # radical direction of the cycle quiver


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: companion(B_3V, (3, 0, 0)), InvalidInput, "vector is not an incidence root"),  # q = 9
        # q = 2 with four image entries +-1: the norm passes, but there is no integer companion
        pytest.param(lambda: companion(canonical_a(4, 0), (1, 0, 1, 0)), InvalidInput,
                     "vector is not an incidence root", id="companion-path-four-unit-entries"),
        pytest.param(lambda: companion(BidirectedGraph(4, [((1, 1), (2, -1)), ((3, 1), (4, -1))]), (1, 1)),
                     InvalidInput, "vector is not an incidence root", id="companion-two-arrows-four-unit-entries"),
        (lambda: walk_polarization(B_3V, Walk(canonical_a(2, 0), 1), Walk(B_3V, 1)), InvalidInput,
         "walks must live on the given graph"),
        (lambda: four_squares(-1), InvalidInput, "four_squares needs d >= 0"),
    ],
)
def test_roots_dioph_refuses_malformed_input(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as refused:
        build()
    assert type(refused.value) is error


def test_root_system_tree():
    for n in range(1, 6):
        rep = root_system_report(canonical_a(n, 0))
        assert rep.is_root_system
        assert rep.family == "A"
        assert rep.nonzero_count == n * n + n


def test_root_system_one_tree():
    rep = root_system_report(B_3V)
    assert rep.is_root_system
    assert rep.family == "C"
    assert rep.nonzero_count == 2 * 9
    for r in (2, 3, 4):
        repc = root_system_report(canonical_c_graph(r, 0, 0))
        assert repc.is_root_system and repc.family == "C"
        assert repc.nonzero_count == 2 * r * r


def test_root_system_single_arrow():
    rep = root_system_report(canonical_a(1, 0))
    assert rep.is_root_system and rep.family == "A" and rep.nonzero_count == 2


def _reference_root_system_report(B):
    """The axiom loop `root_system_report` ran before the I^tr certificate:
    spanning rank, +-1 multiples only, integral Cartan numbers, closure under
    all R^2 reflections, then the root count of the family."""
    q = B.incidence_form()
    rep = roots_positive(B)  # raises NotPositive when not a tree / 1-tree
    roots = sorted(v for v in rep.vectors if any(v))
    n = B.n
    span = IntMatrix(roots)
    if span.rank() != n:
        return RootSystemReport(False, "?", n, len(roots))
    rootset = set(roots)
    for x in roots:
        for a in (2, 3):
            if tuple(a * c for c in x) in rootset:
                return RootSystemReport(False, "?", n, len(roots))
    for x in roots:
        qxx = q.polarize(x, x)
        for y in roots:
            if (2 * q.polarize(y, x)) % qxx != 0:
                return RootSystemReport(False, "?", n, len(roots))
            img = reflect(q, x, y)
            if not isinstance(img[0], int) or tuple(img) not in rootset:
                return RootSystemReport(False, "?", n, len(roots))
    if B.m == n + 1:
        family = "A"
        expected = n * n + n
    else:
        family = "C"
        expected = 2 * n * n
    ok = len(roots) == expected
    if family == "C":
        ok = ok and sum(1 for x in roots if q.evaluate(x) == 2) == 2 * n
    return RootSystemReport(ok, family, n, len(roots))


def test_root_system_certificate_matches_the_axiom_loop():
    graphs = [B for B, _ in criterion_9_graphs()]
    rng = random.Random(917)
    for n in range(1, 9):
        for _ in range(2):
            graphs.append(BidirectedGraph(*gen.tree_graph(rng, n)))
            if n == 1:
                graphs.append(BidirectedGraph(1, [((1, rng.choice((1, -1))),) * 2]))
            else:  # a bidirected loop, a parallel pair or a longer negative cycle
                graphs.append(BidirectedGraph(*gen.unbalanced_one_tree(rng, n)))
    for B in graphs:
        assert root_system_report(B) == _reference_root_system_report(B), B


def test_root_system_certificate_reflects_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("the certificate reflects or takes a rank")

    monkeypatch.setattr(roots_dioph, "reflect", refuse)
    monkeypatch.setattr(IntMatrix, "rank", refuse)
    assert root_system_report(canonical_a(6, 0)) == RootSystemReport(True, "A", 6, 42)
    assert root_system_report(canonical_c_graph(6, 0, 0)) == RootSystemReport(True, "C", 6, 72)


def test_root_system_certificate_refuses_a_corrupted_root_set(monkeypatch):
    # one +-x pair dropped, or a doubled root 2x added: the certificate answers
    # as the axiom loop does, with no family
    for B in (canonical_a(4, 0), canonical_c_graph(4, 0, 0), B_3V):
        rep = roots_positive(B)
        x = max(rep.vectors)
        for vectors in (rep.vectors - {x, tuple(-c for c in x)}, rep.vectors | {tuple(2 * c for c in x)}):
            corrupted = PositiveRoots(vectors, rep.value_counts)
            monkeypatch.setattr(roots_dioph, "roots_positive", lambda B: corrupted)
            monkeypatch.setitem(globals(), "roots_positive", lambda B: corrupted)
            want = RootSystemReport(False, "?", B.n, len(vectors) - 1)
            assert root_system_report(B) == want
            assert _reference_root_system_report(B) == want
            monkeypatch.undo()


def test_walk_polarization_matches_algebra():
    rng = random.Random(65)
    checked = 0
    while checked < 60:
        B = random_connected(rng, m=3, n=3)
        q = B.incidence_form()
        w1 = random_walk(rng, B, max_len=5)
        w2 = random_walk(rng, B, max_len=5)
        assert walk_polarization(B, w1, w2) == q.polarize(w1.inc(), w2.inc())
        checked += 1


def test_walk_polarization_table_cells():
    B = canonical_a(3, 0)
    w_12 = Walk.parse_text(B, "1 1 2")
    w_13 = Walk.parse_text(B, "1 1 2 2 3")
    w_34 = Walk.parse_text(B, "3 3 4")
    # common start, distinct ends, both signs +1 -> 1
    assert walk_polarization(B, w_12, w_13) == 1
    # disjoint endpoint sets -> 0
    assert walk_polarization(B, w_12, w_34) == 0
    # w with itself (open) -> 2
    assert walk_polarization(B, w_12, w_12) == 2


def test_walk_sum_bound():
    rng = random.Random(67)
    B = canonical_c_graph(4, 0, 0)
    q = B.incidence_form()
    ones = [v for v in roots_positive(B).vectors if q.evaluate(v) == 1]
    for _ in range(30):
        k = rng.randint(1, 5)
        pick = [rng.choice(ones) for _ in range(k)]
        total = tuple(sum(c) for c in zip(*pick))
        assert q.evaluate(total) <= k * k


def test_four_squares():
    for d in list(range(0, 50)) + [203, 290, 300]:
        a, b, c, e = four_squares(d)
        assert a * a + b * b + c * c + e * e == d


def _reference_four_squares(d):
    """The descending search before remainders of the form 4^k (8m + 7) were skipped."""
    for a in range(isqrt(d), -1, -1):
        r1 = d - a * a
        for b in range(min(a, isqrt(r1)), -1, -1):
            r2 = r1 - b * b
            for c in range(min(b, isqrt(r2)), -1, -1):
                e2 = r2 - c * c
                e = isqrt(e2)
                if e * e == e2 and e <= c:
                    return (a, b, c, e)
    raise AssertionError("four-square decomposition always exists")


def test_four_squares_matches_the_full_scan():
    rng = random.Random(3203)
    for d in list(range(3000)) + [rng.randrange(10**9) for _ in range(300)]:
        assert four_squares(d) == _reference_four_squares(d), d


def test_four_squares_skips_remainders_that_three_squares_miss():
    # at a = isqrt(d) the remainder d - a^2 is 4^k (8m + 7) for both, and the
    # full scan searched every (b, c) under it: seconds on the first, minutes
    # on the second
    for d, first in ((17154141955770544, 130973820), (1161299557388857025833026630211, 1077636096921801)):
        start = time.perf_counter()
        a, b, c, e = four_squares(d)
        assert time.perf_counter() - start < 1
        assert a * a + b * b + c * c + e * e == d and a >= b >= c >= e >= 0
        assert a == first


def test_lagrange_bridge_identity():
    # q_{C4} composed with the bridge is the Lagrange form, det = 2
    G = Q_C4.gram()
    lhs = LAGRANGE_BRIDGE.transpose() @ G @ LAGRANGE_BRIDGE
    assert lhs == IntMatrix([[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]])
    assert LAGRANGE_BRIDGE.det() == 2


def test_solve_zero():
    rep = solve(q_a(4), 0)
    assert rep.x == (0, 0, 0, 0) and rep.strategy == "zero"


def test_solve_c4_known_value():
    rep = solve(Q_C4, 14)
    assert Q_C4.evaluate(rep.x) == 14
    assert rep.strategy == "canonical-C4"


def test_solve_a4():
    q = q_a(4)
    for d in (1, 2, 7, 203, 290):
        rep = solve(q, d)
        assert q.evaluate(rep.x) == d
        assert rep.strategy == "canonical-D4-search"


def test_solve_small_form_brute():
    q = q_a(2)
    rep = solve(q, 3)
    assert q.evaluate(rep.x) == 3
    assert rep.strategy == "brute-force"


def test_solve_falls_back_to_the_box_when_a_non_unit_form_is_not_type_c():
    # non-negative, connected, irreducible and of rank 5, but not fully regular:
    # canonical_c refuses it, and the route falls through to the box search
    q = IntegralQuadraticForm([1, 1, 1, 1, 2], {(i, i + 1): -1 for i in range(1, 5)})
    rep = analyze(q)
    assert rep.non_negative and rep.connected and rep.irreducible and rep.rank == 5
    assert not rep.unit and not rep.fully_regular
    with pytest.raises(NotTypeC):
        canonical_c(q)
    roots_dioph._route.cache_clear()
    rep = solve(q, 7)
    assert rep.strategy == "brute-force" and q.evaluate(rep.x) == 7


def test_solve_unrepresented_within_bound():
    # A_2 is positive but not universal; 2 is representable, some values not
    q = IntegralQuadraticForm([1])  # q(x) = x^2 cannot represent 2
    with pytest.raises(UnrepresentedWithinBound):
        solve(q, 2, bound=3)


def test_solve_rejects_d_outside_the_content_lattice():
    # every value of 2(x1^2 + ... + x5^2) is even: no box search for odd d
    q = IntegralQuadraticForm([2] * 5)
    for d in (1, 3, 301):
        with pytest.raises(UnrepresentedWithinBound):
            solve(q, d)
    assert q.evaluate(solve(q, 6).x) == 6
    with pytest.raises(UnrepresentedWithinBound):
        solve(zero_form(2), 1)


def test_certified_refusals_name_no_bound(monkeypatch, tmp_path, capsys):
    # a d outside the content lattice, the zero form included, is refused before any search
    for q, d in ((IntegralQuadraticForm([2] * 5), 3), (IntegralQuadraticForm([3, 6], {(1, 2): 3}), 7),
                 (zero_form(2), 1), (zero_form(1), 5)):
        with pytest.raises(NotRepresented) as info:
            solve(q, d, bound=9)
        assert isinstance(info.value, UnrepresentedWithinBound) and info.value.bound is None
        assert info.value.d == d and "bound" not in str(info.value)
        assert str(info.value) == f"{d} is not represented: q(x) = {d} has no integer solution"
    # the D4 search refuses only after it has enumerated the whole core
    q = dynkin_unit_form("D", 5)
    roots_dioph._route.cache_clear()
    assert solve(q, 3).strategy == "canonical-D4-search"
    monkeypatch.setattr(roots_dioph, "first_root_with_value", lambda core, d: None)
    with pytest.raises(NotRepresented) as info:
        solve(q, 3)
    assert info.value.d == 3 and info.value.bound is None and "bound" not in str(info.value)
    # the box ladder keeps its bounded refusal
    with pytest.raises(UnrepresentedWithinBound) as info:
        solve(IntegralQuadraticForm([1]), 2)
    assert not isinstance(info.value, NotRepresented) and info.value.bound == 56
    # the CLI prints the certified refusal and exits 1
    path = tmp_path / "twice5.json"
    path.write_text(json.dumps(IntegralQuadraticForm([2] * 5).to_json_dict()))
    assert run(["qf-solve", str(path), "-d", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: 3 is not represented: q(x) = 3 has no integer solution\n"


def test_solve_brute_force_stops_at_the_point_budget():
    # content 1, yet 3(x1^2 + ... + x5^2) + x6^2 = 2 has no solution: x6^2 is never 2 mod 3
    q = IntegralQuadraticForm([3] * 5 + [1])
    with pytest.raises(UnrepresentedWithinBound) as info:
        solve(q, 2)
    assert info.value.bound == 0  # the first box, 15^6 points, already exceeds the budget


def test_solve_brute_force_reports_the_last_complete_box(monkeypatch):
    q = IntegralQuadraticForm([3] * 5 + [1])
    # boxes of bound 1 and 2 hold 3^6 + 5^6 = 16354 points; bound 4 would need 9^6 more
    monkeypatch.setattr(roots_dioph, "BOX_POINT_BUDGET", 20000)
    with pytest.raises(UnrepresentedWithinBound) as info:
        solve(q, 2, bound=1)
    assert info.value.bound == 2
    # the budget is spent to the last point: 66 > q on the box of bound 2, so its
    # first hit sits at place p of the box of bound 4, after the 16354 points before it
    p, hit = next((p, x) for p, x in enumerate(_reference_box_iter(6, 4)) if q.evaluate(x) == 66)
    monkeypatch.setattr(roots_dioph, "BOX_POINT_BUDGET", 16354 + p + 1)
    assert solve(q, 66, bound=1).x == hit
    monkeypatch.setattr(roots_dioph, "BOX_POINT_BUDGET", 16354 + p)
    with pytest.raises(UnrepresentedWithinBound) as info:
        solve(q, 66, bound=1)
    assert info.value.bound == 2
    # four complete boxes, as before the budget: bounds 7, 14, 28, 56 for x^2 = 2
    with pytest.raises(UnrepresentedWithinBound) as info:
        solve(IntegralQuadraticForm([1]), 2)
    assert info.value.bound == 56


def test_solve_negative_d_rejected():
    with pytest.raises(InvalidInput):
        solve(q_a(4), -1)


def test_solve_negative_bound_rejected():
    for q in (q_a(2), Q_C4, q_a(4)):  # brute force, canonical C4, core search
        with pytest.raises(InvalidInput, match="bound must be >= 0"):
            solve(q, 3, bound=-1)
    # a bound of 0 is allowed: the first box is |x_i| <= max(bound, 1)
    assert solve(q_a(2), 3, bound=0) == solve(q_a(2), 3, bound=1)


# -- one route per form: the C4 table against the n x n matvec it replaced --------


def _reference_c4_x(M, d):
    """x = M (LAGRANGE_BRIDGE z, 0, ..., 0) by two full matvecs, M the canonical_c matrix."""
    a, b, c, e = four_squares(d)
    y = LAGRANGE_BRIDGE.matvec((a, -b, c, e)) + (0,) * (M.rows - 4)
    return M.matvec(y)


def test_c4_route_matches_the_matvec_reference():
    rng = random.Random(9101)
    for r in range(4, 11):
        for _ in range(2):
            q = _scrambled(rng, r, rng.randint(0, 2), rng.randint(0, 2))
            M = canonical_c(q)[0].matrix
            for d in [*range(1, 301), 10**30 + 3]:
                rep = solve(q, d)
                assert rep.strategy == "canonical-C4"
                assert rep.x == _reference_c4_x(M, d), (q, d)


def test_warm_requests_do_no_route_work(monkeypatch):
    # a route rebuilt per request would reach one of the patched functions
    forms = (_scrambled(random.Random(9102), 6, 1, 1), q_a(6))
    first = [solve(q, 97) for q in forms]
    assert [rep.strategy for rep in first] == ["canonical-C4", "canonical-D4-search"]

    def refuse(*args, **kwargs):
        raise AssertionError("route work on a warm request")

    monkeypatch.setattr(roots_dioph, "canonical_c", refuse)
    monkeypatch.setattr(roots_dioph, "positive_core", refuse)
    monkeypatch.setattr(IntMatrix, "matvec", refuse)
    monkeypatch.setattr(IntMatrix, "__matmul__", refuse)
    for q, rep in zip(forms, first):
        assert solve(q, 97) == rep
        assert q.evaluate(solve(q, 98).x) == 98


def test_c4_value_table():
    # sixteen evaluations of the running C_4 example
    table = [
        ((0, 1, 0, 0), 1),
        ((-1, 0, 0, 0), 2),
        ((0, 2, 1, 0), 3),
        ((0, 2, 0, 0), 4),
        ((-1, 1, 0, 0), 5),
        ((0, 3, 2, 1), 6),
        ((0, 3, 1, 0), 7),
        ((-2, 0, 0, 0), 8),
        ((0, 3, 0, 0), 9),
        ((-1, 2, 0, 0), 10),
        ((0, 4, 2, 1), 11),
        ((0, 4, 2, 0), 12),
        ((0, 4, 1, 0), 13),
        ((-1, 3, 2, 1), 14),
        ((-1, 3, 1, 0), 15),
        ((0, 4, 0, 0), 16),
    ]
    for x, d in table:
        assert Q_C4.evaluate(x) == d
    # and the bridged Lagrange witness for 14
    z = (2, -3, 0, 1)
    assert Q_C4.evaluate(LAGRANGE_BRIDGE.matvec(z)) == 14


# -- the box kernel against the `evaluate` loop it replaced --------------------------


def _reference_box_iter(n, bound):
    values = sorted(range(-bound, bound + 1), key=lambda v: (abs(v), -v))
    return product(values, repeat=n)


def _reference_solve_brute(q, d, bound, budget):
    """The box ladder before the kernel, one `evaluate` per box point in box order:
    (x, points charged before x) or (("refused", bound), None)."""
    start = bound if bound is not None else isqrt(16 * d) + 2
    b = max(1, start)
    searched = spent = 0
    for _ in range(4):
        for p, x in enumerate(islice(_reference_box_iter(q.n, b), budget)):
            if q.evaluate(x) == d:
                return x, spent + p
        budget -= (2 * b + 1) ** q.n
        spent += (2 * b + 1) ** q.n
        if budget < 0:
            break
        searched = b
        b *= 2
    return ("refused", searched), None


def _kernel_forms(seed, count):
    """Forms on 1..4 variables with positive, zero, negative and mixed diagonals."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 4)
        lo, hi = rng.choice([(1, 3), (0, 1), (-2, 0), (-2, 3)])
        diag = [rng.randint(lo, hi) for _ in range(n)]
        off = {(i, j): rng.randint(-3, 3) for i in range(1, n + 1) for j in range(i + 1, n + 1)
               if rng.random() < 0.6}
        yield IntegralQuadraticForm(diag, off)


def test_box_kernel_matches_the_evaluate_loop():
    zero_last = negative = 0
    for q in _kernel_forms(8101, 200):
        zero_last += q.diag[-1] == 0
        negative += min(q.diag) < 0
        for bound in (0, 1, 2):
            box = list(_reference_box_iter(q.n, bound))
            for d in range(-4, 8):
                want = [x for x in box if q.evaluate(x) == d]
                assert list(_box_roots(q, d, bound)) == want
                for limit in (1, 2, len(box) // 3, len(box) - 1):
                    assert list(_box_roots(q, d, bound, limit)) == [
                        x for x in box[:limit] if q.evaluate(x) == d
                    ]
    assert zero_last > 30 and negative > 60


def test_solve_brute_matches_the_evaluate_loop(monkeypatch):
    cases = at_hit = 0
    for q in _kernel_forms(8102, 120):
        for bound in (None, 1, 2):
            for d in range(1, 8):
                budgets = [1, 7, 60, 400]
                _, spent = _reference_solve_brute(q, d, bound, 400)
                if spent is not None:  # the hit sits at ladder place p: budgets p and p + 1
                    budgets += [spent, spent + 1]
                    at_hit += 1
                for budget in budgets:
                    monkeypatch.setattr(roots_dioph, "BOX_POINT_BUDGET", budget)
                    try:
                        got = roots_dioph._solve_brute(q, d, bound).x
                    except UnrepresentedWithinBound as exc:
                        got = ("refused", exc.bound)
                    assert got == _reference_solve_brute(q, d, bound, budget)[0], (q, d, bound, budget)
                    cases += 1
    assert cases > 10000 and at_hit > 300


def test_box_search_needs_no_memory_for_a_wide_box():
    # a box of bound 10^12 is never listed, and the budget stops it in its first block
    q = IntegralQuadraticForm([1, 1, 1])
    with pytest.raises(UnrepresentedWithinBound) as info:
        solve(q, 7, bound=10**12)
    assert info.value.bound == 0
    with pytest.raises(UnrepresentedWithinBound) as info:
        solve(IntegralQuadraticForm([1, 1]), 3, bound=4 * 10**6)
    assert info.value.bound == 0
    # x_2 = 10^5 sits at place 2 * 10^5 - 1 of the first block, inside the budget
    assert solve(IntegralQuadraticForm([1, 1]), 10**10, bound=4 * 10**12).x == (0, 10**5)
