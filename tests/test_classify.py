import inspect
import json
import random
import re

import pytest

from bidiforms.bidigraph import (
    BidirectedGraph,
    balance,
    canonical_a,
    canonical_c as canonical_c_graph,
    canonical_d,
)
from bidiforms.classify import (
    DynkinType,
    GTransform,
    canonical_c,
    dynkin_plus_zero,
    dynkin_type,
    dynkin_unit_form,
    first_root_with_value,
    gabrielov,
    gabrielov_update,
    one_root_count,
    pivot_saturate,
    positive_core,
    positive_roots_by_value,
    realize,
    techc_partition,
    star_realization,
)
from bidiforms.errors import (
    InvalidInput,
    NotCoxRegular,
    NotIncidenceForm,
    NotNonNegative,
    NotPositive,
    NotTypeC,
)
from bidiforms.exact_linalg import IntMatrix
from bidiforms.qform import IntegralQuadraticForm, analyze, zero_form
from tests.test_qform import Q_ALGO, q_a


def test_gabrielov_a2_inflation():
    q = q_a(2)
    q2, T = gabrielov(q, 1, 2)
    assert q2 == IntegralQuadraticForm([1, 1], {(1, 2): 1})
    assert T.matrix.to_lists() == [[1, 1], [0, 1]]


def test_gabrielov_zero_coefficient_is_identity():
    q = q_a(3)
    q2, T = gabrielov(q, 1, 3)
    assert q2 == q
    assert T.matrix == IntMatrix.identity(3)


def test_gabrielov_matches_polynomial_composition():
    rng = random.Random(41)
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
        q2, T = gabrielov(q, i, j)
        assert q2 == q.compose(T.matrix)
        assert gabrielov_update(q, i, j) == q2
        assert q2.diag == q.diag
        assert q2.coefficient(i, j) == -q.coefficient(i, j)
        done += 1


def test_positive_root_counts_of_dynkin_forms():
    expected = {
        ("A", 1): 2,
        ("A", 2): 6,
        ("A", 3): 12,
        ("A", 4): 20,
        ("D", 4): 24,
        ("D", 5): 40,
        ("E", 6): 72,
        ("E", 7): 126,
        ("E", 8): 240,
    }
    for (fam, r), count in expected.items():
        assert one_root_count(dynkin_unit_form(fam, r)) == count


def test_positive_roots_by_value_matches_brute_force():
    from bidiforms.walks import brute_force_roots

    q = q_a(3)
    roots = positive_roots_by_value(q, 2)
    assert roots[1] == brute_force_roots(q, 1, 3).vectors
    assert roots[2] == brute_force_roots(q, 2, 3).vectors


def test_dynkin_type_a3():
    typ, crk = dynkin_type(q_a(3))
    assert (typ.family, typ.rank, crk) == ("A", 3, 0)


def test_dynkin_type_algo_form():
    typ, crk = dynkin_type(Q_ALGO)
    assert (typ.family, typ.rank, crk) == ("C", 3, 1)


def test_dynkin_type_e6():
    typ, crk = dynkin_type(dynkin_unit_form("E", 6))
    assert (typ.family, typ.rank, crk) == ("E", 6, 0)


# the extended E8 form: the E8 tree on 1..8 and a dotted edge 8-9 (E8 composed with
# [I | highest root]); its radical vector has entry 2 at variable 1
Q_E8_EXTENDED = IntegralQuadraticForm(
    [1] * 9, {(1, 2): -1, (2, 3): -1, (3, 4): -1, (3, 5): -1, (5, 6): -1, (6, 7): -1, (7, 8): -1, (8, 9): 1}
)


def test_dynkin_type_extended_e8():
    # deleting variable 1 would leave an index-2 core of Gram determinant 4, typed D8
    typ, crk = dynkin_type(Q_E8_EXTENDED)
    assert (typ.family, typ.rank, crk) == ("E", 8, 1)
    X = positive_core(Q_E8_EXTENDED)
    assert 1 in X and Q_E8_EXTENDED.restrict(X).gram().det() == 1
    with pytest.raises(NotIncidenceForm):
        realize(Q_E8_EXTENDED)


def test_dynkin_type_canonical_extensions():
    for r in range(1, 7):
        for c in range(3):
            q = canonical_a(r, c).incidence_form()
            typ, crk = dynkin_type(q)
            assert (typ.family, typ.rank, crk) == ("A", r, c)
    for r in range(4, 7):
        for c in range(3):
            q = canonical_d(r, c).incidence_form()
            typ, crk = dynkin_type(q)
            assert (typ.family, typ.rank, crk) == ("D", r, c)
    for r in range(2, 7):
        for c1 in range(3):
            for c2 in range(3):
                q = canonical_c_graph(r, c1, c2).incidence_form()
                typ, crk = dynkin_type(q)
                assert (typ.family, typ.rank, crk) == ("C", r, c1 + c2)


def test_dynkin_type_rejects():
    with pytest.raises(NotNonNegative):
        dynkin_type(IntegralQuadraticForm([-1]))
    with pytest.raises(InvalidInput):
        dynkin_type(q_a(2).direct_sum(q_a(1)))  # disconnected
    # connected irreducible Cox-regular but with q_i = 3: no type in this scheme
    q = IntegralQuadraticForm([3, 1], {(1, 2): -3})
    if analyze(q).non_negative:
        with pytest.raises(NotTypeC):
            dynkin_type(q)


def test_dynkin_type_invariance_under_g_transform():
    rng = random.Random(43)
    base = [
        canonical_a(3, 1).incidence_form(),
        canonical_d(4, 0).incidence_form(),
        canonical_c_graph(3, 1, 0).incidence_form(),
        Q_ALGO,
    ]
    for q in base:
        expected = dynkin_type(q)
        cur = q
        T = GTransform.identity(q.n)
        for _ in range(6):
            i, j = rng.sample(range(1, q.n + 1), 2)
            kind = rng.randrange(10)
            if kind < 6:
                try:
                    T, cur = T.then_gabrielov(cur, i, j)
                except Exception:
                    continue
            elif kind < 8:
                T, cur = T.then_sign(cur, i)
            else:
                pi = list(range(1, q.n + 1))
                rng.shuffle(pi)
                T, cur = T.then_perm(cur, pi)
        assert cur == q.compose(T.matrix)
        got = dynkin_type(cur)
        assert got == expected
        # diagonal multiset is a G-invariant
        assert sorted(cur.diag) == sorted(q.diag)


def test_pivot_saturate_algo_example():
    q2, T = pivot_saturate(Q_ALGO, 1)
    assert T.steps == (("gabrielov", 3, 4), ("sign", 2))
    for j in range(2, 5):
        assert q2.coefficient(1, j) > 0
    assert q2.diag == Q_ALGO.diag
    assert q2 == Q_ALGO.compose(T.matrix)
    # the saturated coefficients used downstream
    assert q2.off == {(1, 2): 2, (1, 3): 2, (1, 4): 2, (2, 3): 1, (3, 4): 1}


def test_pivot_saturate_already_saturated():
    q = canonical_c_graph(2, 0, 0).incidence_form()
    qs, T = pivot_saturate(q, 1)
    # single sign inversion fixes q_12 = -2
    assert qs.coefficient(1, 2) == 2
    assert all(s[0] == "sign" for s in T.steps)


def test_pivot_saturate_postcondition_random():
    rng = random.Random(47)
    done = 0
    while done < 20:
        r = rng.randint(2, 4)
        c1, c2 = rng.randint(0, 1), rng.randint(0, 1)
        q = canonical_c_graph(r, c1, c2).incidence_form()
        # scramble by a random rigid G-transformation first
        T = GTransform.identity(q.n)
        cur = q
        for _ in range(4):
            i, j = rng.sample(range(1, q.n + 1), 2)
            try:
                T, cur = T.then_gabrielov(cur, i, j)
            except Exception:
                pass
        i0 = next(i for i in range(1, cur.n + 1) if cur.diag[i - 1] == 2)
        sat, Ts = pivot_saturate(cur, i0)
        assert all(sat.coefficient(i0, j) > 0 for j in range(1, sat.n + 1) if j != i0)
        assert sat == cur.compose(Ts.matrix)
        done += 1


def test_techc_partition_algo_example():
    sat, _ = pivot_saturate(Q_ALGO, 1)
    part = techc_partition(sat)
    assert part.u2 == (1,)
    assert part.m == 3
    assert part.groups == ((( 2,), (4,)), ((3,), ()))


def test_techc_partition_two_variables():
    q = IntegralQuadraticForm([2, 1], {(1, 2): 2})
    part = techc_partition(q)
    assert part.m == 2
    assert part.u2 == (1,)
    assert part.groups == (((2,), ()),)


def test_techc_partition_rejects_unit_form():
    with pytest.raises(InvalidInput):
        techc_partition(q_a(3))


def test_techc_partition_refuses_every_perturbed_saturated_form():
    # every coefficient of a star graph's incidence form is in {0, 1, 2, 4}, so a
    # saturated type-C form with one coefficient moved off those values is none
    from tests.test_typec_golden import SHAPES, _scrambled

    rng = random.Random(1806)
    refusals = set()
    for k in range(150):
        q = _scrambled(rng, *SHAPES[k % len(SHAPES)])
        i0 = next(i for i in range(1, q.n + 1) if q.diag[i - 1] == 2)
        if i0 != 1:
            pi = list(range(1, q.n + 1))
            pi[0], pi[i0 - 1] = i0, 1
            q = q.permuted(pi)
        sat, _ = pivot_saturate(q, 1)
        techc_partition(sat)
        diag, off = list(sat.diag), dict(sat.off)
        i, j = sorted(rng.choices(range(1, sat.n + 1), k=2))
        if i == j:
            diag[i - 1] = rng.choice((-1, 0, 3))
        else:
            off[(i, j)] = rng.choice((-1, 3, 5))
        with pytest.raises((NotTypeC, InvalidInput)) as refused:
            techc_partition(IntegralQuadraticForm(diag, off))
        why = str(refused.value)
        refusals.add((refused.type, next(w for w in WHY if w in why)))
    assert refusals == {
        (InvalidInput, "needs q_1 = 2"),
        (NotTypeC, "not in {1, 2}"),
        (NotTypeC, "fits no case"),
        (NotTypeC, "star graph"),
    }


WHY = ("needs q_1 = 2", "not in {1, 2}", "fits no case", "star graph")


def test_star_realization_round_trip():
    T, sat, B, part = star_realization(Q_ALGO)
    assert B.incidence_form() == sat
    assert sat == Q_ALGO.compose(T.matrix)
    assert len(B.bidirected_loops()) >= 1


def test_realize_algo_example():
    B = realize(Q_ALGO)
    assert B.incidence_form() == Q_ALGO
    assert B.m == 3 and B.n == 4
    assert len(B.bidirected_loops()) == 1


def test_realize_unit_forms():
    from bidiforms.bidigraph import balance

    for q in (q_a(1), q_a(3), canonical_a(4, 1).incidence_form(),
              canonical_d(4, 0).incidence_form(), canonical_d(5, 1).incidence_form()):
        B = realize(q)
        assert B.incidence_form() == q
        assert not B.bidirected_loops()  # loops appear only for type C
        # type D realizations are unbalanced with >= 4 vertices, type A balanced
        typ, _ = dynkin_type(q)
        if typ.family == "D":
            assert balance(B).beta == 0 and B.m >= 4
        else:
            assert balance(B).beta == 1


def test_realize_rejects_type_e():
    for r in (6, 7, 8):
        with pytest.raises(NotIncidenceForm):
            realize(dynkin_unit_form("E", r))


def test_realize_type_c_graphs_have_loop():
    for r, c1, c2 in [(2, 0, 0), (3, 1, 0), (4, 0, 2), (5, 1, 1)]:
        q = canonical_c_graph(r, c1, c2).incidence_form()
        B = realize(q)
        assert B.incidence_form() == q
        assert B.bidirected_loops()


def test_canonical_c_algo_example():
    T, r, c1, c2 = canonical_c(Q_ALGO)
    assert (r, c1, c2) == (3, 1, 0)
    target = canonical_c_graph(3, 1, 0).incidence_form()
    assert Q_ALGO.compose(T.matrix) == target
    # Gram congruence, stated explicitly
    assert (T.matrix.transpose() @ Q_ALGO.gram() @ T.matrix) == target.gram()


def test_canonical_c_deterministic_step_sequence():
    T, _, _, _ = canonical_c(Q_ALGO)
    assert T.steps == (
        ("gabrielov", 3, 4),
        ("sign", 2),
        ("gabrielov", 1, 4),
        ("sign", 4),
        ("perm", (1, 3, 2, 4)),
        ("gabrielov", 1, 4),
        ("gabrielov", 2, 1),
        ("gabrielov", 3, 2),
    )


def test_canonical_c_fixed_point():
    for r, c1, c2 in [(2, 0, 0), (3, 1, 0), (4, 1, 1), (2, 0, 2)]:
        q = canonical_c_graph(r, c1, c2).incidence_form()
        T, r2, c1b, c2b = canonical_c(q)
        assert (r2, c1b, c2b) == (r, c1, c2)
        assert q.compose(T.matrix) == q


def test_canonical_c_euler_form_c2():
    q = IntegralQuadraticForm([2, 1], {(1, 2): -2})
    T, r, c1, c2 = canonical_c(q)
    assert (r, c1, c2) == (2, 0, 0)


def test_canonical_c_complete_invariant():
    # two type-C forms with equal (crk, dl) land on the same canonical target
    q1 = canonical_c_graph(3, 1, 1).incidence_form()
    rng = random.Random(53)
    T = GTransform.identity(q1.n)
    cur = q1
    for _ in range(5):
        i, j = rng.sample(range(1, q1.n + 1), 2)
        try:
            T, cur = T.then_gabrielov(cur, i, j)
        except Exception:
            pass
    _, r1, a1, b1 = canonical_c(cur)
    assert (r1, a1, b1) == (3, 1, 1)


def test_dynkin_plus_zero_c_variant():
    q = canonical_c_graph(3, 0, 1).incidence_form()  # the Euclidean extension
    S, target = dynkin_plus_zero(q, "C")
    expected = canonical_c_graph(3, 0, 0).incidence_form().direct_sum(zero_form(1))
    assert target == expected
    assert q.compose(S) == expected


def test_dynkin_plus_zero_corank0():
    q = canonical_c_graph(4, 0, 0).incidence_form()
    S, target = dynkin_plus_zero(q, "C")
    assert target == q.compose(S) == canonical_c_graph(4, 0, 0).incidence_form()


def test_dynkin_plus_zero_d_variant():
    q = canonical_c_graph(4, 1, 1).incidence_form()
    S, target = dynkin_plus_zero(q, "D")
    expected = dynkin_unit_form("D", 4).direct_sum(zero_form(2))
    assert target == expected
    assert (S.transpose() @ q.gram() @ S) == expected.gram()
    with pytest.raises(InvalidInput):
        dynkin_plus_zero(canonical_c_graph(3, 0, 0).incidence_form(), "D")


def test_positive_core():
    q = canonical_c_graph(3, 1, 0).incidence_form()
    X = positive_core(q)
    sub = analyze(q.restrict(X))
    assert sub.corank == 0 and sub.connected
    assert len(X) == 3
    q2 = q_a(4)
    assert positive_core(q2) == [1, 2, 3, 4]
    q3 = canonical_a(3, 1).incidence_form()
    X3 = positive_core(q3)
    sub3 = analyze(q3.restrict(X3))
    assert sub3.corank == 0 and sub3.connected and sub3.rank == 3
    typ, _ = dynkin_type(q3.restrict(X3))
    assert (typ.family, typ.rank) == ("A", 3)


def test_first_root_with_value():
    q = q_a(4)
    for d in (0, 1, 2, 5, 29, 203, 290):
        x = first_root_with_value(q, d)
        assert x is not None and q.evaluate(x) == d


def test_gtransform_matrix_is_product_of_steps():
    # replaying the recorded steps from the starting form rebuilds the matrix
    T, _, _, _ = canonical_c(Q_ALGO)
    replay = GTransform.identity(Q_ALGO.n)
    cur = Q_ALGO
    for step in T.steps:
        if step[0] == "gabrielov":
            replay, cur = replay.then_gabrielov(cur, step[1], step[2])
        elif step[0] == "sign":
            replay, cur = replay.then_sign(cur, step[1])
        else:
            replay, cur = replay.then_perm(cur, step[1])
    assert replay.matrix == T.matrix
    assert T.matrix.det() in (1, -1)


def test_gtransform_json_round_trip():
    _, T = gabrielov(q_a(3), 1, 2)
    T, _ = T.then_sign(gabrielov_update(q_a(3), 1, 2), 3)
    blob = T.to_json_dict()
    assert GTransform.from_json_dict(blob) == T


def test_dynkin_type_str():
    assert str(DynkinType("C", 3)) == "C3"
    with pytest.raises(InvalidInput):
        DynkinType("D", 3)


# -- determinant typing against the root-count oracle -----------------------


def _root_count_type(q):
    """Dynkin type of a connected non-negative unit form from its 1-root count."""
    rep = analyze(q)
    r = rep.rank
    count = one_root_count(q.restrict(positive_core(q)))
    if count == r * (r + 1):
        fam = "A"
    elif r >= 4 and count == 2 * r * (r - 1):
        fam = "D"
    else:
        assert {6: 72, 7: 126, 8: 240}.get(r) == count
        fam = "E"
    return DynkinType(fam, r), rep.corank


def _dynkin_forms(max_rank):
    for r in range(1, max_rank + 1):
        yield dynkin_unit_form("A", r)
        if r >= 4:
            yield dynkin_unit_form("D", r)
        if r in (6, 7, 8):
            yield dynkin_unit_form("E", r)


def test_determinant_typing_matches_root_counts_on_dynkin_forms():
    for q in _dynkin_forms(12):
        assert dynkin_type(q) == _root_count_type(q)


def test_determinant_typing_matches_root_counts_after_gabrielov_steps():
    rng = random.Random(61)
    for q in _dynkin_forms(8):
        if q.n < 3:  # A1 has no step and A2 only flips its one sign
            continue
        cur = q
        for _ in range(8):
            # a step at a zero coefficient is the identity, so pick a bigraph edge
            i, j = rng.sample(rng.choice(sorted(cur.off)), 2)
            cur, _ = gabrielov(cur, i, j)
        assert cur != q
        assert dynkin_type(cur) == _root_count_type(cur) == dynkin_type(q)


def _loopless_graph(rng, m, extra, balanced):
    """Connected loop-less bidirected graph on m vertices: a switched quiver on
    a random spanning tree plus `extra` arrows; unless `balanced`, one extra
    arrow closes a negative cycle."""
    switch = [rng.choice((1, -1)) for _ in range(m + 1)]

    def arrow(u, v, directed=True):
        return ((u, switch[u]), (v, -switch[v] if directed else switch[v]))

    ends = [arrow(rng.randint(1, v - 1), v) for v in range(2, m + 1)]
    for k in range(extra):
        u, v = rng.sample(range(1, m + 1), 2)
        ends.append(arrow(u, v, directed=balanced or k > 0))
    return BidirectedGraph(m, ends)


def test_determinant_typing_matches_root_counts_on_random_graphs():
    rng = random.Random(67)
    for balanced in (True, False):
        for _ in range(12):
            m = rng.randint(2 if balanced else 3, 7)
            B = _loopless_graph(rng, m, rng.randint(0 if balanced else 1, 3), balanced)
            assert balance(B).beta == (1 if balanced else 0)
            q = B.incidence_form()
            typ, crk = dynkin_type(q)
            assert (typ, crk) == _root_count_type(q)
            # Theorem: balanced graphs give A_{m-1}, unbalanced ones D_m (A_3 when m = 3)
            fam = "A" if balanced or m == 3 else "D"
            assert typ == DynkinType(fam, m - 1 if balanced else m)


# -- G-steps as column operations equal the dense products ------------------


def _dense_step(q, step):
    n = q.n
    T = [[int(a == b) for b in range(n)] for a in range(n)]
    if step[0] == "gabrielov":
        _, i, j = step
        if q.coefficient(i, i):
            T[i - 1][j - 1] = -(q.coefficient(i, j) // q.coefficient(i, i))
    elif step[0] == "sign":
        T[step[1] - 1][step[1] - 1] = -1
    else:
        T = [[int(step[1][b] - 1 == a) for b in range(n)] for a in range(n)]
    return IntMatrix(T)


def test_then_steps_equal_dense_products():
    rng = random.Random(71)
    for q in (Q_ALGO, canonical_c_graph(4, 2, 1).incidence_form(), dynkin_unit_form("D", 6)):
        T, cur = GTransform.identity(q.n), q
        for _ in range(40):
            kind = rng.randrange(3)
            if kind == 0:
                step = ("gabrielov", *rng.sample(range(1, q.n + 1), 2))
                try:
                    T2, nxt = T.then_gabrielov(cur, step[1], step[2])
                except NotCoxRegular:
                    continue
            elif kind == 1:
                step = ("sign", rng.randint(1, q.n))
                T2, nxt = T.then_sign(cur, step[1])
            else:
                pi = list(range(1, q.n + 1))
                rng.shuffle(pi)
                step = ("perm", tuple(pi))
                T2, nxt = T.then_perm(cur, pi)
            M = _dense_step(cur, step)
            assert T2.matrix == T.matrix @ M
            assert nxt == cur.compose(M)
            assert T2.steps == T.steps + (step,)
            T, cur = T2, nxt
        assert cur == q.compose(T.matrix)


def test_then_steps_reject_bad_input():
    T = GTransform.identity(3)
    q = IntegralQuadraticForm([2, 1, 1], {(1, 2): 1})
    with pytest.raises(NotCoxRegular):
        T.then_gabrielov(q, 1, 2)
    with pytest.raises(InvalidInput):
        T.then_perm(q, (1, 1, 2))
    with pytest.raises(InvalidInput):
        T.then_perm(q, (1, 2))
    with pytest.raises(InvalidInput):
        T.then_sign(q, 4)


def test_gtransform_rejects_non_unimodular_matrices():
    with pytest.raises(InvalidInput, match="unimodular"):
        GTransform(IntMatrix([[2, 0], [0, 1]]))
    with pytest.raises(InvalidInput, match="square"):
        GTransform(IntMatrix([[1, 0, 0], [0, 1, 0]]))
    with pytest.raises(InvalidInput, match="unimodular"):
        GTransform.from_json_dict({"matrix": [[1, 1], [-1, 1]], "steps": []})
    with pytest.raises(InvalidInput, match="unimodular"):
        GTransform(IntMatrix([[1, 1], [1, 1]]), [("sign", 1)])
    with pytest.raises(InvalidInput, match="square"):
        GTransform.from_json_dict({"matrix": [[1, 0]], "steps": [{"op": "sign", "i": 1}]})


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: setattr(GTransform.identity(2), "matrix", None), AttributeError, "GTransform is immutable"),
        (lambda: GTransform.from_json_dict({"matrix": [[1]], "steps": [{"op": "swap"}]}), InvalidInput,
         "unknown step op 'swap'"),
        (lambda: GTransform.from_json_dict({"steps": []}), InvalidInput, "malformed GTransform JSON: 'matrix'"),
        (lambda: positive_core(IntegralQuadraticForm([1, 1], {(1, 2): 3})), NotNonNegative,
         "positive_core needs a non-negative form"),
        (lambda: positive_core(IntegralQuadraticForm([1, 1])), InvalidInput, "positive_core needs a connected form"),
        (lambda: positive_core(zero_form(1)), InvalidInput, "positive_core needs a form of positive rank"),
        (lambda: pivot_saturate(IntegralQuadraticForm([1, 1]), 1), InvalidInput,
         "pivot_saturate needs a connected form"),
        (lambda: pivot_saturate(IntegralQuadraticForm([2, 2], {(1, 2): 1}), 1), InvalidInput,
         "pivot_saturate needs a Cox-regular form"),
        (lambda: first_root_with_value(IntegralQuadraticForm([1, 1], {(1, 2): -2}), 1), NotPositive,
         "Gram matrix is not positive definite"),
        (lambda: dynkin_plus_zero(Q_ALGO, "B"), InvalidInput, "variant must be 'C' or 'D'"),
        (lambda: dynkin_unit_form("B", 3), InvalidInput, "no Dynkin unit form B_3"),
    ],
)
def test_classify_refusals_name_their_condition(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as refused:
        build()
    assert type(refused.value) is error


def test_a_pickled_gtransform_rebuilds_without_the_determinant(monkeypatch):
    # a pickle holds a transform the library held; unpickling C_100^{25,25}'s 150 x 150
    # Gabrielov transform through the checking constructor paid Bareiss again
    import pickle

    q = canonical_c_graph(100, 25, 25).incidence_form()
    transforms = [gabrielov(q, 1, 2)[1], canonical_c(canonical_c_graph(5, 1, 1).incidence_form())[0]]
    blobs = [pickle.dumps(T) for T in transforms]

    def refuse(self):
        raise AssertionError("determinant computed while unpickling")

    monkeypatch.setattr(IntMatrix, "det", refuse)
    for T, blob in zip(transforms, blobs):
        back = pickle.loads(blob)
        assert type(back) is GTransform and back == T and back.n == T.n
    # the constructor and the JSON reader still check M
    for build in (lambda: GTransform(IntMatrix([[2]])),
                  lambda: GTransform.from_json_dict({"matrix": [[2]], "steps": []})):
        with pytest.raises(AssertionError, match="determinant computed"):
            build()


def test_gtransform_checks_its_steps_at_the_boundary():
    # each of these was once accepted and written back out by `to_json_dict`
    identity = [[1, 0], [0, 1]]
    for steps, message in (
        ([{"op": "sign", "i": 99}, {"op": "perm", "pi": [5, 5]}], "^sign step index 99 out of range$"),
        ([{"op": "sign", "i": 0}], "^sign step index 0 out of range$"),
        ([{"op": "perm", "pi": [5, 5]}], "^not a permutation of 1..n$"),
        ([{"op": "perm", "pi": [1]}], "^not a permutation of 1..n$"),
        ([{"op": "gabrielov", "i": 1, "j": 3}], r"^index out of range: \(1, 3\)$"),
        ([{"op": "gabrielov", "i": 0, "j": 1}], r"^index out of range: \(0, 1\)$"),
        ([{"op": "gabrielov", "i": 2, "j": 2}], r"^bad off-diagonal index pair \(2, 2\)$"),
    ):
        with pytest.raises(InvalidInput, match=message):
            GTransform.from_json_dict({"matrix": identity, "steps": steps})
    for step in (("shear", 1, 2), ("sign", 3), ("perm", (2, 2))):
        with pytest.raises(InvalidInput):
            GTransform(IntMatrix.identity(2), [step])
    # a step of another shape raised ValueError, TypeError or IndexError, or was
    # read by its first letter ("sign" as the op 's')
    for step in (("gabrielov", 1), ("gabrielov", 1, 2, 3), ("sign",), ("sign", 1, 2), ("perm",),
                 ("perm", 5), (), "sign", None, 7, ["sign"], ("SIGN", 1), ((), 1), ([1], 1)):
        with pytest.raises(InvalidInput, match=r"^malformed G-step "):
            GTransform(IntMatrix.identity(3), [step])
    # an index that is not an integer is refused as every other entry point refuses it;
    # each of the last three was accepted and written out, and its JSON then refused
    for step in (("sign", "1"), ("perm", "123"), ("sign", 1.0), ("gabrielov", 1, 2.5), ("perm", (1, 2.0, 3))):
        with pytest.raises(InvalidInput, match="^expected an integer, got "):
            GTransform(IntMatrix.identity(3), [step])
    # any integer type is stored as an int: True was written out as `"i": true`
    T = GTransform(IntMatrix.identity(3), [("sign", True), ["gabrielov", 2, True], ("perm", [3, True, 2])])
    assert T.steps == (("sign", 1), ("gabrielov", 2, 1), ("perm", (3, 1, 2)))
    assert all(type(i) is int for s in T.steps for i in (s[1] if s[0] == "perm" else s[1:]))
    # the steps are checked against n alone: that they multiply to M needs the form
    steps = [{"op": "gabrielov", "i": 2, "j": 1}, {"op": "sign", "i": 2}, {"op": "perm", "pi": [2, 1]}]
    T2 = GTransform.from_json_dict({"matrix": identity, "steps": steps})
    assert T2.to_json_dict() == {"matrix": identity, "steps": steps}
    T3, q3 = GTransform.identity(3).then_gabrielov(q_a(3), 2, True)
    T3, _ = T3.then_perm(q3, (True, 3, 2))
    assert T3.steps == (("gabrielov", 2, 1), ("perm", (1, 3, 2)))
    for t in (T, T2, T3, canonical_c(canonical_c_graph(3, 1, 1).incidence_form())[0]):
        assert GTransform.from_json_dict(json.loads(json.dumps(t.to_json_dict()))) == t


def test_classify_entry_points_take_the_form_alone():
    # they once took a caller's analysis on trust: dynkin_type(A4, analyze(D4)) gave D4
    for f in (dynkin_type, positive_core, realize, star_realization):
        assert list(inspect.signature(f).parameters) == ["q"]
    assert dynkin_type(q_a(4)) == (DynkinType("A", 4), 0)


def test_library_built_transforms_compute_no_determinant(monkeypatch):
    # a product of elementary steps is unimodular by construction: only a matrix
    # from outside the library is checked
    q = q_a(3)
    T = GTransform.identity(3)
    T2, q2 = T.then_sign(q, 3)

    def build():
        return [
            gabrielov(q, 1, 2),
            T.then_gabrielov(q, 1, 2),
            T.then_sign(q, 3),
            T.then_perm(q, (2, 3, 1)),
            T2.then_gabrielov(q2, 2, 3),
            GTransform.identity(5),
        ]

    want = build()

    def det(self):
        raise AssertionError("a determinant was computed")

    monkeypatch.setattr(IntMatrix, "det", det)
    assert build() == want
    with pytest.raises(AssertionError, match="determinant"):
        GTransform(IntMatrix.identity(2))  # the constructor still checks


def test_gtransform_perm_refuses_non_integers():
    with pytest.raises(InvalidInput, match="expected an integer, got"):
        GTransform.identity(3).then_perm(q_a(3), (2.0, 1, 3))


def test_gtransform_sign_step_refuses_a_form_of_another_size():
    with pytest.raises(InvalidInput):
        GTransform.identity(3).then_sign(q_a(4), 4)


def test_gtransform_gabrielov_step_refuses_a_form_of_another_size():
    # it would return a 3 x 3 transform that records the step (1, 4)
    with pytest.raises(InvalidInput):
        GTransform.identity(3).then_gabrielov(q_a(4), 1, 4)


def test_gabrielov_step_checks_its_indices_when_q_i_is_zero():
    # each public single step refuses an index <= 0 or > n with its own message,
    # with q_i = 0 and with q_i != 0 as before: a negative index must not wrap round
    for q in (zero_form(3), q_a(3)):
        T = GTransform.identity(3)
        steps = (gabrielov_update, lambda q, i, j: T.then_gabrielov(q, i, j))
        for i, j in ((1, 99), (0, 2), (2, 0), (-1, 2), (2, -1), (-3, 1), (4, 2), (2, 4)):
            for step in steps:
                with pytest.raises(InvalidInput, match=rf"^index out of range: \({i}, {j}\)$"):
                    step(q, i, j)
        for i in (1, 2, 0, -1, -3, 4, 99):
            for step in steps:
                with pytest.raises(InvalidInput, match=rf"^bad off-diagonal index pair \({i}, {i}\)$"):
                    step(q, i, i)
            if not 1 <= i <= 3:
                with pytest.raises(InvalidInput, match=rf"^sign step index {i} out of range$"):
                    T.then_sign(q, i)
                with pytest.raises(InvalidInput, match=rf"^index out of range: \({i}, {i}\)$"):
                    pivot_saturate(q_a(3), i)
