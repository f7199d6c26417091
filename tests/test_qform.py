import json
import random

import pytest

from bidiforms.errors import InvalidInput
from bidiforms.exact_linalg import integer_kernel
from bidiforms.qform import (
    IntegralQuadraticForm,
    analyze,
    bigraph_of,
    form_of,
    zero_form,
)


def q_a(r):
    """Unit form of the Dynkin path A_r."""
    return IntegralQuadraticForm([1] * r, {(i, i + 1): -1 for i in range(1, r)})


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
        assert rep.radical_basis == tuple(integer_kernel(q.gram()))
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
    from bidiforms.bidigraph import canonical_c as canonical_c_graph

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
