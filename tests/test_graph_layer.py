"""The graph layer: golden outputs, the switching oracle, round trips and long paths.

`tests/golden/graph_layer.json` holds `is_connected`, `balance` (beta, witness
walk, quiver switch), `rank_corank` and `realize` of the incidence form on
seeded bidirected graphs, and `realize` on seeded unit forms. It was written
by the code before the graphs got an arrow index and one search helper. A
refusal is recorded by its exception type. To rewrite it (only for an
intended change of output):

    PYTHONPATH=src python tests/test_graph_layer.py

`switching_equivalent` is checked against the vertex-by-vertex backtracking
it replaced, kept below as the reference. The long-path tests run with
little stack to spare, so that a recursion over vertices or arrows fails
whatever the input size.
"""

from __future__ import annotations

import json
import random
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

from bidiforms.bidigraph import (
    BidirectedGraph,
    OrthogonalMatrix,
    balance,
    rank_corank,
    switch,
    switching_equivalent,
)
from bidiforms.classify import realize
from bidiforms.errors import BidiformsError, InvalidInput
from bidiforms.qform import IntegralQuadraticForm, analyze, bigraph_of

GOLDEN = Path(__file__).resolve().parent / "golden" / "graph_layer.json"


def _random_graph(rng, m_max=6, n_max=8, connected=False):
    """Loops, parallel arrows, isolated vertices and several components all occur;
    a `connected` graph starts from a random spanning tree."""
    m = rng.randint(1, m_max)
    pairs = [(rng.randint(1, v - 1), v) for v in range(2, m + 1)] if connected else []
    while not pairs or len(pairs) < n_max and rng.random() < 0.75:
        if rng.random() < 0.2 and pairs:  # parallel to an earlier arrow
            pairs.append(rng.choice(pairs))
        else:
            u = rng.randint(1, m)
            pairs.append((u, u if rng.random() < 0.1 else rng.randint(1, m)))
    rng.shuffle(pairs)
    return BidirectedGraph(m, [((u, rng.choice((1, -1))), (v, rng.choice((1, -1)))) for u, v in pairs])


def _random_orthogonal(rng, m):
    perm = list(range(1, m + 1))
    rng.shuffle(perm)
    return OrthogonalMatrix([rng.choice((1, -1)) for _ in range(m)], perm)


def _random_unit_form(rng):
    n = rng.randint(2, 6)
    off = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if rng.random() < 0.4:
                off[(i, j)] = rng.choice((1, -1))
    return IntegralQuadraticForm([1] * n, off)


def _recorded(fn):
    try:
        return fn()
    except BidiformsError as exc:
        return {"error": type(exc).__name__}


def _balance_json(B):
    rep = balance(B)
    switch_json = None
    if rep.quiver_switch is not None:
        switch_json = {"signs": list(rep.quiver_switch.signs), "perm": list(rep.quiver_switch.perm)}
    return {"beta": rep.beta, "witness": None if rep.witness is None else list(rep.witness),
            "switch": switch_json}


def _graph_case(B):
    return {
        "graph": B.to_json_dict(),
        "is_connected": B.is_connected(),
        "balance": _recorded(lambda: _balance_json(B)),
        "rank_corank": _recorded(lambda: list(rank_corank(B))),
        "realize": _recorded(lambda: realize(B.incidence_form()).to_json_dict()),
    }


def _form_case(q):
    return {"form": q.to_json_dict(), "realize": _recorded(lambda: realize(q).to_json_dict())}


def _cases():
    rng = random.Random(60601)
    graphs = [_graph_case(_random_graph(rng, connected=k % 2 == 1)) for k in range(300)]
    forms = [_form_case(_random_unit_form(rng)) for _ in range(100)]
    return {"graphs": graphs, "forms": forms}


def test_graph_layer_matches_golden():
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    cases = json.loads(json.dumps(_cases()))
    for kind in ("graphs", "forms"):
        assert len(cases[kind]) == len(golden[kind])
        for k, (got, want) in enumerate(zip(cases[kind], golden[kind])):
            assert got == want, f"{kind} case {k}"


# -- switching equivalence against the backtracking it replaced --------------


def _reference_switching_equivalent(B, B2):
    """Backtracking over vertex images with per-arrow pruning, then sign search."""
    if B.m != B2.m or B.n != B2.n:
        return None
    m = B.m
    for i in range(1, B.n + 1):
        if B.is_loop(i) != B2.is_loop(i):
            return None
        if B.is_loop(i) and B.sigma(i) != B2.sigma(i):
            return None

    incident = [sorted(B.incident_arrows(u)) for u in range(1, m + 1)]
    incident2 = [sorted(B2.incident_arrows(u)) for u in range(1, m + 1)]

    phi = [0] * (m + 1)  # vertex image, 0 = unassigned
    used = [False] * (m + 1)

    def consistent(u, w):
        return incident[u - 1] == incident2[w - 1]

    def arrows_ok():
        for i in range(1, B.n + 1):
            a, b = B.underlying(i)
            c, d = B2.underlying(i)
            if phi[a] and phi[b]:
                if {phi[a], phi[b]} != {c, d}:
                    return False
        return True

    def assign(u):
        if u > m:
            return _reference_solve_signs(B, B2, phi)
        for w in range(1, m + 1):
            if used[w] or not consistent(u, w):
                continue
            phi[u] = w
            used[w] = True
            if arrows_ok():
                res = assign(u + 1)
                if res is not None:
                    return res
            phi[u] = 0
            used[w] = False
        return None

    return assign(1)


def _reference_solve_signs(B, B2, phi):
    m = B.m
    perm = tuple(phi[1:])
    signs = {}

    def feasible():
        for i in range(1, B.n + 1):
            ends = B.arrow_ends(i)
            target = B2.arrow_ends(i)
            if all(u in signs for (u, _) in ends):
                mapped = tuple(sorted((phi[u], e * signs[u]) for (u, e) in ends))
                if mapped != tuple(sorted(target)):
                    return False
        return True

    def rec(u):
        if u > m:
            O = OrthogonalMatrix(tuple(signs[v] for v in range(1, m + 1)), perm)
            return O if switch(B, O) == B2 else None
        for s in (1, -1):
            signs[u] = s
            if feasible():
                res = rec(u + 1)
                if res is not None:
                    return res
            del signs[u]
        return None

    return rec(1)


def _pieces_graph(rng):
    """A disjoint union of two-vertex components of parallel arrows, isolated
    vertices and a random piece, with the vertices shuffled: the ties of the search."""
    ends, m = [], 0
    for _ in range(rng.randint(1, 2)):
        m += 2
        for _ in range(rng.randint(1, 3)):
            ends.append(((m - 1, rng.choice((1, -1))), (m, rng.choice((1, -1)))))
    m += rng.randint(0, 2)  # isolated vertices
    rest = _random_graph(rng, m_max=3, n_max=3)
    ends += [((u + m, e), (v + m, f)) for (u, e), (v, f) in rest.ends]
    m += rest.m
    rng.shuffle(ends)
    relabel = list(range(1, m + 1))
    rng.shuffle(relabel)
    return BidirectedGraph(m, [((relabel[u - 1], e), (relabel[v - 1], f)) for (u, e), (v, f) in ends])


def _disturbed(rng, B):
    """B with one arrow's end signs or ends redrawn: usually no switching of B."""
    ends = list(B.ends)
    k = rng.randrange(len(ends))
    (u, e), (v, f) = ends[k]
    if rng.random() < 0.5:
        ends[k] = ((u, -e), (v, f))
    else:
        ends[k] = ((rng.randint(1, B.m), e), (v, f))
    return BidirectedGraph(B.m, ends)


def test_switching_equivalent_matches_the_backtracking():
    rng = random.Random(61)
    found = refused = 0
    for k in range(6000):
        B = _pieces_graph(rng) if k % 3 == 0 else _random_graph(rng)
        kind = k % 4
        if kind == 0:
            B2 = switch(B, _random_orthogonal(rng, B.m))
        elif kind == 1:
            B2 = _disturbed(rng, switch(B, _random_orthogonal(rng, B.m)))
        elif kind == 2:
            B2 = _random_graph(rng)
        else:
            B2 = B
        want = _reference_switching_equivalent(B, B2)
        got = switching_equivalent(B, B2)
        assert got == want, (B, B2)
        if want is None:
            refused += 1
        else:
            found += 1
    assert found > 2500 and refused > 1500


def test_switching_equivalent_swaps_a_tied_pair_only_when_its_arrows_fail():
    # vertices 1, 2 tie (both carry arrows 1 and 2); the ascending pairing
    # maps the arrows onto the wrong ends, so 1 -> 2 and 2 -> 1
    B = BidirectedGraph(3, [((1, 1), (2, 1)), ((1, 1), (2, -1)), ((3, 1), (3, -1))])
    B2 = BidirectedGraph(3, [((1, 1), (2, 1)), ((1, -1), (2, 1)), ((3, 1), (3, -1))])
    O = switching_equivalent(B, B2)
    assert O == OrthogonalMatrix((1, 1, 1), (2, 1, 3))
    assert switch(B, O) == B2
    assert switching_equivalent(B, B) == OrthogonalMatrix.identity(3)


# -- incident arrows -----------------------------------------------------------


def test_incident_arrows_lists_each_arrow_once_in_ascending_order():
    B = BidirectedGraph(3, [((2, 1), (3, -1)), ((1, 1), (1, 1)), ((1, 1), (2, -1)), ((2, 1), (1, -1))])
    assert B.incident_arrows(1) == [2, 3, 4]
    assert B.incident_arrows(2) == [1, 3, 4]
    assert B.incident_arrows(3) == [1]


@pytest.mark.parametrize("u", [0, -1, 4])
def test_incident_arrows_rejects_a_vertex_out_of_range(u):
    B = BidirectedGraph(3, [((1, 1), (2, -1)), ((2, 1), (3, -1))])
    with pytest.raises(InvalidInput):
        B.incident_arrows(u)


# -- realize(B.incidence_form()) round trip -------------------------------------


def test_realize_round_trips_incidence_forms_of_connected_graphs():
    rng = random.Random(62)
    realized = refused = 0
    while realized + refused < 400:
        B = _random_graph(rng, connected=True)
        q = B.incidence_form()
        rep = analyze(q)
        if rep.connected and rep.irreducible:
            assert realize(q).incidence_form() == q
            realized += 1
        else:
            with pytest.raises(InvalidInput):
                realize(q)
            refused += 1
    assert realized > 100 and refused > 20


def test_realize_refuses_a_connected_graph_with_a_disconnected_form():
    # q_12 = (+1)(+1) + (-1)(+1) = 0: the graph is connected, the form's bigraph is not
    B = BidirectedGraph(2, [((1, 1), (2, -1)), ((1, 1), (2, 1))])
    assert B.is_connected()
    assert B.incidence_form() == IntegralQuadraticForm([1, 1])
    with pytest.raises(InvalidInput):
        realize(B.incidence_form())


# -- long paths, with little stack to spare ----------------------------------------


@contextmanager
def _shallow_stack(frames=200):
    """Allow at most `frames` Python frames beyond the caller's own depth."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def _long_path(rng, n):
    return BidirectedGraph(
        n + 1, [((i, rng.choice((1, -1))), (i + 1, rng.choice((1, -1)))) for i in range(1, n + 1)]
    )


def test_switching_equivalent_on_a_long_path():
    rng = random.Random(63)
    B = _long_path(rng, 10_000)
    O = _random_orthogonal(rng, B.m)
    B2 = switch(B, O)
    with _shallow_stack():
        # every vertex of a path carries an arrow, so O is the only switching
        assert switching_equivalent(B, B2) == O


def test_balance_and_rank_corank_on_a_long_path():
    rng = random.Random(64)
    B = _long_path(rng, 4000)
    q = B.incidence_form()
    with _shallow_stack():
        assert B.is_connected()
        assert bigraph_of(q).is_connected()
        assert balance(B).beta == 1
        assert rank_corank(B) == (4000, 0)
        # close the path into a cycle with an odd number of bidirected arrows
        sigma = 1
        for (_, e), (_, f) in B.ends:
            sigma *= -e * f
        cycle = BidirectedGraph(B.m, B.ends + (((1, 1), (B.m, sigma)),))
        rep = balance(cycle)
        assert rep.beta == 0 and len(rep.witness) == 2 * 4001 + 1
        assert rank_corank(cycle) == (4001, 0)


if __name__ == "__main__":
    cases = _cases()
    with open(GOLDEN, "w") as fh:
        fh.write("{\n")
        for kind in ("graphs", "forms"):
            end = ",\n" if kind == "graphs" else "\n"
            fh.write(f'"{kind}": [\n' + ",\n".join(json.dumps(c, sort_keys=True) for c in cases[kind]) + "\n]" + end)
        fh.write("}\n")
