import ast
import copy
import pickle
import random
import re
from collections import Counter
from pathlib import Path

import pytest

from bench.gen import gentle_presentation
from bidiforms import gentle
from bidiforms.bidigraph import BidirectedGraph
from bidiforms.classify import dynkin_type
from bidiforms.errors import GentlenessViolation, InvalidInput
from bidiforms.exact_linalg import IntMatrix, _row_hnf_in_place
from bidiforms.gentle import (
    EulerReport,
    GentlePresentation,
    _bigraph_components,
    _component_types,
    cartan,
    euler_pipeline,
    threads,
    validate,
)
from bidiforms.qform import IntegralQuadraticForm, analyze

EX_LOOP_PAIR = GentlePresentation(
    2, [("a", 1, 2), ("b", 2, 1)], [("a", "b")]
)
A2_QUIVER = GentlePresentation(2, [("a", 1, 2)], [])
LAMBDA_K = GentlePresentation(1, [], [])


def test_presentations_copy_and_pickle():
    for pres in (EX_LOOP_PAIR, A2_QUIVER, LAMBDA_K,
                 GentlePresentation(3, [("a", 1, 2), ("b", 2, 3), ("c", 3, 1)], [("a", "b"), ("b", "c")])):
        for twin in (copy.copy(pres), copy.deepcopy(pres), pickle.loads(pickle.dumps(pres))):
            assert twin == pres and repr(twin) == repr(pres)
            assert [twin.src(a) for a, _, _ in pres.arrows] == [pres.src(a) for a, _, _ in pres.arrows]


def test_validate_known_good():
    assert validate(EX_LOOP_PAIR) == []
    assert validate(A2_QUIVER) == []
    assert validate(LAMBDA_K) == []


def test_validate_degree_violation():
    pres = GentlePresentation(
        4,
        [("a", 1, 2), ("b", 1, 3), ("c", 1, 4)],
        [],
    )
    problems = validate(pres)
    assert any("outdegree" in p for p in problems)


@pytest.mark.parametrize(
    "m, arrows, relations, message",
    [
        (4, [("a", 1, 4), ("b", 2, 4), ("c", 3, 4)], [], "vertex 4: indegree 3 exceeds 2"),
        (4, [("a", 1, 2), ("b", 2, 3), ("c", 2, 4)], [("a", "b"), ("a", "c")],
         "arrow a: 2 relation successors"),
        (4, [("a", 1, 3), ("b", 2, 3), ("c", 3, 4)], [("a", "c"), ("b", "c")],
         "arrow c: 2 relation predecessors"),
        (4, [("a", 1, 2), ("b", 2, 3), ("c", 2, 4)], [], "arrow a: 2 permitted successors"),
        (4, [("a", 1, 3), ("b", 2, 3), ("c", 3, 4)], [], "arrow c: 2 permitted predecessors"),
        (3, [("a", 1, 2)], [], "quiver is not connected"),
    ],
)
def test_validate_names_each_violation(m, arrows, relations, message):
    assert message in validate(GentlePresentation(m, arrows, relations))


def test_validate_noncomposable_relation():
    pres = GentlePresentation(3, [("a", 1, 2), ("b", 1, 3)], [("a", "b")])
    assert any("not composable" in p for p in validate(pres))


def test_threads_loop_pair():
    permitted, forbidden, phi = threads(EX_LOOP_PAIR)
    fkeys = [(th.path, th.vertices) for th in forbidden]
    pkeys = [(th.path, th.vertices) for th in permitted]
    assert (("a", "b"), (1, 2, 1)) in fkeys
    assert ((), (2,)) in fkeys
    assert (("b", "a"), (2, 1, 2)) in pkeys
    assert ((), (1,)) in pkeys
    # phi: forbidden alpha-beta -> trivial permitted at 1, trivial at 2 -> beta-alpha
    f_ab = fkeys.index((("a", "b"), (1, 2, 1)))
    assert permitted[phi[f_ab]].is_trivial and permitted[phi[f_ab]].start == 1
    f_triv = fkeys.index(((), (2,)))
    assert permitted[phi[f_triv]].path == ("b", "a")


def test_threads_a2_quiver():
    permitted, forbidden, _ = threads(A2_QUIVER)
    assert sorted((th.path, th.vertices) for th in forbidden) == [
        ((), (1,)),
        ((), (2,)),
        (("a",), (1, 2)),
    ]
    assert sorted((th.path, th.vertices) for th in permitted) == [
        ((), (1,)),
        ((), (2,)),
        (("a",), (1, 2)),
    ]


def test_threads_lambda_k():
    permitted, forbidden, _ = threads(LAMBDA_K)
    assert [th.vertices for th in permitted] == [(1,), (1,)]
    assert [th.vertices for th in forbidden] == [(1,), (1,)]


def test_cartan_examples():
    assert cartan(EX_LOOP_PAIR).to_lists() == [[1, 1], [1, 2]]
    assert cartan(LAMBDA_K).to_lists() == [[1]]
    assert cartan(A2_QUIVER).to_lists() == [[1, 0], [1, 1]]


def test_euler_pipeline_loop_pair():
    rep = euler_pipeline(EX_LOOP_PAIR)
    assert rep.form == IntegralQuadraticForm([2, 1], {(1, 2): -2})
    assert rep.incidence.to_lists() == [[2, 0], [-1, 1]]
    B = rep.graph
    assert B.m == 2 and B.n == 2
    assert len(B.bidirected_loops()) == 1
    assert B.incidence_form() == rep.form
    assert rep.components == (((1, 2), "C2", 0),)


def test_euler_pipeline_lambda_k():
    rep = euler_pipeline(LAMBDA_K)
    assert rep.form == IntegralQuadraticForm([1])
    assert rep.graph.n == 1 and not rep.graph.is_loop(1)
    assert rep.components == (((1,), "A1", 0),)


def test_euler_pipeline_a2():
    rep = euler_pipeline(A2_QUIVER)
    assert rep.form.gram().to_lists() == [[2, -1], [-1, 2]]
    assert rep.components == (((1, 2), "A2", 0),)


def random_gentle(rng, max_vertices=6):
    """Random valid gentle presentation with finite global dimension."""
    while True:
        m = rng.randint(1, max_vertices)
        if m == 1:
            return LAMBDA_K
        indeg = {v: 0 for v in range(1, m + 1)}
        outdeg = {v: 0 for v in range(1, m + 1)}
        arrows = []

        def add(u, v):
            arrows.append((f"x{len(arrows)}", u, v))
            outdeg[u] += 1
            indeg[v] += 1

        ok = True
        for v in range(2, m + 1):
            anchors = [
                w
                for w in range(1, v)
                if outdeg[w] < 2 or indeg[w] < 2
            ]
            if not anchors:
                ok = False
                break
            w = rng.choice(anchors)
            if outdeg[w] < 2 and (indeg[w] >= 2 or rng.randrange(2) == 0):
                add(w, v)
            else:
                add(v, w)
        if not ok:
            continue
        for _ in range(rng.randint(0, 2)):
            pairs = [
                (u, v)
                for u in range(1, m + 1)
                for v in range(1, m + 1)
                if u != v and outdeg[u] < 2 and indeg[v] < 2
            ]
            if pairs:
                add(*rng.choice(pairs))
        pres0 = GentlePresentation(m, arrows, [])
        relations = []
        for v in range(1, m + 1):
            ins = [a for a, _, t in arrows if t == v]
            outs = [a for a, s, _ in arrows if s == v]
            if len(ins) == 2 and len(outs) == 2:
                if rng.randrange(2) == 0:
                    relations += [(ins[0], outs[0]), (ins[1], outs[1])]
                else:
                    relations += [(ins[0], outs[1]), (ins[1], outs[0])]
            elif len(ins) == 2 and len(outs) == 1:
                relations.append((rng.choice(ins), outs[0]))
            elif len(ins) == 1 and len(outs) == 2:
                relations.append((ins[0], rng.choice(outs)))
            elif len(ins) == 1 and len(outs) == 1 and rng.randrange(2) == 0:
                relations.append((ins[0], outs[0]))
        pres = GentlePresentation(m, arrows, relations)
        if not validate(pres):
            return pres


def test_random_presentations_identities():
    rng = random.Random(71)
    for _ in range(50):
        pres = random_gentle(rng)
        permitted, forbidden, phi = threads(pres)
        C = cartan(pres)
        for v in range(1, pres.m + 1):
            assert sum(th.vertices.count(v) for th in permitted) == 2
            assert sum(th.vertices.count(v) for th in forbidden) == 2
        for fi, th in enumerate(forbidden):
            eta = permitted[phi[fi]]
            assert C.matvec(th.floor_vector(pres.m)) == eta.ceil_vector(pres.m)
            assert eta.start == th.start
        rep = euler_pipeline(pres)
        G = rep.form.gram()
        assert (rep.incidence @ rep.incidence.transpose()) == G
        a = analyze(rep.form)
        assert a.non_negative
        for _, label, _ in rep.components:
            base = label.split("*")[-1]
            assert label == "zero" or base[0] in "ADC"
        for r in range(rep.incidence.rows):
            norm = sum(v * v for v in rep.incidence.row(r))
            assert norm in (0, 2, 4)


def test_presentation_json_round_trip():
    rng = random.Random(73)
    for _ in range(10):
        pres = random_gentle(rng, max_vertices=5)
        assert GentlePresentation.from_json_dict(pres.to_json_dict()) == pres


def test_ensure_valid_raises():
    bad = GentlePresentation(1, [("a", 1, 1)], [])
    with pytest.raises(GentlenessViolation):
        threads(bad)


def test_cartan_refuses_a_permitted_cycle_as_validation_does():
    # a: 1 -> 2, b: 2 -> 1 with no relation: the path counts diverge, one cause and one refusal
    cycle = GentlePresentation(2, [("a", 1, 2), ("b", 2, 1)], [])
    for f in (cartan, threads, euler_pipeline):
        with pytest.raises(GentlenessViolation, match="^permitted cycle: the algebra is infinite dimensional$"):
            f(cycle)


def test_unknown_arrow_in_relation():
    with pytest.raises(InvalidInput):
        GentlePresentation(2, [("a", 1, 2)], [("a", "zzz")])


class InconsistentPresentation(Exception):
    """The references' refusal of a presentation whose identities fail. The library
    asserts them, since no presentation that validates fails them."""


def _exact_inverse(M: IntMatrix):
    """Rows of M^-1 for a unimodular M: the Hermite form of [M | I] is [I | M^-1]."""
    n = M.rows
    rows = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(M.entries)]
    _row_hnf_in_place(rows)
    if any(rows[i][:n] != [int(i == j) for j in range(n)] for i in range(n)):
        raise InconsistentPresentation("Cartan matrix is not invertible over the integers")
    return [row[n:] for row in rows]


def _graph_from_incidence(I: IntMatrix) -> BidirectedGraph:
    """The graph whose incidence rows are the rows of I; a zero row is a directed loop at 1."""
    m = I.cols
    ends = []
    for r in range(I.rows):
        row = I.row(r)
        nz = [(u + 1, row[u]) for u in range(m) if row[u] != 0]
        norm2 = sum(v * v for _, v in nz)
        if norm2 == 0:
            ends.append(((1, 1), (1, -1)))
        elif norm2 == 2:
            (u, e), (u2, e2) = nz
            ends.append(((u, e), (u2, e2)))
        elif norm2 == 4 and len(nz) == 1:
            u, v = nz[0]
            s = 1 if v > 0 else -1
            ends.append(((u, s), (u, s)))
        else:
            raise InconsistentPresentation(f"row {r + 1} is not a two-endpoint row")
    return BidirectedGraph(m, ends)


def reference_component_types(q: IntegralQuadraticForm):
    """The labels and coranks of q's bigraph components from the form alone:
    `analyze` and `dynkin_type` on each, with the content split off a
    component whose diagonal is not all 1."""
    out = []
    for comp in _bigraph_components(q):
        sub = q.restrict(comp)
        scale = ""
        if any(d != 1 for d in sub.diag):  # a unit component has content 1: `dynkin_type` alone types it
            rep = analyze(sub)
            if all(d == 0 for d in sub.diag):
                out.append((tuple(comp), "zero", rep.corank))
                continue
            if not rep.irreducible:
                # one-vertex-graph components scale as q = a * qhat (loops only)
                sub = IntegralQuadraticForm(
                    [d // rep.content for d in sub.diag],
                    {k: v // rep.content for k, v in sub.off.items()},
                )
                scale = f"{rep.content}*"
        typ, crk = dynkin_type(sub)
        out.append((tuple(comp), f"{scale}{typ}", crk))
    return tuple(out)


def reference_euler_pipeline(pres: GentlePresentation) -> EulerReport:
    """The Euler form by inverting C: the Gram matrix C^-1 + C^-tr, checked
    against the dense I I^tr, and the graph decoded from the rows of I."""
    permitted, forbidden, phi = threads(pres)
    C = cartan(pres)
    n = pres.m
    Cinv = _exact_inverse(C)
    G = IntMatrix([[Cinv[j][i] + Cinv[i][j] for j in range(n)] for i in range(n)])
    if any(G[i, i] % 2 for i in range(n)):
        raise InconsistentPresentation("Euler Gram matrix has an odd diagonal entry")
    q = IntegralQuadraticForm.from_gram(G)
    cols = [th.floor_vector(n) for th in forbidden]
    I = IntMatrix([[cols[u][i] for u in range(len(cols))] for i in range(n)])
    if (I @ I.transpose()) != G:
        raise InconsistentPresentation("C^-1 + C^-tr != I I^tr")
    for fi, th in enumerate(forbidden):
        assert C.matvec(th.floor_vector(n)) == permitted[phi[fi]].ceil_vector(n)
    return EulerReport(q, C, I, _graph_from_incidence(I), reference_component_types(q))


def test_euler_pipeline_matches_the_inverse_based_reference():
    rng = random.Random(1601)
    presentations = [EX_LOOP_PAIR, A2_QUIVER, LAMBDA_K]
    for k in range(240):  # acyclic quivers from the benchmark's generator, m = 1..20
        presentations.append(GentlePresentation(*gentle_presentation(rng, 1 + k % 20)))
    presentations += [random_gentle(rng, max_vertices=8) for _ in range(120)]  # with cycles
    for pres in presentations:
        rep, ref = euler_pipeline(pres), reference_euler_pipeline(pres)
        for field in ("form", "cartan", "incidence", "graph", "components"):
            assert getattr(rep, field) == getattr(ref, field), field
        assert list(rep.form.off.items()) == list(ref.form.off.items())
        assert pickle.dumps(rep) == pickle.dumps(ref)
    assert sum(_has_oriented_cycle(pres) for pres in presentations) >= 30


def _has_oriented_cycle(pres):
    """Whether peeling off vertices without incoming arrows leaves some behind."""
    indeg = Counter(t for _, _, t in pres.arrows)
    ready = [v for v in range(1, pres.m + 1) if not indeg[v]]
    for v in ready:  # grows while it is read
        for a in pres._out.get(v, ()):
            indeg[pres.tgt(a)] -= 1
            if not indeg[pres.tgt(a)]:
                ready.append(pres.tgt(a))
    return len(ready) < pres.m


def _label_kinds(B, components):
    """The label kinds met: "zero", "2*A1", "A", "D", "C", "D3" for an A3 on 3
    graph vertices, and "split" for two components on one graph vertex."""
    kinds, owner = set(), {}
    for comp, label, _ in components:
        V = {u for i in comp for u, _ in B.ends[i - 1]}
        kinds.add(label if label in ("zero", "2*A1") else "D3" if label == "A3" and len(V) == 3 else label[0])
        if label != "zero" and any(owner.setdefault(u, comp) != comp for u in V):
            kinds.add("split")
    return kinds


def test_component_types_match_the_analysis_reference_on_random_graphs():
    rng = random.Random(3201)
    kinds = set()
    for _ in range(4000):
        m = rng.randint(1, 6)
        ends = [((rng.randint(1, m), rng.choice((1, -1))), (rng.randint(1, m), rng.choice((1, -1))))
                for _ in range(rng.randint(1, 9))]
        B = BidirectedGraph(m, ends)
        q = B.incidence_form()
        got = _component_types(B, q)
        assert got == reference_component_types(q), (m, ends)
        kinds |= _label_kinds(B, got)
    assert kinds == {"zero", "2*A1", "A", "D3", "D", "C", "split"}


def _random_quiver(rng):
    """1-10 vertices, up to 15 arrows drawn at random (oriented cycles
    included; loops and arrows past degree 2 are dropped), and each
    composable pair a relation with probability 1/2."""
    m = rng.randint(1, 10)
    arrows, degree = [], Counter()
    for _ in range(rng.randint(0, 15)):
        s, t = rng.randint(1, m), rng.randint(1, m)
        if s != t and degree["out", s] < 2 and degree["in", t] < 2:
            arrows.append((f"a{len(arrows)}", s, t))
            degree["out", s] += 1
            degree["in", t] += 1
    relations = [(a, b) for a, _, t in arrows for b, s, _ in arrows if t == s and rng.randrange(2)]
    return GentlePresentation(m, arrows, relations)


def test_every_presentation_that_validates_runs_the_pipeline():
    # the thread counts, the thread matching, the Cartan path walks and the
    # identity J J^tr = C + C^tr are asserted, not refused: validation leaves no
    # input that can fail them
    rng = random.Random(3202)
    valid, cyclic, cycles_refused = 0, 0, 0
    for _ in range(5000):
        pres = _random_quiver(rng)
        problems = validate(pres)
        if problems:
            cycles_refused += any("cycle" in p for p in problems)
            continue
        rep = euler_pipeline(pres)
        assert rep.components == reference_component_types(rep.form)
        valid += 1
        cyclic += _has_oriented_cycle(pres)
    assert valid >= 800 and cyclic >= 60 and cycles_refused >= 50


def test_gentle_types_its_forms_without_classify():
    tree = ast.parse(Path(gentle.__file__).read_text())
    relative = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level}
    absolute = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and not node.level}
    absolute |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    assert relative == {"bidigraph", "errors", "exact_linalg", "qform"}
    assert not [name for name in absolute if name.split(".")[0] == "bidiforms"]
    called = {node.func.id for node in ast.walk(tree) if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert not called & {"analyze", "dynkin_type"}


def test_exact_inverse_over_the_integers():
    rng = random.Random(2209)
    for _ in range(40):
        n = rng.randint(1, 7)
        M = IntMatrix.identity(n)
        for _ in range(3 * n):  # a product of elementary matrices: unimodular
            i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
            k = rng.choice((-2, -1, 1, 2)) if i != j else 0
            sign = -1 if rng.random() < 0.2 else 1
            rows = [list(r) for r in M.entries]
            rows[i] = [sign * (a + k * b) for a, b in zip(rows[i], rows[j])]
            M = IntMatrix(rows)
        assert M @ IntMatrix(_exact_inverse(M)) == IntMatrix.identity(n)
    # the Cartan matrix of a gentle algebra of finite global dimension is
    # unimodular; a singular one or one of determinant 2 is refused
    for bad in ([[0]], [[2, 0], [0, 1]], [[1, 1], [1, 1]], [[1, 1], [-1, 1]]):
        with pytest.raises(InconsistentPresentation):
            _exact_inverse(IntMatrix(bad))


@pytest.mark.parametrize(
    "build",
    [
        lambda: GentlePresentation(2.0, [("a", 1, 2)], []),
        lambda: GentlePresentation(2, [("a", 1, 2.5)], []),
    ],
)
def test_presentations_refuse_non_integers(build):
    with pytest.raises(InvalidInput, match="expected an integer, got"):
        build()


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: setattr(A2_QUIVER, "m", 3), AttributeError, "GentlePresentation is immutable"),
        (lambda: GentlePresentation(0, [], []), InvalidInput, "quiver needs at least one vertex"),
        (lambda: GentlePresentation(2, [("a", 1, 2), ("a", 2, 1)], []), InvalidInput,
         "arrow names must be unique"),
        (lambda: GentlePresentation(2, [("a", 1, 3)], []), InvalidInput, "arrow a endpoint out of range"),
        (lambda: A2_QUIVER.src("b"), InvalidInput, "unknown arrow 'b'"),
    ],
)
def test_presentations_refuse_malformed_input(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as refused:
        build()
    assert type(refused.value) is error


@pytest.mark.parametrize(
    "arrows, relations",
    [
        ([(None, 1, 2), ("b", 2, 3)], [("None", "b")]),
        ([(1, 1, 2), ("b", 2, 3)], [("1", "b")]),
        ([("1", 1, 2), ("b", 2, 3)], [(1, "b")]),
    ],
)
def test_presentations_refuse_non_string_names(arrows, relations):
    with pytest.raises(InvalidInput, match="arrow names must be strings, got"):
        GentlePresentation(3, arrows, relations)
