"""Gentle presentations: validation, threads, Cartan matrix, Euler form.

A presentation is a quiver with length-2 monomial relations; the relation
pair (a, b) always means the path a-then-b (composable: tgt(a) = src(b)).
The Euler form of a finite-global-dimension gentle algebra is the incidence
form of its thread graph: one graph vertex per forbidden thread, and one
arrow per quiver vertex, whose two ends are the vertex's two occurrences in
the forbidden threads, each signed by the parity of its position.

Each presentation indexes its arrows by name, and by each vertex that an
arrow touches, once; a quiver with a vertex outside that index is not
connected, however many vertices it has. A pipeline
validates it once, and the successor maps and the Cartan matrix built by
validation serve the threads, their matching and the Euler form.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass

from .bidigraph import BidirectedGraph
from .classify import dynkin_type
from .errors import (
    AmbiguousMatching,
    GentlenessViolation,
    InconsistentPresentation,
    InfiniteDimensional,
    InfiniteGlobalDimensionSuspected,
    InvalidInput,
    as_int,
    json_int,
)
from .exact_linalg import IntMatrix
from .qform import IntegralQuadraticForm, analyze, form_adjacency, traverse


class GentlePresentation:
    """Quiver with named arrows plus a set of length-2 relations."""

    __slots__ = ("m", "arrows", "relations", "_by_name", "_out", "_in")

    def __init__(self, m: int, arrows, relations):
        m = as_int(m)
        if m < 1:
            raise InvalidInput("quiver needs at least one vertex")
        arr = tuple((_name(a), as_int(s), as_int(t)) for a, s, t in arrows)
        by_name = {a[0]: a for a in arr}
        if len(by_name) != len(arr):
            raise InvalidInput("arrow names must be unique")
        out_of, into = {}, {}  # vertex -> the arrows from it, resp. into it, in order
        for a, s, t in arr:
            if not (1 <= s <= m and 1 <= t <= m):
                raise InvalidInput(f"arrow {a} endpoint out of range")
            out_of.setdefault(s, []).append(a)
            into.setdefault(t, []).append(a)
        rel = frozenset((_name(a), _name(b)) for a, b in relations)
        for a, b in rel:
            if a not in by_name or b not in by_name:
                raise InvalidInput(f"relation ({a}, {b}) uses unknown arrows")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "arrows", arr)
        object.__setattr__(self, "relations", rel)
        object.__setattr__(self, "_by_name", by_name)
        object.__setattr__(self, "_out", out_of)
        object.__setattr__(self, "_in", into)

    def __setattr__(self, name, value):
        raise AttributeError("GentlePresentation is immutable")

    def __reduce__(self):
        return (GentlePresentation, (self.m, self.arrows, sorted(self.relations)))

    def __eq__(self, other):
        return (
            isinstance(other, GentlePresentation)
            and self.m == other.m
            and self.arrows == other.arrows
            and self.relations == other.relations
        )

    def __repr__(self):
        return (
            f"GentlePresentation(m={self.m}, arrows={list(self.arrows)}, "
            f"relations={sorted(self.relations)})"
        )

    def src(self, name: str) -> int:
        return self._lookup(name)[1]

    def tgt(self, name: str) -> int:
        return self._lookup(name)[2]

    def _lookup(self, name):
        try:
            return self._by_name[name]
        except KeyError:
            raise InvalidInput(f"unknown arrow {name!r}") from None

    def to_json_dict(self) -> dict:
        return {
            "vertices": self.m,
            "arrows": [{"name": a, "src": s, "tgt": t} for a, s, t in self.arrows],
            "relations": [list(pair) for pair in sorted(self.relations)],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "GentlePresentation":
        try:
            m = json_int(data["vertices"])
            arrows = [
                (a["name"], json_int(a["src"]), json_int(a["tgt"])) for a in data["arrows"]
            ]
            relations = [(a, b) for a, b in data.get("relations", [])]
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInput(f"malformed quiver JSON: {exc}") from exc
        return GentlePresentation(m, arrows, relations)


def _name(value) -> str:
    """`value` itself if it is a string; InvalidInput otherwise, as `as_int` refuses
    a non-integer, so that `null` or `1` never becomes the arrow "None" or "1"."""
    if not isinstance(value, str):
        raise InvalidInput(f"arrow names must be strings, got {value!r}")
    return value


def validate(pres: GentlePresentation) -> list[str]:
    """All gentleness and finiteness conditions; one message per violation."""
    return _validate(pres)[0]


def _validate(pres):
    """The messages of `validate`, with the (permitted, forbidden) successor
    maps and the Cartan matrix once the checks reach them, else None."""
    problems = []
    for a, s, t in pres.arrows:
        if s == t:
            problems.append(f"arrow {a}: loops are excluded (infinite global dimension)")
    for v in sorted(pres._in.keys() | pres._out.keys()):
        if len(pres._in.get(v, ())) > 2:
            problems.append(f"vertex {v}: indegree {len(pres._in[v])} exceeds 2")
        if len(pres._out.get(v, ())) > 2:
            problems.append(f"vertex {v}: outdegree {len(pres._out[v])} exceeds 2")
    succ_rel = Counter(a for a, _ in pres.relations)
    pred_rel = Counter(b for _, b in pres.relations)
    for a, b in pres.relations:
        if pres.tgt(a) != pres.src(b):
            problems.append(f"relation ({a}, {b}): arrows are not composable")
    for a, s, t in pres.arrows:
        succ_ok = sum((a, b) not in pres.relations for b in pres._out.get(t, ()))
        pred_ok = sum((b, a) not in pres.relations for b in pres._in.get(s, ()))
        if succ_rel[a] > 1:
            problems.append(f"arrow {a}: {succ_rel[a]} relation successors")
        if pred_rel[a] > 1:
            problems.append(f"arrow {a}: {pred_rel[a]} relation predecessors")
        if succ_ok > 1:
            problems.append(f"arrow {a}: {succ_ok} permitted successors")
        if pred_ok > 1:
            problems.append(f"arrow {a}: {pred_ok} permitted predecessors")
    if not _quiver_connected(pres):
        problems.append("quiver is not connected")
    if problems:
        return problems, None, None
    succ = _successor_maps(pres)
    if _has_cycle(succ[0]):
        problems.append("permitted cycle: the algebra is infinite dimensional")
    if _has_cycle(succ[1]):
        problems.append("forbidden cycle: infinite global dimension")
    if problems:
        return problems, succ, None
    C = _cartan_matrix(pres, succ[0])
    if C.det() not in (1, -1):
        problems.append("Cartan matrix is not unimodular")
    return problems, succ, C


def ensure_valid(pres: GentlePresentation):
    """GentlenessViolation unless `validate` finds nothing; then the
    (permitted, forbidden) successor maps and the Cartan matrix."""
    problems, succ, C = _validate(pres)
    if problems:
        raise GentlenessViolation("; ".join(problems))
    return succ, C


def _quiver_connected(pres) -> bool:
    """A vertex without arrows is isolated, so a quiver with one is connected
    only if it is that one vertex; else one search over the arrows decides."""
    touched = pres._out.keys() | pres._in.keys()
    if len(touched) != pres.m:
        return pres.m == 1
    adj = {v: [(pres.tgt(a), a) for a in pres._out.get(v, ())]
           + [(pres.src(a), a) for a in pres._in.get(v, ())] for v in touched}
    return len(traverse(adj, 1)[0]) == pres.m


def _successor_maps(pres):
    """(permitted, forbidden): each maps arrow a to the first arrow b out of
    tgt(a), in arrow order, with (a, b) not a relation, resp. a relation, or
    to None."""
    permitted, forbidden = {}, {}
    for a, _, t in pres.arrows:
        nxt = pres._out.get(t, ())
        permitted[a] = next((b for b in nxt if (a, b) not in pres.relations), None)
        forbidden[a] = next((b for b in nxt if (a, b) in pres.relations), None)
    return permitted, forbidden


def _has_cycle(succ) -> bool:
    for start in succ:
        a = start
        for _ in range(len(succ) + 1):
            a = succ.get(a)
            if a is None:
                break
            if a == start:
                return True
    return False


@dataclass(frozen=True)
class Thread:
    kind: str  # 'permitted' or 'forbidden'
    path: tuple  # arrow names; empty for a trivial thread
    vertices: tuple  # vertex sequence, length len(path) + 1

    @property
    def start(self) -> int:
        return self.vertices[0]

    @property
    def is_trivial(self) -> bool:
        return not self.path

    def ceil_vector(self, m: int) -> tuple:
        out = [0] * m
        for v in self.vertices:
            out[v - 1] += 1
        return tuple(out)

    def floor_vector(self, m: int) -> tuple:
        out = [0] * m
        for t, v in enumerate(self.vertices):
            out[v - 1] += (-1) ** t
        return tuple(out)


def threads(pres: GentlePresentation):
    """(permitted, forbidden, phi) with phi the forbidden-to-permitted bijection.

    Non-trivial threads are maximal chains of the permitted / relation
    successor maps; trivial ones follow the low-degree vertex rules. Every
    vertex must appear exactly twice in each list; phi solves
    C * floor(theta) = ceil(phi(theta)) with matching start vertex.
    """
    return _threads(pres, *ensure_valid(pres))[:3]


def _threads(pres, succ, C):
    """`threads` of a valid presentation with its successor maps and Cartan
    matrix, and the columns C * floor(theta) of the forbidden threads."""
    permitted = _maximal_threads(pres, succ[0], "permitted")
    forbidden = _maximal_threads(pres, succ[1], "forbidden")
    permitted += _trivial_threads(pres, "permitted")
    forbidden += _trivial_threads(pres, "forbidden")
    permitted.sort(key=_thread_key)
    forbidden.sort(key=_thread_key)
    for name, lst in (("permitted", permitted), ("forbidden", forbidden)):
        counts = {v: 0 for v in range(1, pres.m + 1)}
        for th in lst:
            for v in th.vertices:
                counts[v] += 1
        bad = {v: c for v, c in counts.items() if c != 2}
        if bad:
            raise InfiniteGlobalDimensionSuspected(
                f"vertex occurrence counts in {name} threads are {bad}, expected 2"
            )
    phi, J = _match_threads(pres, forbidden, permitted, C)
    return permitted, forbidden, phi, J


def _thread_key(th):
    return (0 if th.path else 1, th.vertices)


def _maximal_threads(pres, succ, kind: str):
    pred = set(succ.values())
    out = []
    for a in succ:
        if a in pred:
            continue
        path = [a]
        while succ[path[-1]] is not None:
            path.append(succ[path[-1]])
        vertices = [pres.src(path[0])] + [pres.tgt(x) for x in path]
        out.append(Thread(kind, tuple(path), tuple(vertices)))
    return out


def _trivial_threads(pres, kind: str):
    out = []
    for v in range(1, pres.m + 1):
        ins, outs = pres._in.get(v, ()), pres._out.get(v, ())
        if len(ins) > 1 or len(outs) > 1:
            continue
        if ins and outs:
            if ((ins[0], outs[0]) in pres.relations) == (kind == "forbidden"):
                out.append(Thread(kind, (), (v,)))
        elif ins or outs:
            out.append(Thread(kind, (), (v,)))
        else:
            out.append(Thread(kind, (), (v,)))
            out.append(Thread(kind, (), (v,)))
    return out


def _match_threads(pres, forbidden, permitted, C):
    """(phi, J): J holds the column C * floor(theta) of each forbidden thread
    theta, the alternating sum of the columns of C along theta, and phi
    matches theta to the first free permitted thread eta that starts where
    theta starts and has ceil(eta) = C * floor(theta)."""
    cols = tuple(zip(*C.entries))
    phi, J = {}, []
    free = {pi: (eta.start, eta.ceil_vector(pres.m)) for pi, eta in enumerate(permitted)}
    for fi, th in enumerate(forbidden):
        col = (0,) * pres.m
        for t, v in enumerate(th.vertices):
            col = tuple(map(operator.sub if t % 2 else operator.add, col, cols[v - 1]))
        key = (th.start, col)
        pi = next((pi for pi, k in free.items() if k == key), None)  # the first one not taken
        if pi is None:
            raise AmbiguousMatching(
                f"no permitted thread matches forbidden thread {th.path or th.vertices}"
            )
        phi[fi] = pi
        J.append(col)
        del free[pi]
    return phi, J


def _cartan_matrix(pres, succ) -> IntMatrix:
    """One trivial path at each vertex, and from each arrow a the paths along
    the permitted successor map `succ`, counted at their source and target."""
    n = pres.m
    C = [[int(i == j) for j in range(n)] for i in range(n)]
    for a, s, _ in pres.arrows:
        cur = a
        seen = 0
        while cur is not None:
            C[pres.tgt(cur) - 1][s - 1] += 1
            cur = succ[cur]
            seen += 1
            if seen > len(pres.arrows):
                raise InfiniteDimensional("permitted cycle while counting paths")
    return IntMatrix(C)


def cartan(pres: GentlePresentation) -> IntMatrix:
    """Cartan matrix: C[j][i] counts relation-avoiding paths i -> j."""
    if _has_cycle(_successor_maps(pres)[0]):
        raise InfiniteDimensional("permitted cycle: path counts diverge")
    return ensure_valid(pres)[1]


@dataclass(frozen=True)
class EulerReport:
    form: IntegralQuadraticForm
    cartan: IntMatrix
    incidence: IntMatrix  # n x m, columns are floor vectors of forbidden threads
    graph: BidirectedGraph
    components: tuple  # ((variables, label, corank), ...)


def euler_pipeline(pres: GentlePresentation) -> EulerReport:
    """Euler form, thread incidence matrix, thread graph B, Dynkin data.

    The thread matching proves C I = J, with I = I(B) the floor vectors of
    the forbidden threads as columns, and validation proves C unimodular, so
    the core identity C^-1 + C^-tr = I I^tr is checked as J J^tr = C + C^tr.
    An arrow whose two ends cancel is a directed loop at graph vertex 1.
    """
    succ, C = ensure_valid(pres)
    _, forbidden, _, J = _threads(pres, succ, C)
    S = [[-a - b for a, b in zip(row, col)] for row, col in zip(C.entries, zip(*C.entries))]
    for col in J:  # S = J J^tr - C - C^tr, over each column's nonzero entries
        nz = [(i, x) for i, x in enumerate(col) if x]
        for i, x in nz:
            for j, y in nz:
                S[i][j] += x * y
    if any(map(any, S)):
        raise InconsistentPresentation("C^-1 + C^-tr != I I^tr")
    at = [[] for _ in range(pres.m + 1)]  # quiver vertex -> its signed thread ends
    for u, th in enumerate(forbidden, start=1):
        for t, v in enumerate(th.vertices):
            at[v].append((u, -1 if t % 2 else 1))
    ends = [((1, 1), (1, -1)) if u == u2 and e != e2 else ((u, e), (u2, e2))
            for (u, e), (u2, e2) in at[1:]]
    B = BidirectedGraph(len(forbidden), ends)
    q = B.incidence_form()
    return EulerReport(q, C, B.incidence_matrix(), B, _component_types(q))


def _component_types(q: IntegralQuadraticForm):
    comps = _bigraph_components(q)
    out = []
    for comp in comps:
        sub = q.restrict(comp)
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
            typ, crk = dynkin_type(sub)
            out.append((tuple(comp), f"{rep.content}*{typ}", crk))
            continue
        typ, crk = dynkin_type(sub)
        out.append((tuple(comp), str(typ), crk))
    return tuple(out)


def _bigraph_components(q):
    """The vertex sets of the components of q's bigraph, each sorted, by smallest vertex."""
    adj = form_adjacency(q)
    comps, seen = [], set()
    for v in range(1, q.n + 1):
        if v not in seen:
            comp = traverse(adj, v)[0]
            seen.update(comp)
            comps.append(sorted(comp))
    return comps
