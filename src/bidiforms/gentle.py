"""Gentle presentations: validation, threads, Cartan matrix, Euler form.

A presentation is a quiver with length-2 monomial relations; the relation
pair (a, b) always means the path a-then-b (composable: tgt(a) = src(b)).
The Euler form of a finite-global-dimension gentle algebra is realized as an
incidence form whose graph vertices are the forbidden threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bidigraph import BidirectedGraph
from .classify import dynkin_type
from .errors import (
    AmbiguousMatching,
    GentlenessViolation,
    InconsistentPresentation,
    InfiniteDimensional,
    InfiniteGlobalDimensionSuspected,
    InvalidInput,
    json_int,
)
from .exact_linalg import IntMatrix
from .qform import IntegralQuadraticForm, analyze, bigraph_of


class GentlePresentation:
    """Quiver with named arrows plus a set of length-2 relations."""

    __slots__ = ("m", "arrows", "relations")

    def __init__(self, m: int, arrows, relations):
        m = int(m)
        if m < 1:
            raise InvalidInput("quiver needs at least one vertex")
        arr = tuple((str(a), int(s), int(t)) for a, s, t in arrows)
        names = [a for a, _, _ in arr]
        if len(set(names)) != len(names):
            raise InvalidInput("arrow names must be unique")
        for a, s, t in arr:
            if not (1 <= s <= m and 1 <= t <= m):
                raise InvalidInput(f"arrow {a} endpoint out of range")
        rel = frozenset((str(a), str(b)) for a, b in relations)
        known = set(names)
        for a, b in rel:
            if a not in known or b not in known:
                raise InvalidInput(f"relation ({a}, {b}) uses unknown arrows")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "arrows", arr)
        object.__setattr__(self, "relations", rel)

    def __setattr__(self, name, value):
        raise AttributeError("GentlePresentation is immutable")

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
        for a in self.arrows:
            if a[0] == name:
                return a
        raise InvalidInput(f"unknown arrow {name!r}")

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
            relations = [tuple(p) for p in data.get("relations", [])]
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInput(f"malformed quiver JSON: {exc}") from exc
        return GentlePresentation(m, arrows, relations)


def validate(pres: GentlePresentation) -> list[str]:
    """All gentleness and finiteness conditions; one message per violation."""
    problems = []
    indeg = {v: [] for v in range(1, pres.m + 1)}
    outdeg = {v: [] for v in range(1, pres.m + 1)}
    for a, s, t in pres.arrows:
        outdeg[s].append(a)
        indeg[t].append(a)
        if s == t:
            problems.append(f"arrow {a}: loops are excluded (infinite global dimension)")
    for v in range(1, pres.m + 1):
        if len(indeg[v]) > 2:
            problems.append(f"vertex {v}: indegree {len(indeg[v])} exceeds 2")
        if len(outdeg[v]) > 2:
            problems.append(f"vertex {v}: outdegree {len(outdeg[v])} exceeds 2")
    for a, b in pres.relations:
        if pres.tgt(a) != pres.src(b):
            problems.append(f"relation ({a}, {b}): arrows are not composable")
    names = [a for a, _, _ in pres.arrows]
    for a in names:
        succ_rel = [b for b in names if (a, b) in pres.relations]
        pred_rel = [b for b in names if (b, a) in pres.relations]
        succ_ok = [
            b for b in names if pres.tgt(a) == pres.src(b) and (a, b) not in pres.relations
        ]
        pred_ok = [
            b for b in names if pres.tgt(b) == pres.src(a) and (b, a) not in pres.relations
        ]
        if len(succ_rel) > 1:
            problems.append(f"arrow {a}: {len(succ_rel)} relation successors")
        if len(pred_rel) > 1:
            problems.append(f"arrow {a}: {len(pred_rel)} relation predecessors")
        if len(succ_ok) > 1:
            problems.append(f"arrow {a}: {len(succ_ok)} permitted successors")
        if len(pred_ok) > 1:
            problems.append(f"arrow {a}: {len(pred_ok)} permitted predecessors")
    if not _quiver_connected(pres):
        problems.append("quiver is not connected")
    if problems:
        return problems
    if _has_cycle(pres, forbidden=False):
        problems.append("permitted cycle: the algebra is infinite dimensional")
    if _has_cycle(pres, forbidden=True):
        problems.append("forbidden cycle: infinite global dimension")
    if not problems:
        C = _cartan_matrix(pres)
        if C.det() not in (1, -1):
            problems.append("Cartan matrix is not unimodular")
    return problems


def ensure_valid(pres: GentlePresentation) -> None:
    problems = validate(pres)
    if problems:
        raise GentlenessViolation("; ".join(problems))


def _quiver_connected(pres) -> bool:
    if pres.m == 1:
        return True
    adj = {v: set() for v in range(1, pres.m + 1)}
    for _, s, t in pres.arrows:
        adj[s].add(t)
        adj[t].add(s)
    seen = {1}
    stack = [1]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == pres.m


def _successor_map(pres, forbidden: bool):
    names = [a for a, _, _ in pres.arrows]
    succ = {}
    for a in names:
        cands = [
            b
            for b in names
            if pres.tgt(a) == pres.src(b) and ((a, b) in pres.relations) == forbidden
        ]
        succ[a] = cands[0] if cands else None
    return succ


def _has_cycle(pres, forbidden: bool) -> bool:
    succ = _successor_map(pres, forbidden)
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
    ensure_valid(pres)
    permitted = _maximal_threads(pres, forbidden=False)
    forbidden = _maximal_threads(pres, forbidden=True)
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
    phi = _match_threads(pres, forbidden, permitted)
    return permitted, forbidden, phi


def _thread_key(th):
    return (0 if th.path else 1, th.vertices)


def _maximal_threads(pres, forbidden: bool):
    succ = _successor_map(pres, forbidden)
    pred = {}
    for a, b in succ.items():
        if b is not None:
            pred[b] = a
    out = []
    for a in succ:
        if a in pred:
            continue
        path = [a]
        while succ[path[-1]] is not None:
            path.append(succ[path[-1]])
        vertices = [pres.src(path[0])] + [pres.tgt(x) for x in path]
        kind = "forbidden" if forbidden else "permitted"
        out.append(Thread(kind, tuple(path), tuple(vertices)))
    return out


def _trivial_threads(pres, kind: str):
    out = []
    indeg = {v: [] for v in range(1, pres.m + 1)}
    outdeg = {v: [] for v in range(1, pres.m + 1)}
    for a, s, t in pres.arrows:
        outdeg[s].append(a)
        indeg[t].append(a)
    for v in range(1, pres.m + 1):
        ins, outs = indeg[v], outdeg[v]
        if len(ins) > 1 or len(outs) > 1:
            continue
        if ins and outs:
            in_relation = (ins[0], outs[0]) in pres.relations
            wanted = in_relation if kind == "forbidden" else not in_relation
            if wanted:
                out.append(Thread(kind, (), (v,)))
        elif ins or outs:
            out.append(Thread(kind, (), (v,)))
        else:
            out.append(Thread(kind, (), (v,)))
            out.append(Thread(kind, (), (v,)))
    return out


def _match_threads(pres, forbidden, permitted):
    C = _cartan_matrix(pres)
    phi = {}
    taken = [False] * len(permitted)
    for fi, th in enumerate(forbidden):
        target = C.matvec(th.floor_vector(pres.m))
        hits = [
            pi
            for pi, eta in enumerate(permitted)
            if not taken[pi]
            and eta.start == th.start
            and eta.ceil_vector(pres.m) == tuple(target)
        ]
        if not hits:
            raise AmbiguousMatching(
                f"no permitted thread matches forbidden thread {th.path or th.vertices}"
            )
        phi[fi] = hits[0]
        taken[hits[0]] = True
    return phi


def _cartan_matrix(pres) -> IntMatrix:
    n = pres.m
    succ = _successor_map(pres, forbidden=False)
    C = [[0] * n for _ in range(n)]
    for i in range(1, n + 1):
        C[i - 1][i - 1] += 1  # trivial path
        for a, s, _ in pres.arrows:
            if s != i:
                continue
            cur = a
            seen = 0
            while cur is not None:
                C[pres.tgt(cur) - 1][i - 1] += 1
                cur = succ[cur]
                seen += 1
                if seen > len(pres.arrows):
                    raise InfiniteDimensional("permitted cycle while counting paths")
    return IntMatrix(C)


def cartan(pres: GentlePresentation) -> IntMatrix:
    """Cartan matrix: C[j][i] counts relation-avoiding paths i -> j."""
    if _has_cycle(pres, forbidden=False):
        raise InfiniteDimensional("permitted cycle: path counts diverge")
    ensure_valid(pres)
    return _cartan_matrix(pres)


@dataclass(frozen=True)
class EulerReport:
    form: IntegralQuadraticForm
    cartan: IntMatrix
    incidence: IntMatrix  # n x m, columns are floor vectors of forbidden threads
    graph: BidirectedGraph
    components: tuple  # ((variables, label, corank), ...)


def euler_pipeline(pres: GentlePresentation) -> EulerReport:
    """Euler form, thread incidence matrix, bidirected graph, Dynkin data.

    Asserts the core identity C^-1 + C^-tr = I I^tr before building the graph;
    zero rows (if any) are placed as directed loops at graph vertex 1.
    """
    permitted, forbidden, phi = threads(pres)
    C = _cartan_matrix(pres)
    n = pres.m
    Cinv = _exact_inverse(C)
    gram = [
        [Cinv[j][i] + Cinv[i][j] for j in range(n)]
        for i in range(n)
    ]
    if any(v.denominator != 1 for row in gram for v in row):
        raise InconsistentPresentation("Euler Gram matrix is not integral")
    G = IntMatrix([[int(v) for v in row] for row in gram])
    if any(G[i, i] % 2 for i in range(n)):
        raise InconsistentPresentation("Euler Gram matrix has an odd diagonal entry")
    q = IntegralQuadraticForm.from_gram(G)
    cols = [th.floor_vector(n) for th in forbidden]
    I = IntMatrix([[cols[u][i] for u in range(len(cols))] for i in range(n)])
    if (I @ I.transpose()) != G:
        raise InconsistentPresentation("C^-1 + C^-tr != I I^tr")
    # verify the thread matching identity C*floor = ceil(phi(theta))
    for fi, th in enumerate(forbidden):
        eta = permitted[phi[fi]]
        assert C.matvec(th.floor_vector(n)) == eta.ceil_vector(n)
    B = _graph_from_incidence(I)
    comps = _component_types(q)
    return EulerReport(q, C, I, B, comps)


def _exact_inverse(M: IntMatrix):
    n = M.rows
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(M.entries)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise InconsistentPresentation("Cartan matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        inv = a[col][col]
        a[col] = [v / inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return [row[n:] for row in a]


def _graph_from_incidence(I: IntMatrix) -> BidirectedGraph:
    m = I.cols
    ends = []
    for r in range(I.rows):
        row = I.row(r)
        nz = [(u + 1, row[u]) for u in range(m) if row[u] != 0]
        norm2 = sum(v * v for _, v in nz)
        if norm2 == 0:
            ends.append(((1, 1), (1, -1)))  # directed loop, placement free
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
        typ, crk = dynkin_type(sub, rep)
        out.append((tuple(comp), str(typ), crk))
    return tuple(out)


def _bigraph_components(q):
    delta = bigraph_of(q)
    parent = list(range(q.n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (i, j) in delta.edges:
        if i != j:
            parent[find(i)] = find(j)
    groups = {}
    for v in range(1, q.n + 1):
        groups.setdefault(find(v), []).append(v)
    return [sorted(g) for g in groups.values()]
