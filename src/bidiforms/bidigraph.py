"""Bidirected graphs: incidence matrices/forms, balance, transformations, switching.

An arrow has two signed endpoints (u, e), (u', e') with e, e' in {+1, -1}; its
incidence row is e*E_u + e'*E_u'. Directed arrows have opposite end signs,
bidirected ones equal signs (two-tail +, two-head -). Vertices and arrows are
1-based. Endpoint pairs are stored normalized (smaller vertex first, then
smaller sign) so graph equality is decidable.

Each graph builds, the first time it is asked, one index from each vertex that
an arrow touches to its arrows (`BidirectedGraph.adjacency`). Incident arrows,
connectivity, balance, switching equivalence and the tree paths of witness
walks all read it, the searches through the one helper `qform.traverse`,
without recursion. A vertex no arrow touches is isolated: it costs nothing
until the graph is known to be connected, except in an answer that lists
every vertex.

The steps that rewrite one arrow (Gabrielov, sign flip, endpoint rewrite)
are each written once, as a rule on the ends of the arrows involved. The
public functions build a new graph from it; `_Arrows`, the graph of the
type-C chase, applies it in place, with its vertex index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import InvalidInput, as_int, int_tuple, json_int
from .exact_linalg import IntMatrix, _size
from .qform import Bigraph, IntegralQuadraticForm, bigraph_of, traverse


def _norm_ends(ends):
    (u, e), (u2, e2) = ends
    u, e, u2, e2 = as_int(u), as_int(e), as_int(u2), as_int(e2)
    if e not in (1, -1) or e2 not in (1, -1):
        raise InvalidInput("endpoint signs must be +-1")
    if u < 1 or u2 < 1:
        raise InvalidInput("vertices are 1-based")
    if (u, e) <= (u2, e2):
        return ((u, e), (u2, e2))
    return ((u2, e2), (u, e))


class BidirectedGraph:
    """Immutable bidirected multigraph with m >= 1 vertices and n >= 1 arrows."""

    __slots__ = ("m", "ends", "_adjacency")

    def __init__(self, m: int, ends):
        m = as_int(m)
        ends = tuple(_norm_ends(e) for e in ends)
        if m < 1:
            raise InvalidInput("graph needs at least one vertex")
        if not ends:
            raise InvalidInput("graph needs at least one arrow")
        for (u, _), (u2, _) in ends:
            if u > m or u2 > m:
                raise InvalidInput("arrow endpoint out of vertex range")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "ends", ends)

    @classmethod
    def _trusted(cls, m: int, ends: tuple) -> "BidirectedGraph":
        """A graph from normalized, in-range ends derived from a valid graph, unchecked."""
        B = object.__new__(cls)
        object.__setattr__(B, "m", m)
        object.__setattr__(B, "ends", ends)
        return B

    def __setattr__(self, name, value):
        raise AttributeError("BidirectedGraph is immutable")

    def __reduce__(self):
        return (BidirectedGraph, (self.m, self.ends))

    @property
    def n(self) -> int:
        return len(self.ends)

    def __eq__(self, other):
        return (
            isinstance(other, BidirectedGraph)
            and self.m == other.m
            and self.ends == other.ends
        )

    def __hash__(self):
        return hash((self.m, self.ends))

    def __repr__(self):
        return f"BidirectedGraph(m={self.m}, ends={list(self.ends)})"

    # -- structure ---------------------------------------------------------

    def arrow_ends(self, i: int):
        i = as_int(i)
        if not (1 <= i <= self.n):
            raise InvalidInput(f"arrow index {i} out of range")
        return self.ends[i - 1]

    def underlying(self, i: int) -> tuple[int, int]:
        (u, _), (u2, _) = self.arrow_ends(i)
        return (u, u2)

    def is_loop(self, i: int) -> bool:
        u, u2 = self.underlying(i)
        return u == u2

    def sigma(self, i: int) -> int:
        """Arrow sign: +1 for directed, -1 for bidirected arrows."""
        (_, e), (_, e2) = self.arrow_ends(i)
        return -e * e2

    def is_directed_loop(self, i: int) -> bool:
        return self.is_loop(i) and self.sigma(i) == 1

    def is_bidirected_loop(self, i: int) -> bool:
        return self.is_loop(i) and self.sigma(i) == -1

    def directed_loops(self) -> list[int]:
        return [i for i in range(1, self.n + 1) if self.is_directed_loop(i)]

    def bidirected_loops(self) -> list[int]:
        return [i for i in range(1, self.n + 1) if self.is_bidirected_loop(i)]

    def adjacency(self) -> dict:
        """{v: [(w, i), ...]} for each vertex v an arrow touches: every arrow i
        at v with its other end w (w = v for a loop, listed once), smallest i
        first. Built once and cached, so callers read it and never change it."""
        try:
            return self._adjacency
        except AttributeError:
            pass
        adj = {}
        for i, ((u, _), (u2, _)) in enumerate(self.ends, start=1):
            adj.setdefault(u, []).append((u2, i))
            if u2 != u:
                adj.setdefault(u2, []).append((u, i))
        object.__setattr__(self, "_adjacency", adj)
        return adj

    def incident_arrows(self, u: int) -> list[int]:
        u = as_int(u)
        if not (1 <= u <= self.m):
            raise InvalidInput(f"vertex {u} out of range")
        return [i for _, i in self.adjacency().get(u, ())]

    def is_quiver(self) -> bool:
        return all(self.sigma(i) == 1 for i in range(1, self.n + 1))

    def is_connected(self) -> bool:
        """Connectivity; a vertex no arrow touches answers no before any search."""
        adj = self.adjacency()
        return len(adj) == self.m and len(traverse(adj, 1)[0]) == self.m

    # -- incidence ---------------------------------------------------------

    def incidence_row(self, i: int) -> tuple[int, ...]:
        row = [0] * self.m
        for (u, e) in self.arrow_ends(i):
            row[u - 1] += e
        return tuple(row)

    def incidence_matrix(self) -> IntMatrix:
        return IntMatrix([self.incidence_row(i) for i in range(1, self.n + 1)])

    def incidence_form(self) -> IntegralQuadraticForm:
        """q_B, Gram matrix I(B) I(B)^tr, read off the arrow ends.

        Each incidence row has at most two nonzero entries, so q_i = |row_i|^2 / 2
        and q_ij sums row_i[v] row_j[v] over the vertices v the arrows share.
        """
        at = {}  # per vertex an arrow touches: (arrow, row entry)
        diag = []
        for i, ((u, e), (u2, e2)) in enumerate(self.ends, start=1):
            if u == u2:
                c = e + e2  # 0 for a directed loop, +-2 for a bidirected one
                diag.append(c * c // 2)
                if c:
                    at.setdefault(u, []).append((i, c))
            else:
                diag.append(1)
                at.setdefault(u, []).append((i, e))
                at.setdefault(u2, []).append((i, e2))
        off = {}
        for arrows in at.values():
            for k, (i, c) in enumerate(arrows):
                for j, c2 in arrows[k + 1:]:
                    off[(i, j)] = off.get((i, j), 0) + c * c2
        # sorted, as `_trusted` takes it; products that cancel (parallel arrows
        # of opposite kinds) are dropped
        off = {k: v for k, v in sorted(off.items()) if v}
        return IntegralQuadraticForm._trusted(tuple(diag), off)

    def line_bigraph(self) -> Bigraph:
        """The incidence bigraph, a variant of the line signed graph."""
        return bigraph_of(self.incidence_form())

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "vertices": self.m,
            "arrows": [{"ends": [list(p) for p in ends]} for ends in self.ends],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "BidirectedGraph":
        try:
            m = json_int(data["vertices"])
            ends = []
            for a in data["arrows"]:
                (u, e), (u2, e2) = a["ends"]
                ends.append(((json_int(u), json_int(e)), (json_int(u2), json_int(e2))))
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInput(f"malformed graph JSON: {exc}") from exc
        return BidirectedGraph(m, ends)


class OrthogonalMatrix:
    """Integer orthogonal matrix as sign vector + vertex permutation (O = T P).

    Acts on signed endpoints by (u, e) . O = (perm[u], e * signs[u]).
    """

    __slots__ = ("signs", "perm")

    def __init__(self, signs, perm):
        signs = int_tuple(signs)
        perm = int_tuple(perm)
        if any(s not in (1, -1) for s in signs):
            raise InvalidInput("signs must be +-1")
        if sorted(perm) != list(range(1, len(signs) + 1)):
            raise InvalidInput("perm must be a permutation of 1..m")
        object.__setattr__(self, "signs", signs)
        object.__setattr__(self, "perm", perm)

    def __setattr__(self, name, value):
        raise AttributeError("OrthogonalMatrix is immutable")

    def __reduce__(self):
        return (OrthogonalMatrix, (self.signs, self.perm))

    @property
    def m(self) -> int:
        return len(self.signs)

    def __eq__(self, other):
        return (
            isinstance(other, OrthogonalMatrix)
            and self.signs == other.signs
            and self.perm == other.perm
        )

    def __hash__(self):
        return hash((self.signs, self.perm))

    def __repr__(self):
        return f"OrthogonalMatrix(signs={self.signs}, perm={self.perm})"

    @staticmethod
    def identity(m: int) -> "OrthogonalMatrix":
        m = _size(m)
        return OrthogonalMatrix((1,) * m, tuple(range(1, m + 1)))

    def apply_endpoint(self, u: int, e: int) -> tuple[int, int]:
        u, e = as_int(u), as_int(e)
        if not 1 <= u <= self.m:
            raise InvalidInput(f"vertex {u} out of range")
        return (self.perm[u - 1], e * self.signs[u - 1])

    def to_matrix(self) -> IntMatrix:
        m = self.m
        O = [[0] * m for _ in range(m)]
        for u in range(1, m + 1):
            O[u - 1][self.perm[u - 1] - 1] = self.signs[u - 1]
        return IntMatrix(O)

    @staticmethod
    def from_matrix(O: IntMatrix) -> "OrthogonalMatrix":
        m = O.rows
        if O.cols != m:
            raise InvalidInput("orthogonal matrix must be square")
        signs = [0] * m
        perm = [0] * m
        for u in range(m):
            nz = [c for c in range(m) if O[u, c] != 0]
            if len(nz) != 1 or O[u, nz[0]] not in (1, -1):
                raise InvalidInput("not a signed permutation matrix")
            perm[u] = nz[0] + 1
            signs[u] = O[u, nz[0]]
        if sorted(perm) != list(range(1, m + 1)):
            raise InvalidInput("not a signed permutation matrix")
        return OrthogonalMatrix(signs, perm)


def switch(B: BidirectedGraph, O: OrthogonalMatrix) -> BidirectedGraph:
    """The switching B^O; satisfies I(B^O) = I(B) O and q unchanged."""
    if O.m != B.m:
        raise InvalidInput("switching matrix size mismatch")
    return BidirectedGraph(
        B.m,
        [tuple(O.apply_endpoint(u, e) for (u, e) in ends) for ends in B.ends],
    )


def sign_flip(B: BidirectedGraph, i: int) -> BidirectedGraph:
    """Flip both endpoint signs of arrow i (form-level sign inversion T_i)."""
    i = as_int(i)
    return _with_arrow(B, i, _flipped(B.arrow_ends(i)))


def arrow_permutation(B: BidirectedGraph, pi) -> BidirectedGraph:
    """Reorder arrows: new arrow k carries the endpoints of old arrow pi(k)."""
    pi = int_tuple(pi)
    if sorted(pi) != list(range(1, B.n + 1)):
        raise InvalidInput("not a permutation of the arrow set")
    return BidirectedGraph._trusted(B.m, tuple(B.ends[p - 1] for p in pi))


def _with_arrow(B, j, ends):
    """B with the ends of arrow j, a valid index, replaced by normalized ends;
    nothing is checked again.

    The new graph builds its own vertex index when it is first asked for one.
    """
    return BidirectedGraph._trusted(B.m, B.ends[:j - 1] + (ends,) + B.ends[j:])


def graph_gabrielov(B: BidirectedGraph, i: int, j: int) -> BidirectedGraph:
    """Graph-level Gabrielov transformation: rewrite the endpoints of arrow j.

    Matches the form-level column operation E_j -> E_j - (q_ij/q_i) E_i on the
    incidence form; non-incident pairs act as the identity.
    """
    i, j = as_int(i), as_int(j)
    if i == j:
        raise InvalidInput("graph Gabrielov needs two distinct arrows")
    ends_i, ends_j = B.arrow_ends(i), B.arrow_ends(j)
    new = _gabrielov_ends(ends_i, ends_j)
    return B if new is ends_j else _with_arrow(B, j, new)  # B itself when they share no vertex


def endpoint_rewrite(B: BidirectedGraph, i: int, j: int, eps: int) -> BidirectedGraph:
    """Auxiliary non-loop-preserving rewrite of arrow j (row op row_j -= eps*row_i).

    Exactly three configurations are legal:
      * eps=+1, i and j parallel directed arrows with equal signed endpoints:
        j becomes a directed loop at the head of i;
      * eps=+1, i and j bidirected loops with equal signed endpoints:
        j becomes a directed loop there;
      * eps = e*e_u, j a bidirected loop at u and i a non-loop arrow at u with
        end sign e_u and loop sign e: j becomes a bidirected arrow along i.
    """
    i, j, eps = as_int(i), as_int(j), as_int(eps)
    if eps not in (1, -1):
        raise InvalidInput("eps must be +-1")
    if i == j:
        raise InvalidInput("endpoint rewrite needs two distinct arrows")
    return _with_arrow(B, j, _rewrite_ends(B.arrow_ends(i), B.arrow_ends(j), eps))


# the rules of the steps that rewrite one arrow: each returns its new normalized ends


def _ordered(end, end2):
    return (end, end2) if end <= end2 else (end2, end)


def _flipped(ends):
    (u, e), (u2, e2) = ends
    return _ordered((u, -e), (u2, -e2))


def _gabrielov_ends(ends_i, ends_j):
    """Arrow j after a Gabrielov step at (i, j); unchanged if the arrows share no vertex.

    With v0 the smallest shared vertex, v1 the other end of i, w1 that of j
    and sigma the sign of i: a loop j at v0 moves to v1 (a3); a j parallel
    to i swaps its two end signs (a2); else j moves its end at v0 to v1 (a1).
    Each end that moves or swaps has its sign multiplied by sigma.
    """
    (a, ea), (b, eb) = ends_i
    (c, ec), (d, ed) = ends_j
    v0 = min({a, b} & {c, d}, default=None)
    if v0 is None:
        return ends_j
    v1 = b if a == v0 else a
    n0, w1, n1 = (ec, d, ed) if c == v0 else (ed, c, ec)
    sig = -ea * eb
    if w1 == v0:  # (a3)
        return _ordered((v1, sig * n0), (v1, sig * n1))
    if w1 == v1 != v0:  # (a2)
        return _ordered((v0, sig * n1), (v1, sig * n0))
    return _ordered((v1, sig * n0), (w1, n1))  # (a1)


def _rewrite_ends(ends_i, ends_j, eps):
    """Arrow j after the rewrite row_j -= eps row_i of `endpoint_rewrite`;
    InvalidInput for a configuration outside its table."""
    (a, ea), (b, eb) = ends_i
    # j equal to a directed arrow i, or to a bidirected loop i
    if eps == 1 and ends_i == ends_j and (a != b and ea != eb or a == b and ea == eb):
        u = a if ea == -1 or a == b else b  # the head of the arrow, or the loop's vertex
        return ((u, -1), (u, 1))
    (u, el), (u2, el2) = ends_j
    if u == u2 and el == el2 and a != b and u in (a, b):  # a bidirected loop j at an end of i
        eu, v, ev = (ea, b, eb) if a == u else (eb, a, ea)
        if eps == el * eu:
            return _ordered((u, el), (v, -eps * ev))
    raise InvalidInput("endpoint rewrite: configuration not in the allowed table")


class _Arrows:
    """A graph changed in place, as `classify._Chase` holds a form: the ends of
    its arrows as a list and, per vertex v an arrow touches, column v of the
    incidence matrix on its arrows (`at[v][k]`, 0 for a directed loop).

    A Gabrielov, sign or rewrite step changes one arrow, and the index at its
    at most four ends; a perm reorders the ends and renames the arrows in the
    index, in place. `freeze` wraps the ends in a `BidirectedGraph` without
    the checks, kept until the next change.
    """

    __slots__ = ("m", "ends", "at", "_B")

    def __init__(self, B: BidirectedGraph):
        self.m, self.ends, self.at, self._B = B.m, list(B.ends), {}, B
        for k, ends in enumerate(B.ends, start=1):
            self._enter(k, ends)

    def _enter(self, k, ends):
        for v, e in ends:
            at = self.at.setdefault(v, {})
            at[k] = at.get(k, 0) + e

    def copy(self) -> "_Arrows":
        """An independent copy, changed in place apart from this one: the ends
        list and one map per vertex are copied, not indexed again."""
        new = object.__new__(_Arrows)
        new.m, new.ends, new._B = self.m, list(self.ends), self._B
        new.at = {v: dict(arrows) for v, arrows in self.at.items()}
        return new

    def freeze(self) -> BidirectedGraph:
        if self._B is None:
            self._B = BidirectedGraph._trusted(self.m, tuple(self.ends))
        return self._B

    def push(self, t) -> None:
        """Apply a tagged step in place: ("gabrielov", i, j), ("sign", i),
        ("rewrite", i, j, eps) or ("perm", pi), with valid indices."""
        tag, ends = t[0], self.ends
        if tag == "perm":
            renamed = dict(zip(t[1], range(1, len(ends) + 1)))
            ends[:] = [ends[p - 1] for p in t[1]]
            self.at = {v: {renamed[i]: s for i, s in arrows.items()} for v, arrows in self.at.items()}
            self._B = None
            return
        if tag == "sign":
            j = t[1]
            new = _flipped(ends[j - 1])
        else:
            j = t[2]
            new = (_gabrielov_ends(ends[t[1] - 1], ends[j - 1]) if tag == "gabrielov"
                   else _rewrite_ends(ends[t[1] - 1], ends[j - 1], t[3]))
        old = ends[j - 1]
        if new != old:
            for v, _ in old:
                self.at[v].pop(j, None)
            self._enter(j, new)
            ends[j - 1] = new
            self._B = None


def undo(t):
    """The tagged step that reverses t on graphs: pushing t, then undo(t), gives B back.

    Gabrielov steps and sign flips are involutions on graphs; a perm is inverted.
    """
    tag = t[0]
    if tag in ("gabrielov", "sign"):
        return t
    if tag == "perm":
        inv = [0] * len(t[1])
        for k, p in enumerate(t[1], start=1):
            inv[p - 1] = k
        return ("perm", tuple(inv))
    raise InvalidInput(f"no graph inverse for transformation {tag!r}")


# -- balance ---------------------------------------------------------------


@dataclass(frozen=True)
class BalanceReport:
    beta: int
    witness: Optional[tuple]  # negative closed walk as (v0, i1, v1, ..., il, vl)
    quiver_switch: Optional[OrthogonalMatrix]


def balance(B: BidirectedGraph) -> BalanceReport:
    """Balance flag via spanning-tree sign propagation.

    beta = 1 iff no closed walk has an odd number of bidirected arrows, in
    which case a vertex-sign switching turning B into a quiver is returned;
    otherwise a negative closed walk is returned. beta equals Null(I(B)) for
    connected B.
    """
    adj = B.adjacency()
    # a last-in-first-out search: its tree fixes the witness walk that `bg-balance` prints
    order, parent = traverse(adj, 1, lifo=True) if len(adj) == B.m else ((), None)
    if len(order) != B.m:
        raise InvalidInput("balance is defined for connected graphs")
    ends = B.ends  # read directly: B is valid, and its arrows are 1..n
    for i, ((u, e), (u2, e2)) in enumerate(ends, start=1):
        if u == u2 and e == e2:  # a bidirected loop: a negative closed walk of length 1
            return BalanceReport(0, (u, i, u), None)
    signs = {1: 1}
    for w in order[1:]:
        v, i = parent[w]
        (_, e), (_, e2) = ends[i - 1]
        signs[w] = -e * e2 * signs[v]  # sigma(i) = -e e2
    tree = {p[1] for p in parent.values() if p}
    for i, ((u, e), (u2, e2)) in enumerate(ends, start=1):
        if i in tree or u == u2:
            continue
        if signs[u] * signs[u2] != -e * e2:
            path = _tree_path(parent, u2, u)
            witness = path + (i, u2)
            return BalanceReport(0, witness, None)
    s = tuple(signs[v] for v in range(1, B.m + 1))
    O = OrthogonalMatrix(s, tuple(range(1, B.m + 1)))
    return BalanceReport(1, None, O)


def _tree_path(parent, src, dst):
    """Walk sequence (src, a, ..., dst) along spanning-tree arrows, in O(depth):
    climb from src, noting each ancestor's place in the walk, then from dst to
    the first noted ancestor."""
    seq, place = [src], {src: 0}
    v = src
    while parent[v] is not None:
        v, a = parent[v]
        seq += (a, v)
        place[v] = len(seq) - 1
    down = []  # dst, its arrow up, ..., up to the first noted ancestor
    v = dst
    while v not in place:
        down += (v, parent[v][1])
        v = parent[v][0]
    return tuple(seq[:place[v] + 1] + down[::-1])


def rank_corank(B: BidirectedGraph) -> tuple[int, int]:
    """(rk, crk) of the incidence form: rk = m - beta, crk = n - m + beta."""
    beta = balance(B).beta
    return (B.m - beta, B.n - B.m + beta)


# -- canonical families ----------------------------------------------------


def canonical_a(r: int, c: int) -> BidirectedGraph:
    """A_r^c: directed path on r+1 vertices plus c return arrows (r>=1, c>=0)."""
    r, c = as_int(r), as_int(c)
    if r < 1 or c < 0:
        raise InvalidInput("canonical_a requires r >= 1, c >= 0")
    ends = [((i, 1), (i + 1, -1)) for i in range(1, r + 1)]
    ends += [((r + 1, 1), (1, -1))] * c
    return BidirectedGraph(r + 1, ends)


def canonical_d(r: int, c: int) -> BidirectedGraph:
    """D_r^c: two-head + directed double start, directed path, c two-tail extras (r>=3)."""
    r, c = as_int(r), as_int(c)
    if r < 3 or c < 0:
        raise InvalidInput("canonical_d requires r >= 3, c >= 0")
    ends = [((1, -1), (2, -1)), ((1, 1), (2, -1))]
    ends += [((i - 1, 1), (i, -1)) for i in range(3, r + 1)]
    ends += [((r - 1, 1), (r, 1))] * c
    return BidirectedGraph(r, ends)


def canonical_c(r: int, c1: int, c2: int) -> BidirectedGraph:
    """C_r^{c1,c2}: two-head loop, directed path, c1 two-tail extras, c2 two-tail loops."""
    r, c1, c2 = as_int(r), as_int(c1), as_int(c2)
    if r < 2 or c1 < 0 or c2 < 0:
        raise InvalidInput("canonical_c requires r >= 2, c1, c2 >= 0")
    ends = [((1, -1), (1, -1))]
    ends += [((i - 1, 1), (i, -1)) for i in range(2, r + 1)]
    ends += [((r - 1, 1), (r, 1))] * c1
    ends += [((r, 1), (r, 1))] * c2
    return BidirectedGraph(r, ends)


def loops_graph(p: int, s: int, t: int) -> BidirectedGraph:
    """L^{p,s,t}: one vertex with p directed, s two-tail and t two-head loops."""
    p, s, t = as_int(p), as_int(s), as_int(t)
    if p < 0 or s < 0 or t < 0 or p + s + t < 1:
        raise InvalidInput("loops_graph requires p, s, t >= 0 with p+s+t >= 1")
    ends = [((1, 1), (1, -1))] * p + [((1, 1), (1, 1))] * s + [((1, -1), (1, -1))] * t
    return BidirectedGraph(1, ends)


# -- switching equivalence -------------------------------------------------

# the most vertices without an arrow that `switching_equivalent` maps: its
# answer lists the image and sign of every vertex
MAX_UNTOUCHED = 10**6


def switching_equivalent(
    B: BidirectedGraph, B2: BidirectedGraph
) -> Optional[OrthogonalMatrix]:
    """Some O with B^O = B2, or None if no switching exists.

    A switching keeps arrow indices, so u must go to the vertex of B2 with
    the same incident arrows, read off the two vertex indices; the
    untouched vertices are paired in ascending order, as are the
    two ends of a component of parallel arrows, and such a component is
    swapped only if its arrows fail. The sign of u is read off its first
    arrow that is not a directed loop, and is +1 where nothing forces it.
    Of all switchings from B to B2 this is the first by image, then by sign
    (+1 first), vertex by vertex; it takes O(m + n) steps besides the
    closing check B^O == B2. Graphs that touch different numbers of
    vertices are not equivalent, however many vertices they have; if more
    than `MAX_UNTOUCHED` vertices are untouched, O is too large to list and
    InvalidInput is raised.
    """
    if B.m != B2.m or B.n != B2.n:
        return None
    at, at2 = ({u: tuple(i for _, i in adj) for u, adj in G.adjacency().items()} for G in (B, B2))
    if len(at) != len(at2):
        return None
    m = B.m
    if m - len(at) > MAX_UNTOUCHED:
        raise InvalidInput(
            f"switching equivalence lists every vertex image, and more than {MAX_UNTOUCHED} "
            "vertices carry no arrow"
        )
    pools = {}  # incident arrows -> the vertices of B2 with them, largest first
    for w in sorted(at2, reverse=True):
        pools.setdefault(at2[w], []).append(w)
    perm = [0] * (m + 1)
    signs = [1] * (m + 1)
    for u in sorted(at):
        pool = pools.get(at[u])
        if not pool:
            return None
        perm[u] = pool.pop()
        signs[u] = _forced_sign(B, B2, at[u], u, perm[u])
    untouched2 = (w for w in range(1, m + 1) if w not in at2)
    for u in range(1, m + 1):
        if u not in at:
            perm[u] = next(untouched2)
    for u in sorted(at):
        (a, _), (b, _) = B.ends[at[u][0] - 1]
        u2 = b if a == u else a
        if u < u2 and at[u2] == at[u]:  # a tie: the ends of parallel arrows
            if not all(_maps_onto(B, B2, perm, signs, i) for i in at[u]):
                perm[u], perm[u2] = perm[u2], perm[u]
                signs[u] = _forced_sign(B, B2, at[u], u, perm[u])
                signs[u2] = _forced_sign(B, B2, at[u2], u2, perm[u2])
    O = OrthogonalMatrix(signs[1:], perm[1:])
    return O if switch(B, O) == B2 else None


def _forced_sign(B, B2, arrows, u, w):
    """The s with (u, e) -> (w, e s) on the first of u's `arrows` that is not a directed loop, else 1."""
    for i in arrows:
        (a, e), (b, f) = B.ends[i - 1]
        if a == b and e != f:
            continue
        e_u = e if a == u else f
        return e_u * next(g for x, g in B2.ends[i - 1] if x == w)  # w has arrow i too
    return 1


def _maps_onto(B, B2, perm, signs, i):
    return tuple(sorted((perm[u], e * signs[u]) for u, e in B.ends[i - 1])) == B2.ends[i - 1]
