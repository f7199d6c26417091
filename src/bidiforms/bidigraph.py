"""Bidirected graphs: incidence matrices/forms, balance, transformations, switching.

An arrow has two signed endpoints (u, e), (u', e') with e, e' in {+1, -1}; its
incidence row is e*E_u + e'*E_u'. Directed arrows have opposite end signs,
bidirected ones equal signs (two-tail +, two-head -). Vertices and arrows are
1-based. Endpoint pairs are stored normalized (smaller vertex first, then
smaller sign) so graph equality is decidable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import InvalidInput, json_int
from .exact_linalg import IntMatrix, integer_kernel
from .qform import Bigraph, IntegralQuadraticForm, bigraph_of


def _norm_ends(ends):
    (u, e), (u2, e2) = ends
    u, e, u2, e2 = int(u), int(e), int(u2), int(e2)
    if e not in (1, -1) or e2 not in (1, -1):
        raise InvalidInput("endpoint signs must be +-1")
    if u < 1 or u2 < 1:
        raise InvalidInput("vertices are 1-based")
    if (u, e) <= (u2, e2):
        return ((u, e), (u2, e2))
    return ((u2, e2), (u, e))


class BidirectedGraph:
    """Immutable bidirected multigraph with m >= 1 vertices and n >= 1 arrows."""

    __slots__ = ("m", "ends")

    def __init__(self, m: int, ends):
        m = int(m)
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

    def __setattr__(self, name, value):
        raise AttributeError("BidirectedGraph is immutable")

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

    def incident_arrows(self, u: int) -> list[int]:
        return [i for i in range(1, self.n + 1) if u in self.underlying(i)]

    def is_quiver(self) -> bool:
        return all(self.sigma(i) == 1 for i in range(1, self.n + 1))

    def is_connected(self) -> bool:
        adj = {v: set() for v in range(1, self.m + 1)}
        for i in range(1, self.n + 1):
            u, u2 = self.underlying(i)
            adj[u].add(u2)
            adj[u2].add(u)
        seen = {1}
        stack = [1]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.m

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
        at = [[] for _ in range(self.m + 1)]  # per vertex: (arrow, row entry)
        diag = []
        for i, ((u, e), (u2, e2)) in enumerate(self.ends, start=1):
            if u == u2:
                c = e + e2  # 0 for a directed loop, +-2 for a bidirected one
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
        # sorted, so `off` iterates in the same order as `from_gram` builds it
        return IntegralQuadraticForm(diag, dict(sorted(off.items())))

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
        signs = tuple(int(s) for s in signs)
        perm = tuple(int(p) for p in perm)
        if any(s not in (1, -1) for s in signs):
            raise InvalidInput("signs must be +-1")
        if sorted(perm) != list(range(1, len(signs) + 1)):
            raise InvalidInput("perm must be a permutation of 1..m")
        object.__setattr__(self, "signs", signs)
        object.__setattr__(self, "perm", perm)

    def __setattr__(self, name, value):
        raise AttributeError("OrthogonalMatrix is immutable")

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
        return OrthogonalMatrix((1,) * m, tuple(range(1, m + 1)))

    def apply_endpoint(self, u: int, e: int) -> tuple[int, int]:
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
    ends = list(B.ends)
    (u, e), (u2, e2) = B.arrow_ends(i)
    ends[i - 1] = ((u, -e), (u2, -e2))
    return BidirectedGraph(B.m, ends)


def arrow_permutation(B: BidirectedGraph, pi) -> BidirectedGraph:
    """Reorder arrows: new arrow k carries the endpoints of old arrow pi(k)."""
    pi = tuple(int(p) for p in pi)
    if sorted(pi) != list(range(1, B.n + 1)):
        raise InvalidInput("not a permutation of the arrow set")
    return BidirectedGraph(B.m, [B.ends[p - 1] for p in pi])


def _oriented_at(B, i, shared):
    """Endpoints of arrow i written as ((shared, e0), (other, e1))."""
    (a, ea), (b, eb) = B.arrow_ends(i)
    if a == shared:
        return (a, ea), (b, eb)
    return (b, eb), (a, ea)


def graph_gabrielov(B: BidirectedGraph, i: int, j: int) -> BidirectedGraph:
    """Graph-level Gabrielov transformation: rewrite the endpoints of arrow j.

    Matches the form-level column operation E_j -> E_j - (q_ij/q_i) E_i on the
    incidence form; non-incident pairs act as the identity.
    """
    if i == j:
        raise InvalidInput("graph Gabrielov needs two distinct arrows")
    si = set(B.underlying(i))
    sj = set(B.underlying(j))
    shared = sorted(si & sj)
    if not shared:
        return B
    v0 = shared[0]
    (_, e0), (v1, _) = _oriented_at(B, i, v0)
    (_, n0), (w1, n1) = _oriented_at(B, j, v0)
    sig = B.sigma(i)
    ends = list(B.ends)
    if w1 == v0:
        # (a3): j is a loop at the shared vertex; move it to v1
        ends[j - 1] = ((v1, sig * n0), (v1, sig * n1))
    elif w1 == v1 and v1 != v0:
        # (a2): i and j parallel between v0 and v1
        ends[j - 1] = ((v0, sig * n1), (v1, sig * n0))
    else:
        # (a1): transfer j's end at the shared vertex to the other end of i
        ends[j - 1] = ((v1, sig * n0), (w1, n1))
    return BidirectedGraph(B.m, ends)


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
    if eps not in (1, -1):
        raise InvalidInput("eps must be +-1")
    if i == j:
        raise InvalidInput("endpoint rewrite needs two distinct arrows")
    ei = B.arrow_ends(i)
    ej = B.arrow_ends(j)
    ends = list(B.ends)
    if eps == 1 and ei == ej and not B.is_loop(i) and B.sigma(i) == 1:
        head = next(u for (u, e) in ei if e == -1)
        ends[j - 1] = ((head, 1), (head, -1))
        return BidirectedGraph(B.m, ends)
    if eps == 1 and ei == ej and B.is_bidirected_loop(i):
        u = B.underlying(i)[0]
        ends[j - 1] = ((u, 1), (u, -1))
        return BidirectedGraph(B.m, ends)
    if B.is_bidirected_loop(j) and not B.is_loop(i):
        u = B.underlying(j)[0]
        if u in B.underlying(i):
            (_, eu), (v, ev) = _oriented_at(B, i, u)
            (_, eloop), _ = ej
            if eps == eloop * eu:
                ends[j - 1] = ((u, eloop), (v, -eps * ev))
                return BidirectedGraph(B.m, ends)
    raise InvalidInput("endpoint rewrite: configuration not in the allowed table")


def rewrite_matrix(n: int, i: int, j: int, eps: int) -> IntMatrix:
    """Form-level matrix of the endpoint rewrite: E_j -> E_j - eps E_i."""
    S = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
    S[i - 1][j - 1] = -eps
    return IntMatrix(S)


def apply(B: BidirectedGraph, t) -> BidirectedGraph:
    """Dispatch an elementary transformation given as a tagged tuple."""
    tag = t[0]
    if tag == "gabrielov":
        return graph_gabrielov(B, t[1], t[2])
    if tag == "sign":
        return sign_flip(B, t[1])
    if tag == "perm":
        return arrow_permutation(B, t[1])
    if tag == "rewrite":
        return endpoint_rewrite(B, t[1], t[2], t[3])
    if tag == "switch":
        return switch(B, t[1])
    raise InvalidInput(f"unknown transformation {tag!r}")


def undo(t):
    """The tagged step that reverses t on graphs: apply(apply(B, t), undo(t)) == B.

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
    if not B.is_connected():
        raise InvalidInput("balance is defined for connected graphs")
    loops = B.bidirected_loops()
    if loops:
        i = loops[0]
        u = B.underlying(i)[0]
        return BalanceReport(0, (u, i, u), None)
    signs = {1: 1}
    parent = {1: None}  # vertex -> (prev_vertex, arrow)
    order = [1]
    stack = [1]
    tree = set()
    while stack:
        v = stack.pop()
        for i in range(1, B.n + 1):
            u, u2 = B.underlying(i)
            if v not in (u, u2) or u == u2:
                continue
            w = u2 if v == u else u
            if w not in signs:
                signs[w] = B.sigma(i) * signs[v]
                parent[w] = (v, i)
                tree.add(i)
                order.append(w)
                stack.append(w)
    for i in range(1, B.n + 1):
        if i in tree or B.is_loop(i):
            continue
        u, u2 = B.underlying(i)
        if signs[u] * signs[u2] != B.sigma(i):
            path = _tree_path(B, parent, u2, u)
            witness = path + (i, u2)
            return BalanceReport(0, witness, None)
    s = tuple(signs[v] for v in range(1, B.m + 1))
    O = OrthogonalMatrix(s, tuple(range(1, B.m + 1)))
    return BalanceReport(1, None, O)


def _tree_path(B, parent, src, dst):
    """Walk sequence (src, a, ..., dst) along spanning-tree arrows."""

    def up(v):
        chain = [v]
        arrows = []
        while parent[chain[-1]] is not None:
            pv, a = parent[chain[-1]]
            arrows.append(a)
            chain.append(pv)
        return chain, arrows

    cs, as_ = up(src)
    cd, ad = up(dst)
    common = None
    set_cd = {v: k for k, v in enumerate(cd)}
    for k, v in enumerate(cs):
        if v in set_cd:
            common = (k, set_cd[v])
            break
    ks, kd = common
    seq = []
    for t in range(ks):
        seq.extend([cs[t], as_[t]])
    seq.append(cs[ks])
    for t in range(kd - 1, -1, -1):
        seq.extend([ad[t], cd[t]])
    return tuple(seq)


def rank_corank(B: BidirectedGraph) -> tuple[int, int]:
    """(rk, crk) of the incidence form: rk = m - beta, crk = n - m + beta."""
    beta = balance(B).beta
    return (B.m - beta, B.n - B.m + beta)


def nullity(B: BidirectedGraph) -> int:
    return len(integer_kernel(B.incidence_matrix()))


# -- canonical families ----------------------------------------------------


def canonical_a(r: int, c: int) -> BidirectedGraph:
    """A_r^c: directed path on r+1 vertices plus c return arrows (r>=1, c>=0)."""
    if r < 1 or c < 0:
        raise InvalidInput("canonical_a requires r >= 1, c >= 0")
    ends = [((i, 1), (i + 1, -1)) for i in range(1, r + 1)]
    ends += [((r + 1, 1), (1, -1))] * c
    return BidirectedGraph(r + 1, ends)


def canonical_d(r: int, c: int) -> BidirectedGraph:
    """D_r^c: two-head + directed double start, directed path, c two-tail extras (r>=3)."""
    if r < 3 or c < 0:
        raise InvalidInput("canonical_d requires r >= 3, c >= 0")
    ends = [((1, -1), (2, -1)), ((1, 1), (2, -1))]
    ends += [((i - 1, 1), (i, -1)) for i in range(3, r + 1)]
    ends += [((r - 1, 1), (r, 1))] * c
    return BidirectedGraph(r, ends)


def canonical_c(r: int, c1: int, c2: int) -> BidirectedGraph:
    """C_r^{c1,c2}: two-head loop, directed path, c1 two-tail extras, c2 two-tail loops."""
    if r < 2 or c1 < 0 or c2 < 0:
        raise InvalidInput("canonical_c requires r >= 2, c1, c2 >= 0")
    ends = [((1, -1), (1, -1))]
    ends += [((i - 1, 1), (i, -1)) for i in range(2, r + 1)]
    ends += [((r - 1, 1), (r, 1))] * c1
    ends += [((r, 1), (r, 1))] * c2
    return BidirectedGraph(r, ends)


def loops_graph(p: int, s: int, t: int) -> BidirectedGraph:
    """L^{p,s,t}: one vertex with p directed, s two-tail and t two-head loops."""
    if p < 0 or s < 0 or t < 0 or p + s + t < 1:
        raise InvalidInput("loops_graph requires p, s, t >= 0 with p+s+t >= 1")
    ends = [((1, 1), (1, -1))] * p + [((1, 1), (1, 1))] * s + [((1, -1), (1, -1))] * t
    return BidirectedGraph(1, ends)


# -- switching equivalence -------------------------------------------------


def switching_equivalent(
    B: BidirectedGraph, B2: BidirectedGraph
) -> Optional[OrthogonalMatrix]:
    """Search for O with B^O = B2; returns None if no switching exists.

    Backtracking over vertex images with per-arrow pruning, then sign
    propagation; exponential worst case, intended for desk-scale graphs.
    """
    if B.m != B2.m or B.n != B2.n:
        return None
    m = B.m
    # arrow i must map to arrow i (switching keeps arrow indices); loop-ness is
    # invariant, and so is the sign of a loop (vertex signs cancel on loops)
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
        # check arrows whose both endpoints are assigned: underlying images match
        for i in range(1, B.n + 1):
            a, b = B.underlying(i)
            c, d = B2.underlying(i)
            if phi[a] and phi[b]:
                if {phi[a], phi[b]} != {c, d}:
                    return False
        return True

    def assign(u):
        if u > m:
            return _solve_signs(B, B2, phi)
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


def _solve_signs(B, B2, phi):
    """Given a vertex bijection, search endpoint signs making B^O = B2."""
    m = B.m
    perm = tuple(phi[1:])
    # brute force over sign vectors with early pruning per arrow
    signs = {}

    def feasible():
        for i in range(1, B.n + 1):
            ends = B.arrow_ends(i)
            target = B2.arrow_ends(i)
            if all(u in signs for (u, _) in ends):
                mapped = tuple(
                    sorted((phi[u], e * signs[u]) for (u, e) in ends)
                )
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
