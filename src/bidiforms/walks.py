"""Walks in the extended bidirected graph and the roots they generate.

A walk alternates vertices and arrows. Its start and its arrow steps fix
the vertex sequence, so a `Walk` is built from those two alone; only
directed loops carry a formal inverse token. The `inc` map sends a walk to
an integer vector of the incidence form; open walks give 1-roots, positive
closed walks 0-roots and negative closed walks certain 2-roots.

The root enumerators never build `Walk` objects in their loops:

- `theorem_c_roots` and `walk_root_cover` share one BFS over walk states
  (start, vertex, sign, inc), each packed into a single int and expanded a
  level at a time (`_WalkStates`). The start is part of the state, so one
  search runs from any set of starts, and one table reads the root class
  of a state off its start, vertex and sign: `walk_root_cover` runs one
  search from every vertex per call, `theorem_c_roots` one per start;
- `roots_positive` forms each root from the (inc, sigma) of two tree walks
  to a root vertex, by inc(w1 w2) = inc(w1) + sigma(w1) inc(w2) and
  inc(w^-1) = -sigma(w) inc(w), and checks its value through the incidence
  images: q(x) = |I^tr x|^2 / 2, so a root x = y - f z costs
  q(y) + q(z) - f <I^tr y, I^tr z>, with each image read once off the arrow
  ends and no form built;
- `brute_force_roots`, the independent oracle, is the box search
  `qform._box_roots` that the solver shares; it knows nothing of walks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import add, neg, sub

from .bidigraph import BidirectedGraph, balance
from .errors import InvalidInput, NotPositive, as_int
from .qform import IntegralQuadraticForm, _box_roots, traverse


class Walk:
    """Walk given by a start vertex and (arrow, is_inverse) steps; they fix its `vertices`."""

    __slots__ = ("graph", "start", "steps", "vertices")

    def __init__(self, graph: BidirectedGraph, start: int, steps=()):
        start = as_int(start)
        if not (1 <= start <= graph.m):
            raise InvalidInput("walk start vertex out of range")
        steps = tuple((as_int(a), bool(inv)) for a, inv in steps)
        vertices = _infer_vertices(graph, start, steps)
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "vertices", vertices)

    def __setattr__(self, name, value):
        raise AttributeError("Walk is immutable")

    def __eq__(self, other):  # the vertices follow from the rest
        return (
            isinstance(other, Walk)
            and self.graph == other.graph
            and self.start == other.start
            and self.steps == other.steps
        )

    def __hash__(self):
        return hash((self.start, self.steps))

    def __repr__(self):
        return f"Walk({self.format_text()!r})"

    @property
    def length(self) -> int:
        return len(self.steps)

    @property
    def end(self) -> int:
        return self.vertices[-1]

    def is_closed(self) -> bool:
        return self.start == self.end

    def sigma(self) -> int:
        s = 1
        for a, _ in self.steps:
            s *= self.graph.sigma(a)
        return s

    def inc(self) -> tuple[int, ...]:
        """The incidence vector sum_t sigma(w^[t-1]) d(v_{t-1}, i_t) E_{i_t}."""
        x = [0] * self.graph.n
        sign = 1
        for (a, inv), v in zip(self.steps, self.vertices):
            x[a - 1] += sign * _d(self.graph, v, a, inv)
            sign *= self.graph.sigma(a)
        return tuple(x)

    def compose(self, other: "Walk") -> "Walk":
        if self.graph != other.graph:
            raise InvalidInput("walks live on different graphs")
        if self.end != other.start:
            raise InvalidInput("walks are not composable")
        return Walk(self.graph, self.start, self.steps + other.steps)

    def inverse(self) -> "Walk":
        graph = self.graph
        steps = []
        for a, inv in reversed(self.steps):
            steps.append((a, not inv) if graph.is_directed_loop(a) else (a, False))
        return Walk(graph, self.end, steps)

    def reduce(self) -> "Walk":
        """Cancel adjacent step/anti-step pairs; preserves inc."""
        graph = self.graph
        stack = []  # (arrow, inv, from_vertex, to_vertex)
        for (a, inv), v_from, v_to in zip(self.steps, self.vertices, self.vertices[1:]):
            if stack and _are_inverse_steps(graph, stack[-1], (a, inv, v_from, v_to)):
                stack.pop()
            else:
                stack.append((a, inv, v_from, v_to))
        return Walk(graph, self.start, [(a, inv) for a, inv, _, _ in stack])

    def power(self, k: int) -> "Walk":
        k = as_int(k)
        if not self.is_closed():
            raise InvalidInput("powers are defined for closed walks")
        if k < 0:
            return self.inverse().power(-k)
        return Walk(self.graph, self.start, self.steps * k)  # one pass, not k composes

    def format_text(self) -> str:
        parts = [str(self.start)]
        for (a, inv), v in zip(self.steps, self.vertices[1:]):
            parts.append(f"{a}^-1" if inv else str(a))
            parts.append(str(v))
        return " ".join(parts)

    @staticmethod
    def parse_text(graph: BidirectedGraph, text: str) -> "Walk":
        tokens = text.split()
        if len(tokens) % 2 != 1:
            raise InvalidInput("walk text must alternate vertices and arrows")
        try:
            vertices = [int(tokens[k]) for k in range(0, len(tokens), 2)]
            steps = []
            for k in range(1, len(tokens), 2):
                tok = tokens[k]
                if tok.endswith("^-1"):
                    steps.append((int(tok[:-3]), True))
                else:
                    steps.append((int(tok), False))
        except ValueError as exc:
            raise InvalidInput(f"bad walk token: {exc}") from exc
        walk = Walk(graph, vertices[0], steps)
        for (a, _), v, w, inferred in zip(steps, vertices, vertices[1:], walk.vertices[1:]):
            if w != inferred:
                raise InvalidInput(f"arrow {a} does not join {v} and {w}")
        return walk


def _d(graph, v, arrow, inverse):
    """d(v, arrow): the end sign of the arrow at v, one of its ends, which every
    caller reads off the graph; +-1 by `inverse` on a directed loop."""
    (u, e), (u2, e2) = graph.arrow_ends(arrow)
    if u == u2 and e != e2:
        return -1 if inverse else 1
    return e if v == u else e2


def _infer_vertices(graph, start, steps):
    vertices = [start]
    for a, inv in steps:
        u, u2 = graph.underlying(a)
        if inv and not graph.is_directed_loop(a):
            raise InvalidInput("formal inverses exist only for directed loops")
        v = vertices[-1]
        if v == u:
            vertices.append(u2)
        elif v == u2:
            vertices.append(u)
        else:
            raise InvalidInput(f"arrow {a} is not incident to vertex {v}")
    return tuple(vertices)


def _are_inverse_steps(graph, s1, s2):
    a1, inv1, f1, t1 = s1
    a2, inv2, f2, t2 = s2
    if a1 != a2:
        return False
    if graph.is_directed_loop(a1):
        return inv1 != inv2
    if graph.is_loop(a1):
        return True  # a bidirected loop step is its own inverse
    return f2 == t1 and t2 == f1


@dataclass(frozen=True)
class RootSet:
    """Deduplicated, sign-closed set of integer vectors with q(x) = d."""

    d: int
    vectors: frozenset


def brute_force_roots(q: IntegralQuadraticForm, d: int, bound: int) -> RootSet:
    """Independent oracle: all x with |x_i| <= bound and q(x) = d, by `qform._box_roots`."""
    d, bound = as_int(d), as_int(bound)
    if bound < 0:
        raise InvalidInput("bound must be >= 0")
    return RootSet(d, frozenset(_box_roots(q, d, bound)))


class _WalkStates:
    """Walk states (start, v, sign, inc) with |inc_i| <= prune, each packed into one int.

    A state is low + 2m (start - 1) + span * key, where low = 2(v - 1) +
    [sign < 0], span = 2m^2 and key = sum_i (inc_i + prune) * base^i with
    base = 2 prune + 1, so the key of -inc is mirror - key with
    mirror = 2 * zero. No step changes the start digit, so walks from
    different starts never share a state. `kind[s % span]` is the d of the
    roots that state s yields: 0 for a positive closed walk, 2 for a negative
    closed walk and 1 for an open walk. Root sets are sign-closed, so they
    keep one key per {x, -x}, the one at or below zero, and decode it to
    both. `moves[low]` lists (weight, edge, delta) per step out of that
    (vertex, sign): the step moves digit s // weight % base of state s by
    one, is pruned when the digit already sits at `edge`, and leads to
    s + delta; `deltas[low]` holds the deltas alone. inc of a one-step
    extension is inc + sign * d(v, a) * E_a, which only depends on the state.
    """

    def __init__(self, B: BidirectedGraph, prune: int):
        n = B.n
        self.n = n
        self.prune = prune
        self.m2 = m2 = 2 * B.m
        self.span = span = m2 * B.m
        # r = s % span is low + m2 (start - 1): r % m2 >> 1 is v - 1 and r // m2 is start - 1
        self.kind = [1 if r % m2 >> 1 != r // m2 else 2 * (r & 1) for r in range(span)]
        self.base = base = 2 * prune + 1
        self.zero = sum(prune * base**i for i in range(n))
        self.mirror = 2 * self.zero
        self.moves = moves = [[] for _ in range(m2)]
        for a in range(1, n + 1):
            u, u2 = B.underlying(a)
            sig = B.sigma(a)
            if B.is_directed_loop(a):
                steps = [(u, u, 1), (u, u, -1)]
            elif u == u2:
                steps = [(u, u, _d(B, u, a, False))]
            else:
                steps = [(u, u2, _d(B, u, a, False)), (u2, u, _d(B, u2, a, False))]
            weight = span * base ** (a - 1)
            for v, w, d in steps:
                for sign in (1, -1):
                    low = 2 * (v - 1) + (sign < 0)
                    to = 2 * (w - 1) + (sign * sig < 0)
                    step = sign * d
                    moves[low].append((weight, 2 * prune if step > 0 else 0, to - low + step * weight))
        self.deltas = [tuple(delta for _, _, delta in steps) for steps in moves]

    def levels(self, starts, length_cap: int):
        """The BFS levels of the walks from the vertices `starts`, up to `length_cap` steps.

        Each level is a set of states; level 0 holds the trivial walk of
        every start. Every step is undone by one step (the same arrow back,
        or the other direction of a directed loop), and the undoing step
        passes the prune, so the neighbours of a level lie in the level
        before it, in it, or in the next one, all from the same start. Two
        levels therefore tell new states from seen ones, and only two are
        kept: each level adds its candidates unchecked and then drops the
        two levels from them in bulk.

        A state of level j has |inc_i| <= j, so while j < prune no digit can
        sit at an edge and every step is taken without the prune test (with
        the prune = length_cap of `theorem_c_roots`, no step is ever tested).
        From j = prune on each step is tested.
        """
        moves, deltas, m2, base = self.moves, self.deltas, self.m2, self.base
        trivial = self.span * self.zero
        before, level = set(), {(2 + m2) * (v - 1) + trivial for v in starts}
        yield level
        for j in range(length_cap):
            if j < self.prune:
                nxt = {s + delta for s in level for delta in deltas[s % m2]}
            else:
                nxt = {
                    s + delta
                    for s in level
                    for weight, edge, delta in moves[s % m2]
                    if s // weight % base != edge
                }
            nxt -= level
            nxt -= before
            if not nxt:
                return
            before, level = level, nxt
            yield level

    def keys(self, vectors) -> set:
        """One key per {x, -x} of the inc vectors `vectors`, each |x_i| <= prune."""
        base, prune, zero, mirror = self.base, self.prune, self.zero, self.mirror
        vectors = list(vectors)
        keys = [0] * len(vectors)
        for i in reversed(range(self.n)):  # Horner, one coordinate at a time
            keys = [k * base + x[i] + prune for k, x in zip(keys, vectors)]
        return {k if k <= zero else mirror - k for k in keys}

    def sign_closed_vectors(self, keys) -> frozenset:
        """{x, -x} for the inc vector x of every key, decoded one digit at a time."""
        base, prune = self.base, self.prune
        keys = list(keys)
        digits = [[k // w % base - prune for k in keys] for w in [base**i for i in range(self.n)]]
        negated = [[-c for c in column] for column in digits]
        return frozenset(chain(zip(*digits), zip(*negated)))


def theorem_c_roots(B: BidirectedGraph, d: int, length_cap: int) -> RootSet:
    """Walk-generated d-roots for d in {0,1,2}.

    d=0: positive closed walks; d=1: open walks; d=2: negative closed walks
    (the walk-generated subset of the 2-roots). Enumeration is a BFS over
    walk states up to `length_cap` steps, one start at a time. A negative
    `length_cap` is refused. A balanced graph has no negative closed walk.
    """
    d, length_cap = as_int(d), as_int(length_cap)
    if d not in (0, 1, 2):
        raise InvalidInput("theorem_c_roots handles d in {0, 1, 2}")
    if length_cap < 0:
        raise InvalidInput(f"length_cap must be >= 0, got {length_cap}")
    if not B.is_connected():
        raise InvalidInput("theorem_c_roots needs a connected graph")
    if d == 2 and balance(B).beta:
        return RootSet(2, frozenset())
    states = _WalkStates(B, length_cap)  # no walk within the cap leaves the window
    span, kind, zero, mirror = states.span, states.kind, states.zero, states.mirror
    keys = set()  # one per {x, -x}
    # an open walk w from vertex m is, reversed, one from its end, with
    # inc(w^-1) = -sigma(w) inc(w); the result is sign-closed, so m is left out.
    # A search per start keeps the levels of only one start in memory.
    for start in range(1, B.m - (d == 1) + 1):
        for level in states.levels((start,), length_cap):
            keys.update([k if (k := s // span) <= zero else mirror - k
                         for s in level if kind[s % span] == d])
    # I^tr inc(w) = e_start - sigma(w) e_end is not 0 for an open or a negative closed walk
    assert d == 0 or zero not in keys
    return RootSet(d, states.sign_closed_vectors(keys))


def walk_root_cover(B: BidirectedGraph, bound: int) -> tuple[dict, bool]:
    """Adaptive oracle helper: walk roots by class until the boxed 0- and
    1-roots of the incidence form are covered.

    Returns ({0: ..., 1: ..., 2: ...}, complete). One BFS over the walk
    states from every start vertex, a level at a time; coverage checks start
    at n + m steps, and the search gives up at the hard cap
    max(4*n*bound, n + m). Coordinates are pruned at bound + 1; the
    inductive walk construction reaches every boxed root without its
    partial sums ever leaving that window. A state's key goes to the set of
    its class, `_WalkStates.kind`, and the sets keep one key per {x, -x}.
    """
    if not B.is_connected():
        raise InvalidInput("walk_root_cover needs a connected graph")
    bound = as_int(bound)
    if bound < 0:
        raise InvalidInput("bound must be >= 0")
    q = B.incidence_form()
    states = _WalkStates(B, bound + 1)
    want0 = states.keys(brute_force_roots(q, 0, bound).vectors)
    want1 = states.keys(brute_force_roots(q, 1, bound).vectors)
    first_check = B.n + B.m
    hard = max(4 * B.n * bound, first_check)
    span, zero, mirror = states.span, states.zero, states.mirror
    sets = {0: set(), 1: set(), 2: set()}
    table = [sets[d] for d in states.kind]
    for j, level in enumerate(states.levels(range(1, B.m + 1), hard)):
        for s in level:
            key = s // span
            table[s % span].add(key if key <= zero else mirror - key)
        if j >= first_check and want0 <= sets[0] and want1 <= sets[1]:
            break
    del table  # it holds the key sets too
    # I^tr inc(w) = e_start - sigma(w) e_end is not 0 for an open or a negative closed walk
    assert zero not in sets[1] and zero not in sets[2]
    covered = want0 <= sets[0] and want1 <= sets[1]
    return {d: states.sign_closed_vectors(sets.pop(d)) for d in (0, 1, 2)}, covered


@dataclass(frozen=True)
class PositiveRoots:
    """Exact incidence-root set of a positive incidence form."""

    vectors: frozenset
    value_counts: dict  # q-value -> number of vectors


def roots_positive(B: BidirectedGraph) -> PositiveRoots:
    """Exact finite incidence-root set for trees and unbalanced 1-trees.

    Tree with n arrows: n^2 + n + 1 vectors, all nonzero ones of value 1.
    Unbalanced 1-tree: 2n^2 + 1 vectors, exactly 2n of value 2; realized by
    walks w_s w^k w_t^{-1} around the unique (negative) cycle walk w, k in {0,1}.
    """
    if not B.is_connected():
        raise InvalidInput("roots_positive needs a connected graph")
    n, m = B.n, B.m
    if B.directed_loops():
        raise NotPositive("directed loops force a zero variable")
    if m == n + 1:
        return _positive_roots(B, 1, None)
    if m != n:
        raise NotPositive("graph is neither a tree nor a 1-tree")
    witness = balance(B).witness  # on a 1-tree, its unique cycle as a closed walk
    if witness is None:
        raise NotPositive("balanced 1-tree; the incidence form is not positive")
    cycle = Walk(B, witness[0], [(i, False) for i in witness[1::2]])
    return _positive_roots(B, cycle.start, (cycle.inc(), cycle.sigma()))


def _positive_roots(B, root, cycle):
    """inc(w_s w_t^-1) for s < t, from the tree walks w_s of every vertex s to
    `root`; on a 1-tree also inc(w_s w w_t^-1) for s <= t, where `cycle` is
    the (inc, sigma) of the cycle walk w at `root` (None on a tree).

    Each root is x = y - f a_t, f = +-1, with y = a_s (the inc of w_s) or, on
    a 1-tree, y = b_s = a_s + sigma_s inc(w). As q(x) = |I^tr x|^2 / 2, its
    value is q(y) + q(a_t) - f <I^tr y, I^tr a_t>. The images are read off
    the arrow ends from the vectors themselves (`_image`), once per vector,
    so a wrong vector still fails the check; the theorem puts at most two
    nonzeros in each, so a root costs O(1) to check beyond writing x and -x.
    """
    incs = _tree_incs(B, root)
    ends = B.ends
    values = (1,) if cycle is None else (1, 2)
    vectors = {(0,) * B.n}
    counts = {0: 1, **dict.fromkeys(values, 0)}
    # per vertex s: (a_s, sigma_s, I^tr a_s, q(a_s)); heads[s] lists the same for
    # the vectors y of the roots y - f a_t: a_s, and on a 1-tree b_s with
    # sigma_s sigma_w in place of sigma_s
    tree = {s: (a, sig, *_image(ends, a)) for s, (a, sig) in incs.items()}
    heads = {s: [v] for s, v in tree.items()}
    if cycle is not None:
        w, sig_w = cycle
        for s, (a, sig, _, _) in tree.items():
            b = tuple(map(add, a, w) if sig > 0 else map(sub, a, w))
            heads[s].append((b, sig * sig_w, *_image(ends, b)))
    for s in range(1, B.m + 1):
        for t in range(s, B.m + 1):
            z, sig_z, image_z, q_z = tree[t]
            for y, sig_y, image_y, q_y in heads[s] if s < t else heads[s][1:]:
                f = sig_y * sig_z
                val = q_y + q_z - f * sum(c * image_z.get(v, 0) for v, c in image_y.items())
                assert val in values
                x = tuple(map(sub, y, z) if f > 0 else map(add, y, z))
                vectors.add(x)
                vectors.add(tuple(map(neg, x)))
                counts[val] += 2
    if cycle is None:
        assert len(vectors) == B.n**2 + B.n + 1
    else:
        assert len(vectors) == 2 * B.n**2 + 1 and counts[2] == 2 * B.n
    return PositiveRoots(frozenset(vectors), counts)


def _image(ends, x):
    """(I^tr x as {vertex: nonzero entry}, q(x) = |I^tr x|^2 / 2), read off the
    arrow ends over the nonzeros of x."""
    y = {}
    for c, ((u, e), (u2, e2)) in zip(x, ends):
        if c:
            y[u] = y.get(u, 0) + c * e
            y[u2] = y.get(u2, 0) + c * e2
    y = {v: c for v, c in y.items() if c}
    return y, sum(c * c for c in y.values()) // 2


def _tree_incs(B, root):
    """(inc, sigma) of the minimal walk from every vertex to `root`.

    The walks follow a BFS tree, smallest arrow first. The walk from w is one
    step along its tree arrow a to the parent v, then the walk from v, so
    inc_w = d(w, a) E_a + sigma(a) inc_v and sigma_w = sigma(a) sigma_v.
    """
    order, parent = traverse(B.adjacency(), root)  # B is connected, as `roots_positive` checks
    incs = {root: ((0,) * B.n, 1)}
    for w in order[1:]:  # a parent is discovered before its children
        v, a = parent[w]
        x, sig = incs[v]
        sig_a = B.sigma(a)
        y = [sig_a * c for c in x]
        y[a - 1] += _d(B, w, a, False)
        incs[w] = (tuple(y), sig_a * sig)
    return incs
