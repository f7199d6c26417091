"""Integral quadratic forms and their bigraphs.

A form q(x) = sum_i q_i x_i^2 + sum_{i<j} q_ij x_i x_j is stored by its diagonal
coefficients and a sparse, read-only map of off-diagonal ones, keyed (i, j) with i < j in
ascending order; a bigraph stores its edges the same way. Variable indices are 1-based
throughout, matching the Gram-matrix convention G_ii = 2 q_i, G_ij = q_ij. The Gram rows of
a form are thawed in one place (`_gram_rows`) and frozen in one (`_rows_form`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, islice
from math import gcd, isqrt
from types import MappingProxyType

from .errors import InvalidInput, as_int, int_tuple, json_int
from .exact_linalg import IntMatrix, column_gram, psd_pivots, psd_radical


class IntegralQuadraticForm:
    """Immutable integral quadratic form on n >= 1 variables."""

    __slots__ = ("n", "diag", "off", "_hash")

    def __init__(self, diag, off=None):
        diag = int_tuple(diag)
        if len(diag) < 1:
            raise InvalidInput("a form needs at least one variable")
        n = len(diag)
        clean = {}
        for (i, j), v in (off or {}).items():
            i, j, v = as_int(i), as_int(j), as_int(v)
            if i == j or not (1 <= i <= n and 1 <= j <= n):
                raise InvalidInput(f"bad off-diagonal index pair ({i}, {j})")
            if i > j:
                i, j = j, i
            if v != 0:
                clean[(i, j)] = clean.get((i, j), 0) + v
        clean = {k: v for k, v in sorted(clean.items()) if v != 0}
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "diag", diag)
        # read-only, so that the hash and the `analyze` cache key cannot go stale
        object.__setattr__(self, "off", MappingProxyType(clean))

    @classmethod
    def _trusted(cls, diag: tuple, off: dict) -> "IntegralQuadraticForm":
        """A form built from data derived from valid forms, without the checks.

        `diag` is a tuple of ints and `off` a dict of nonzero ints keyed by
        (i, j) with 1 <= i < j <= len(diag), in ascending order.
        Input from outside the library goes through the constructor.
        """
        q = object.__new__(cls)
        object.__setattr__(q, "n", len(diag))
        object.__setattr__(q, "diag", diag)
        object.__setattr__(q, "off", MappingProxyType(off))
        return q

    def __setattr__(self, name, value):
        raise AttributeError("IntegralQuadraticForm is immutable")

    def __reduce__(self):
        return (IntegralQuadraticForm, (self.diag, dict(self.off)))

    def __eq__(self, other):
        return (
            isinstance(other, IntegralQuadraticForm)
            and self.diag == other.diag
            and self.off == other.off
        )

    def __hash__(self):
        try:  # computed on first use: every cache keyed by a form looks it up
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", hash((self.diag, tuple(self.off.items()))))
            return self._hash

    def __repr__(self):
        return f"IntegralQuadraticForm(diag={self.diag}, off={dict(self.off)})"

    def coefficient(self, i: int, j: int) -> int:
        """q_ij with q_ii = q_i and q_ji = q_ij."""
        i, j = as_int(i), as_int(j)
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise InvalidInput(f"index out of range: ({i}, {j})")
        if i == j:
            return self.diag[i - 1]
        if i > j:
            i, j = j, i
        return self.off.get((i, j), 0)

    def evaluate(self, x) -> int:
        return _value(self, _check_vector(x, self.n))

    def polarize(self, x, y) -> int:
        """Bilinear form q(x, y) = q(x + y) - q(x) - q(y) = x^tr G y."""
        x = _check_vector(x, self.n)
        y = _check_vector(y, self.n)
        total = sum(2 * q * xi * yi for q, xi, yi in zip(self.diag, x, y))
        for (i, j), v in self.off.items():
            total += v * (x[i - 1] * y[j - 1] + x[j - 1] * y[i - 1])
        return total

    def gram(self) -> IntMatrix:
        return IntMatrix._trusted(tuple(map(tuple, _gram_rows(self))))

    @staticmethod
    def from_gram(G: IntMatrix) -> "IntegralQuadraticForm":
        if not G.is_symmetric():
            raise InvalidInput("Gram matrix must be symmetric")
        if any(G[i, i] % 2 != 0 for i in range(G.rows)):
            raise InvalidInput("Gram matrix must have even diagonal")
        if G.rows < 1:
            raise InvalidInput("a form needs at least one variable")
        return _rows_form(G.entries)

    def compose(self, T: IntMatrix) -> "IntegralQuadraticForm":
        """The form q∘T with Gram matrix T^tr G T: G t summed from the sparse rows of q
        over the nonzeros of each column t of T, and t^tr (G t') over those of t."""
        n = self.n
        if T.rows != n or T.cols != n:
            raise InvalidInput("composition matrix has wrong size")
        adj = form_adjacency(self)
        nonzeros = [[(k, x) for k, x in enumerate(t) if x] for t in zip(*T.entries)]
        gcols = []
        for nz in nonzeros:
            g = [0] * n
            for k, x in nz:
                g[k] += 2 * self.diag[k] * x
                for w, v in adj[k + 1]:
                    g[w - 1] += v * x
            gcols.append(g)
        diag = tuple(sum([x * g[k] for k, x in nz]) // 2 for nz, g in zip(nonzeros, gcols))
        off = {}
        for a, nz in enumerate(nonzeros):
            for b in range(a + 1, n):
                g, v = gcols[b], 0
                for k, x in nz:
                    v += x * g[k]
                if v:
                    off[(a + 1, b + 1)] = v
        return IntegralQuadraticForm._trusted(diag, off)

    def restrict(self, X) -> "IntegralQuadraticForm":
        X = sorted(set(int_tuple(X)))
        if not X or X[0] < 1 or X[-1] > self.n:
            raise InvalidInput("restriction index set must be a nonempty subset of 1..n")
        pos = {orig: t + 1 for t, orig in enumerate(X)}
        diag = tuple(self.diag[i - 1] for i in X)
        off = {}
        for (i, j), v in self.off.items():
            if i in pos and j in pos:
                off[(pos[i], pos[j])] = v  # pos is increasing, so still i < j
        return IntegralQuadraticForm._trusted(diag, off)

    def direct_sum(self, other: "IntegralQuadraticForm") -> "IntegralQuadraticForm":
        diag = self.diag + other.diag
        off = dict(self.off)
        for (i, j), v in other.off.items():
            off[(i + self.n, j + self.n)] = v
        return IntegralQuadraticForm(diag, off)

    def permuted(self, pi) -> "IntegralQuadraticForm":
        """The trivially equivalent form q∘P^pi with new variable k = old variable pi(k)."""
        pi = int_tuple(pi)
        if sorted(pi) != list(range(1, self.n + 1)):
            raise InvalidInput("not a permutation of 1..n")
        diag = tuple(self.diag[p - 1] for p in pi)
        inv = {}
        for k, p in enumerate(pi, start=1):
            inv[p] = k
        off = {}
        for (i, j), v in self.off.items():
            i, j = inv[i], inv[j]
            off[(i, j) if i < j else (j, i)] = v
        return IntegralQuadraticForm._trusted(diag, dict(sorted(off.items())))

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "diag": list(self.diag),
            "off": [[i, j, v] for (i, j), v in self.off.items()],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "IntegralQuadraticForm":
        try:
            n = json_int(data["n"])
            diag = [json_int(x) for x in data["diag"]]
            off_list = [[json_int(x) for x in item] for item in data.get("off", [])]
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInput(f"malformed form JSON: {exc}") from exc
        if len(diag) != n:
            raise InvalidInput("diag length does not match n")
        off = {}
        for item in off_list:
            if len(item) != 3:
                raise InvalidInput("off entries must be [i, j, value]")
            i, j, v = item
            if not i < j:
                raise InvalidInput("off entries must have i < j")
            if (i, j) in off:
                raise InvalidInput(f"off entry ({i}, {j}) is given twice")
            off[(i, j)] = v
        return IntegralQuadraticForm(diag, off)


def zero_form(c: int) -> IntegralQuadraticForm:
    """The zero form on c >= 1 variables."""
    c = as_int(c)
    if c < 1:
        raise InvalidInput("zero form needs at least one variable")
    return IntegralQuadraticForm([0] * c)


def _gram_rows(q: IntegralQuadraticForm) -> list:
    """The Gram matrix of q as a list of n row lists, for a caller to change."""
    n = q.n
    rows = [[0] * n for _ in range(n)]
    for k, d in enumerate(q.diag):
        rows[k][k] = 2 * d
    for (i, j), v in q.off.items():
        rows[i - 1][j - 1] = rows[j - 1][i - 1] = v
    return rows


def _rows_form(rows) -> IntegralQuadraticForm:
    """The form whose Gram matrix has the rows `rows`, symmetric with even diagonal, unchecked."""
    n = len(rows)
    off = {}
    for i, row in enumerate(rows, start=1):
        for j in compress(range(i + 1, n + 1), islice(row, i, None)):
            off[(i, j)] = row[j - 1]
    return IntegralQuadraticForm._trusted(tuple(row[k] // 2 for k, row in enumerate(rows)), off)


def _value(q: IntegralQuadraticForm, x: tuple) -> int:
    """q(x) for a tuple x of n ints, unchecked: for vectors the library built."""
    total = sum(c * xi * xi for c, xi in zip(q.diag, x))
    for (i, j), v in q.off.items():
        total += v * x[i - 1] * x[j - 1]
    return total


def _check_vector(x, n):
    x = int_tuple(x)
    if len(x) != n:
        raise InvalidInput(f"vector has length {len(x)}, expected {n}")
    return x


def _box_roots(q: IntegralQuadraticForm, d: int, bound: int, limit=None):
    """Yield each x with |x_i| <= bound and q(x) = d among the first `limit` box
    points (default: all) in box order: each x_i runs 0, 1, -1, ..., bound, -bound,
    x_1 slowest. An odometer runs x_1..x_{n-2} and an inner loop x_{n-1}, keeping
    q on them and the coefficients `lin` they pass to later x_j (O(n) memory). The
    last x_n = t, at place 2t - 1 (t > 0) or -2t of its block, solves a t^2 + c t =
    rest by one isqrt (a = q_n != 0) or one division (a = 0 != c), or is free.
    """
    diag = q.diag
    n = q.n
    last = n - 1
    a = diag[last]
    a2 = 2 * a
    width = 2 * bound + 1
    upper = [[] for _ in range(n)]  # upper[i]: (j, q_ij) with j > i, 0-based
    for (i, j), v in q.off.items():
        upper[i - 1].append((j - 1, v))
    k = inner = max(last - 1, 0)  # 0-based x_inner = u runs in the inner loop; n = 1 runs it once
    x = [0] * inner
    lin = [0] * n
    partial = [0] * n  # partial[k]: q on x_0..x_{k-1}
    left = width**n if limit is None else limit  # points from this block on
    qu, quv, end = (diag[inner], q.off.get((last, n), 0), -bound) if last else (0, 0, 0)
    while True:
        pk, lk, cn = partial[k], lin[k], lin[last]
        u = 0
        while True:
            rest = d - pk - u * (qu * u + lk)
            c = cn + quv * u
            if a:
                disc = c * c + 4 * a * rest
                if disc < 0 or (s := isqrt(disc)) * s != disc:
                    hits = ()
                else:  # the integral ones of t = (-c + s) / 2a and t2 = (-c - s) / 2a, in box order
                    t, e = divmod(s - c, a2)
                    t2, e2 = divmod(-s - c, a2)
                    if e:
                        hits = () if e2 else (t2,)
                    elif e2 or not s:
                        hits = (t,)
                    elif abs(t2) < abs(t) or t2 == -t and t2 > 0:
                        hits = (t2, t)
                    else:
                        hits = (t, t2)
            elif c:
                hits = () if rest % c else (rest // c,)
            else:
                hits = ((p + 1) // 2 if p % 2 else -(p // 2) for p in range(width)) if rest == 0 else ()
            for t in hits:
                if abs(t) > bound or (2 * t - 1 if t > 0 else -2 * t) >= left:
                    break
                yield (*x, u, t)[-n:]  # n = 1 has no inner coordinate
            left -= width
            if left <= 0:
                return
            if u == end:
                break
            u = -u if u > 0 else 1 - u
        while True:  # advance the deepest outer coordinate; one at -bound wraps to 0
            k -= 1
            if k < 0:
                return
            t = x[k]
            u = x[k] = 0 if t == -bound else -t if t > 0 else 1 - t
            for j, v in upper[k]:
                lin[j] += v * (u - t)
            if u:
                break
        partial[k + 1] = partial[k] + u * (diag[k] * u + lin[k])
        k += 1
        while k < inner:  # the coordinates after x_k restart at 0
            partial[k + 1] = partial[k]
            k += 1


class Bigraph:
    """Signed multigraph of a form: solid edges (sign -1), dotted edges (sign +1).

    All parallel edges between a vertex pair share one sign. Loops at i encode
    the diagonal away from 1: |q_i - 1| loops of sign sgn(q_i - 1).
    """

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges):
        n = as_int(n)
        if n < 1:
            raise InvalidInput("bigraph needs at least one vertex")
        clean = {}
        for (i, j), (mult, sign) in edges.items():
            i, j = as_int(i), as_int(j)
            if i > j:
                i, j = j, i
            if not (1 <= i and j <= n):
                raise InvalidInput("edge endpoint out of range")
            mult, sign = as_int(mult), as_int(sign)
            if mult < 0 or sign not in (1, -1):
                raise InvalidInput("edge multiplicity must be >= 0 with sign +-1")
            if mult:
                clean[(i, j)] = (mult, sign)
        object.__setattr__(self, "n", n)
        # read-only and ascending, as `IntegralQuadraticForm.off` is: the hash cannot go stale
        object.__setattr__(self, "edges", MappingProxyType(dict(sorted(clean.items()))))

    def __setattr__(self, name, value):
        raise AttributeError("Bigraph is immutable")

    def __reduce__(self):
        return (Bigraph, (self.n, dict(self.edges)))

    def __eq__(self, other):
        return isinstance(other, Bigraph) and self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, tuple(self.edges.items())))

    def __repr__(self):
        return f"Bigraph(n={self.n}, edges={dict(self.edges)})"

    def is_connected(self) -> bool:
        """Connectivity of the underlying multigraph, loops ignored."""
        return len(traverse(form_adjacency(form_of(self)), 1)[0]) == self.n


def traverse(adj, root, lifo=False):
    """Iterative search from `root` over `adj`: v -> iterable of (w, label).

    Returns (order, parent): the vertices in discovery order, and
    parent[w] = (v, label) for the step that discovered w, with
    parent[root] = None. A vertex is discovered, and gets its parent, when
    it is first seen from a vertex that is being expanded; the vertices to
    expand are taken first in first out (breadth-first), or last in first
    out when `lifo` is set.
    """
    parent = {root: None}
    order = [root]
    todo = deque(order)
    take = todo.pop if lifo else todo.popleft
    while todo:
        v = take()
        for w, label in adj[v]:
            if w not in parent:
                parent[w] = (v, label)
                order.append(w)
                todo.append(w)
    return order, parent


def form_adjacency(q: IntegralQuadraticForm) -> list:
    """v -> [(w, q_vw), ...] over the w != v with q_vw != 0, smallest w first;
    entry 0 is empty. It is the adjacency of the form's bigraph without its
    loops, for `traverse`.
    """
    adj = [[] for _ in range(q.n + 1)]
    for (i, j), v in q.off.items():  # ascending with i < j, so every list grows in order
        adj[i].append((j, v))
        adj[j].append((i, v))
    return adj


def bigraph_of(q: IntegralQuadraticForm) -> Bigraph:
    edges = {}
    for (i, j), v in q.off.items():
        edges[(i, j)] = (abs(v), 1 if v > 0 else -1)
    for i, qi in enumerate(q.diag, start=1):
        if qi != 1:
            edges[(i, i)] = (abs(qi - 1), 1 if qi > 1 else -1)
    return Bigraph(q.n, edges)


def form_of(delta: Bigraph) -> IntegralQuadraticForm:
    diag = [1] * delta.n
    off = {}
    for (i, j), (mult, sign) in delta.edges.items():
        if i == j:
            diag[i - 1] = 1 + sign * mult
        else:
            off[(i, j)] = sign * mult
    return IntegralQuadraticForm(diag, off)


@dataclass(frozen=True)
class FormAnalysis:
    connected: bool
    irreducible: bool
    content: int  # gcd of all coefficients; every value of q is a multiple of it
    unit: bool
    semi_unit: bool
    fully_regular: bool
    cox_regular: bool
    classic: bool
    non_negative: bool
    rank: int
    corank: int
    radical_basis: tuple
    dotted_loops: int
    # det of q on Z^n / rad q, or None when q is not non-negative: det G at
    # corank 0, and the Gram determinant of q^X for every positive core X whose
    # deleted radical rows are unimodular
    positive_det: int | None


@lru_cache(maxsize=2048)
def analyze(q: IntegralQuadraticForm) -> FormAnalysis:
    """Structural and regularity report for a form (pure; results are cached).

    The PSD test, the rank, the pivots behind `positive_det` and the radical
    come from one sparse elimination on the rows of q: `exact_linalg.psd_pivots`,
    then `psd_radical` on the rows it leaves, which also gives the index that
    `positive_det` divides out. A form that is not non-negative takes the same
    two steps on the rows of G^tr G (`column_gram`), which has the kernel of
    its Gram matrix G. No form is expanded into its dense Gram matrix. Each
    radical vector is checked against the rows of q at its support.
    """
    n = q.n
    unit = all(d == 1 for d in q.diag)
    semi_unit = all(d in (0, 1) for d in q.diag)
    positive_diag = all(d > 0 for d in q.diag)
    fully_regular = positive_diag and all(
        v % (q.diag[i - 1] * q.diag[j - 1]) == 0 for (i, j), v in q.off.items()
    )
    cox_regular = positive_diag and all(
        v % q.diag[i - 1] == 0 and v % q.diag[j - 1] == 0 for (i, j), v in q.off.items()
    )
    classic = cox_regular and all(v <= 0 for v in q.off.values())
    content = gcd(*q.diag, *q.off.values())
    rows = [{i: 2 * d} if d else {} for i, d in enumerate(q.diag)]
    for (i, j), v in q.off.items():
        rows[i - 1][j - 1] = v
        rows[j - 1][i - 1] = v
    found = psd_pivots(rows)
    adj = form_adjacency(q)
    if found is None:  # G x = 0 iff |G x|^2 = x^tr G^tr G x = 0, and G^tr G is PSD
        G = [{k: 2 * d, **{w - 1: v for w, v in adj[k + 1]}} for k, d in enumerate(q.diag)]
        rows = column_gram(G, n)
    pivots, det_p = found or psd_pivots(rows)
    radical, index = psd_radical(rows, pivots)
    for z in radical:  # G z = 0, read off the rows of q at the support of z
        Gz = {}
        for k, x in enumerate(z, start=1):
            if x:
                Gz[k] = Gz.get(k, 0) + 2 * q.diag[k - 1] * x
                for w, v in adj[k]:
                    Gz[w] = Gz.get(w, 0) + v * x
        assert not any(Gz.values()), "a radical vector is in the kernel of the Gram matrix"
    assert found is None or det_p % (index * index) == 0, "det G_P must be a multiple of the index squared"
    return FormAnalysis(
        connected=len(traverse(adj, 1)[0]) == n,
        irreducible=content == 1,
        content=content,
        unit=unit,
        semi_unit=semi_unit,
        fully_regular=fully_regular,
        cox_regular=cox_regular,
        classic=classic,
        non_negative=found is not None,
        rank=len(pivots),
        corank=n - len(pivots),
        radical_basis=tuple(radical),
        dotted_loops=sum(d - 1 for d in q.diag),
        positive_det=None if found is None else det_p // (index * index),
    )
