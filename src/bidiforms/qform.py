"""Integral quadratic forms and their bigraphs.

A form q(x) = sum_i q_i x_i^2 + sum_{i<j} q_ij x_i x_j is stored by its diagonal
coefficients and a sparse, read-only map of off-diagonal ones. Variable indices are 1-based
throughout, matching the Gram-matrix convention G_ii = 2 q_i, G_ij = q_ij.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from types import MappingProxyType

from .errors import InvalidInput, json_int
from .exact_linalg import IntMatrix, integer_kernel, psd_rank


class IntegralQuadraticForm:
    """Immutable integral quadratic form on n >= 1 variables."""

    __slots__ = ("n", "diag", "off")

    def __init__(self, diag, off=None):
        diag = tuple(int(x) for x in diag)
        if len(diag) < 1:
            raise InvalidInput("a form needs at least one variable")
        n = len(diag)
        clean = {}
        for (i, j), v in (off or {}).items():
            i, j, v = int(i), int(j), int(v)
            if i == j or not (1 <= i <= n and 1 <= j <= n):
                raise InvalidInput(f"bad off-diagonal index pair ({i}, {j})")
            if i > j:
                i, j = j, i
            if v != 0:
                clean[(i, j)] = clean.get((i, j), 0) + v
        clean = {k: v for k, v in clean.items() if v != 0}
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "diag", diag)
        # read-only, so that the hash and the `analyze` cache key cannot go stale
        object.__setattr__(self, "off", MappingProxyType(clean))

    @classmethod
    def _trusted(cls, diag: tuple, off: dict) -> "IntegralQuadraticForm":
        """A form built from data derived from valid forms, without the checks.

        `diag` is a tuple of ints and `off` a dict of nonzero ints keyed by
        (i, j) with 1 <= i < j <= len(diag); `off` keeps its iteration order.
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
        return hash((self.diag, tuple(sorted(self.off.items()))))

    def __repr__(self):
        return f"IntegralQuadraticForm(diag={self.diag}, off={dict(sorted(self.off.items()))})"

    def coefficient(self, i: int, j: int) -> int:
        """q_ij with q_ii = q_i and q_ji = q_ij."""
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise InvalidInput(f"index out of range: ({i}, {j})")
        if i == j:
            return self.diag[i - 1]
        if i > j:
            i, j = j, i
        return self.off.get((i, j), 0)

    def evaluate(self, x) -> int:
        x = _check_vector(x, self.n)
        total = sum(q * xi * xi for q, xi in zip(self.diag, x))
        for (i, j), v in self.off.items():
            total += v * x[i - 1] * x[j - 1]
        return total

    def polarize(self, x, y) -> int:
        """Bilinear form q(x, y) = q(x + y) - q(x) - q(y) = x^tr G y."""
        x = _check_vector(x, self.n)
        y = _check_vector(y, self.n)
        total = sum(2 * q * xi * yi for q, xi, yi in zip(self.diag, x, y))
        for (i, j), v in self.off.items():
            total += v * (x[i - 1] * y[j - 1] + x[j - 1] * y[i - 1])
        return total

    def gram(self) -> IntMatrix:
        n = self.n
        G = [[0] * n for _ in range(n)]
        for i in range(n):
            G[i][i] = 2 * self.diag[i]
        for (i, j), v in self.off.items():
            G[i - 1][j - 1] = v
            G[j - 1][i - 1] = v
        return IntMatrix(G)

    @staticmethod
    def from_gram(G: IntMatrix) -> "IntegralQuadraticForm":
        if not G.is_symmetric():
            raise InvalidInput("Gram matrix must be symmetric")
        if any(G[i, i] % 2 != 0 for i in range(G.rows)):
            raise InvalidInput("Gram matrix must have even diagonal")
        diag = [G[i, i] // 2 for i in range(G.rows)]
        off = {(i + 1, j + 1): G[i, j] for i in range(G.rows) for j in range(i + 1, G.cols)}
        return IntegralQuadraticForm(diag, off)

    def compose(self, T: IntMatrix) -> "IntegralQuadraticForm":
        """The form q∘T with Gram matrix T^tr G T."""
        if T.rows != self.n or T.cols != self.n:
            raise InvalidInput("composition matrix has wrong size")
        return IntegralQuadraticForm.from_gram(T.transpose() @ self.gram() @ T)

    def restrict(self, X) -> "IntegralQuadraticForm":
        X = sorted(set(int(i) for i in X))
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
        pi = tuple(int(p) for p in pi)
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
        return IntegralQuadraticForm._trusted(diag, off)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "diag": list(self.diag),
            "off": [[i, j, v] for (i, j), v in sorted(self.off.items())],
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
            off[(i, j)] = v
        return IntegralQuadraticForm(diag, off)


def zero_form(c: int) -> IntegralQuadraticForm:
    """The zero form on c >= 1 variables."""
    if c < 1:
        raise InvalidInput("zero form needs at least one variable")
    return IntegralQuadraticForm([0] * c)


def _check_vector(x, n):
    x = tuple(int(v) for v in x)
    if len(x) != n:
        raise InvalidInput(f"vector has length {len(x)}, expected {n}")
    return x


class Bigraph:
    """Signed multigraph of a form: solid edges (sign -1), dotted edges (sign +1).

    All parallel edges between a vertex pair share one sign. Loops at i encode
    the diagonal away from 1: |q_i - 1| loops of sign sgn(q_i - 1).
    """

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges):
        n = int(n)
        if n < 1:
            raise InvalidInput("bigraph needs at least one vertex")
        clean = {}
        for (i, j), (mult, sign) in edges.items():
            i, j = int(i), int(j)
            if i > j:
                i, j = j, i
            if not (1 <= i and j <= n):
                raise InvalidInput("edge endpoint out of range")
            mult = int(mult)
            if mult < 0 or sign not in (1, -1):
                raise InvalidInput("edge multiplicity must be >= 0 with sign +-1")
            if mult:
                clean[(i, j)] = (mult, sign)
        object.__setattr__(self, "n", n)
        # read-only, as `IntegralQuadraticForm.off` is, so that the hash cannot go stale
        object.__setattr__(self, "edges", MappingProxyType(clean))

    def __setattr__(self, name, value):
        raise AttributeError("Bigraph is immutable")

    def __reduce__(self):
        return (Bigraph, (self.n, dict(self.edges)))

    def __eq__(self, other):
        return isinstance(other, Bigraph) and self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, tuple(sorted(self.edges.items()))))

    def __repr__(self):
        return f"Bigraph(n={self.n}, edges={dict(sorted(self.edges.items()))})"

    def adjacency(self) -> list:
        """v -> [(w, (mult, sign))] over the edges that are not loops, smallest w first."""
        adj = [[] for _ in range(self.n + 1)]
        for (i, j), edge in sorted(self.edges.items()):  # i < j, so every list grows in order
            if i != j:
                adj[i].append((j, edge))
                adj[j].append((i, edge))
        return adj

    def is_connected(self) -> bool:
        """Connectivity of the underlying multigraph, loops ignored."""
        return len(traverse(self.adjacency(), 1)[0]) == self.n


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


@lru_cache(maxsize=2048)
def analyze(q: IntegralQuadraticForm) -> FormAnalysis:
    """Structural and regularity report for a form (pure; results are cached)."""
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
    G = q.gram()
    non_negative, rank = psd_rank(G)
    radical = tuple(integer_kernel(G)) if rank < n else ()
    return FormAnalysis(
        connected=bigraph_of(q).is_connected(),
        irreducible=content == 1,
        content=content,
        unit=unit,
        semi_unit=semi_unit,
        fully_regular=fully_regular,
        cox_regular=cox_regular,
        classic=classic,
        non_negative=non_negative,
        rank=rank,
        corank=n - rank,
        radical_basis=radical,
        dotted_loops=sum(d - 1 for d in q.diag),
    )
