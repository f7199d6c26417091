"""Dynkin-type classification, Gabrielov calculus and incidence realizations.

Covers the form-level Gabrielov transformation with its coefficient update,
A/D/E typing of unit forms by the Gram determinant of a positive core, the
type-C test, realization of forms as incidence forms, the canonical
(c1,c2)-extension reduction and the Dynkin-plus-zero Z-equivalences. The
exact root enumeration (`positive_roots_by_value`, `one_root_count`) is kept
as an independent oracle for the determinant typing.

The type-C reductions run on one step chase (`_Chase`). Both normal forms
share steps 1-4 (`_directed_star`); `canonical_c` then adds G-steps and
`dynkin_plus_zero` loop-stripping rewrites. The chase keeps its matrix as a
list of columns, so each step costs O(n); a `GTransform`, with its
unimodularity check, is built once per public result.

Unit forms of type A/D are realized by a depth-first search over incidence
rows that indexes the placed rows by vertex, and positive cores are found by
a deletion search that reads the rank of each restriction off the radical.
Both run on explicit stacks. Forms derived here from valid forms are built
without the constructor's checks (`IntegralQuadraticForm._trusted`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

from .bidigraph import (
    BidirectedGraph,
    apply,
    canonical_c as canonical_c_graph,
    rewrite_matrix,
    undo,
)
from .errors import (
    InvalidInput,
    NotCoxRegular,
    NotIncidenceForm,
    NotNonNegative,
    NotPositive,
    NotTypeC,
    json_int,
)
from .exact_linalg import IntMatrix
from .qform import FormAnalysis, IntegralQuadraticForm, analyze, bigraph_of, traverse, zero_form


# -- elementary transformations as column operations -----------------------


def _gabrielov_ratio(q: IntegralQuadraticForm, i: int, j: int) -> int:
    """q_ij / q_i, or 0 when q_i = 0; NotCoxRegular if the quotient is not integral."""
    qi = q.coefficient(i, i)
    if qi == 0:
        return 0
    qij = q.coefficient(i, j)
    if qij % qi != 0:
        raise NotCoxRegular(f"q_{i}{j} = {qij} is not divisible by q_{i} = {qi}")
    return qij // qi


def _column_step(cols: list, q: IntegralQuadraticForm, step) -> None:
    """Turn the columns of M into those of M times the matrix of one step on
    the current form q, in place and in O(n).

    Gabrielov (i, j): column j -= (q_ij / q_i) column i; sign i: column i is
    negated; perm pi: column b becomes the old column pi(b); rewrite
    (i, j, eps): column j -= eps column i.
    """
    tag = step[0]
    if tag in ("gabrielov", "rewrite"):
        i, j = step[1], step[2]
        k = _gabrielov_ratio(q, i, j) if tag == "gabrielov" else step[3]
        if k:
            cols[j - 1] = tuple(a - k * b for a, b in zip(cols[j - 1], cols[i - 1]))
    elif tag == "sign":
        i = step[1]
        if not 1 <= i <= len(cols):
            raise InvalidInput(f"sign step index {i} out of range")
        cols[i - 1] = tuple(-a for a in cols[i - 1])
    else:
        pi = step[1]
        if sorted(pi) != list(range(1, len(cols) + 1)):
            raise InvalidInput("not a permutation of 1..n")
        cols[:] = [cols[p - 1] for p in pi]


def _sign_update(q: IntegralQuadraticForm, i: int) -> IntegralQuadraticForm:
    """q with x_i replaced by -x_i: the off-diagonal terms at i change sign."""
    return IntegralQuadraticForm._trusted(q.diag, {k: -v if i in k else v for k, v in q.off.items()})


def _step_form(q: IntegralQuadraticForm, step) -> IntegralQuadraticForm:
    """q∘S for the matrix S of one step on q."""
    if step[0] == "gabrielov":
        return gabrielov_update(q, step[1], step[2])
    if step[0] == "sign":
        return _sign_update(q, step[1])
    if step[0] == "perm":
        return q.permuted(step[1])
    return q.compose(rewrite_matrix(q.n, *step[1:]))


class _Chase:
    """A chain of steps from a form: the product M of their matrices, the
    steps, the current form q∘M and, once set, a graph B realizing it. Each
    tagged step of `_column_step` is applied to M, q and B alike.

    M is kept as a list of columns, so that a Gabrielov or rewrite step is
    one O(n) column update, a sign step negates one column and a perm
    reorders the list; the `IntMatrix` is built only when `M` is read.
    """

    __slots__ = ("cols", "steps", "q", "B")

    def __init__(self, q: IntegralQuadraticForm):
        self.cols = list(IntMatrix.identity(q.n).entries)  # symmetric: rows are columns
        self.steps = []
        self.q = q
        self.B = None

    @property
    def M(self) -> IntMatrix:
        return IntMatrix(zip(*self.cols))

    def push(self, *step):
        q_next = _step_form(self.q, step)
        _column_step(self.cols, self.q, step)
        self.q = q_next
        self.steps.append(step)
        if self.B is not None:
            self.B = apply(self.B, step)
            assert step[0] != "gabrielov" or self.B.incidence_form() == self.q


class GTransform:
    """Unimodular matrix with its factorization into elementary G-steps."""

    __slots__ = ("matrix", "steps")

    def __init__(self, matrix: IntMatrix, steps=()):
        steps = tuple(steps)
        if matrix.rows != matrix.cols:
            raise InvalidInput("G-transformation matrix must be square")
        if matrix.det() not in (1, -1):
            raise InvalidInput("G-transformation matrix must be unimodular")
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "steps", steps)

    def __setattr__(self, name, value):
        raise AttributeError("GTransform is immutable")

    def __reduce__(self):
        return (GTransform, (self.matrix, self.steps))

    @property
    def n(self) -> int:
        return self.matrix.rows

    def __eq__(self, other):
        return (
            isinstance(other, GTransform)
            and self.matrix == other.matrix
            and self.steps == other.steps
        )

    def __repr__(self):
        return f"GTransform(steps={list(self.steps)})"

    @staticmethod
    def identity(n: int) -> "GTransform":
        return GTransform(IntMatrix.identity(n))

    def _then(self, q_current, step):
        q_next = _step_form(q_current, step)
        cols = list(zip(*self.matrix.entries))
        _column_step(cols, q_current, step)
        return GTransform(IntMatrix(zip(*cols)), self.steps + (step,)), q_next

    def then_gabrielov(self, q_current: IntegralQuadraticForm, i: int, j: int):
        """Append a Gabrielov step at (i, j) of the current form; returns (T', q')."""
        return self._then(q_current, ("gabrielov", i, j))

    def then_sign(self, q_current, i):
        return self._then(q_current, ("sign", i))

    def then_perm(self, q_current, pi):
        return self._then(q_current, ("perm", tuple(int(p) for p in pi)))

    def apply_to(self, q: IntegralQuadraticForm) -> IntegralQuadraticForm:
        return q.compose(self.matrix)

    def to_json_dict(self) -> dict:
        steps = []
        for s in self.steps:
            if s[0] == "gabrielov":
                steps.append({"op": "gabrielov", "i": s[1], "j": s[2]})
            elif s[0] == "sign":
                steps.append({"op": "sign", "i": s[1]})
            else:
                steps.append({"op": "perm", "pi": list(s[1])})
        return {"matrix": self.matrix.to_lists(), "steps": steps}

    @staticmethod
    def from_json_dict(data: dict) -> "GTransform":
        try:
            matrix = IntMatrix([[json_int(x) for x in row] for row in data["matrix"]])
            steps = []
            for s in data.get("steps", []):
                if s["op"] == "gabrielov":
                    steps.append(("gabrielov", json_int(s["i"]), json_int(s["j"])))
                elif s["op"] == "sign":
                    steps.append(("sign", json_int(s["i"])))
                elif s["op"] == "perm":
                    steps.append(("perm", tuple(json_int(p) for p in s["pi"])))
                else:
                    raise InvalidInput(f"unknown step op {s['op']!r}")
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInput(f"malformed GTransform JSON: {exc}") from exc
        return GTransform(matrix, steps)


def gabrielov_update(q: IntegralQuadraticForm, i: int, j: int) -> IntegralQuadraticForm:
    """Coefficients of q' = q∘T_ij: diagonal fixed, column j updated, q'_ij = -q_ij."""
    ratio = _gabrielov_ratio(q, i, j)
    if ratio == 0:  # q_i = 0 or q_ij = 0: T_ij fixes q
        return q
    if i == j:
        raise InvalidInput(f"bad off-diagonal index pair ({i}, {j})")
    old = q.off
    off = dict(old)
    for k in range(1, q.n + 1):
        if k == i or k == j:
            continue
        qki = old.get((k, i) if k < i else (i, k), 0)
        if not qki:
            continue
        key = (k, j) if k < j else (j, k)
        new = old.get(key, 0) - qki * ratio
        if new:
            off[key] = new
        else:
            off.pop(key, None)
    key = (i, j) if i < j else (j, i)
    off[key] = -old[key]
    return IntegralQuadraticForm._trusted(q.diag, off)


def gabrielov(q: IntegralQuadraticForm, i: int, j: int):
    """Elementary Gabrielov transformation of q at (i, j): returns (q', T)."""
    if i == j or not (1 <= i <= q.n and 1 <= j <= q.n):
        raise InvalidInput("gabrielov needs two distinct variable indices")
    T, q2 = GTransform.identity(q.n).then_gabrielov(q, i, j)
    return q2, T


# -- exact root enumeration for positive forms ------------------------------


@lru_cache(maxsize=512)
def _ldl(G: IntMatrix):
    """Exact LDL data of a positive-definite Gram matrix: x^tr G x = sum d_i (x_i + sum_j u_ij x_j)^2."""
    n = G.rows
    A = [[Fraction(x) for x in row] for row in G.entries]
    d = [Fraction(0)] * n
    u = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        d[i] = A[i][i]
        if d[i] <= 0:
            raise NotPositive("Gram matrix is not positive definite")
        for j in range(i + 1, n):
            u[i][j] = A[i][j] / d[i]
        for k in range(i + 1, n):
            for l in range(k, n):
                A[k][l] -= A[i][k] * A[i][l] / d[i]
                A[l][k] = A[k][l]
    return tuple(d), tuple(tuple(row) for row in u)


def _floor_sqrt(fr: Fraction) -> int:
    if fr < 0:
        return -1
    return isqrt(fr.numerator * fr.denominator) // fr.denominator


def positive_roots_by_value(q: IntegralQuadraticForm, dmax: int) -> dict:
    """All x with 1 <= q(x) <= dmax for a positive form, exactly enumerated.

    Lattice enumeration on the exact LDL decomposition of the Gram matrix;
    returns {d: frozenset of vectors}.
    """
    G = q.gram()
    d, u = _ldl(G)
    n = q.n
    out = {v: set() for v in range(1, dmax + 1)}
    budget = Fraction(2 * dmax)
    x = [0] * n

    def rec(i, remaining):
        if i < 0:
            val = budget - remaining
            if val > 0:
                qval = val / 2
                if qval.denominator == 1:
                    out[int(qval)].add(tuple(x))
            return
        shift = sum(u[i][j] * x[j] for j in range(i + 1, n))
        # d_i (x_i + shift)^2 <= remaining; widen by one to absorb the floored
        # square root, the exact term check below keeps only true solutions
        halfwidth = _floor_sqrt(remaining / d[i]) + 1
        lo_i = _ceil_frac(-shift - halfwidth)
        hi_i = _floor_frac(-shift + halfwidth)
        for xi in range(lo_i, hi_i + 1):
            x[i] = xi
            term = d[i] * (xi + shift) ** 2
            if term <= remaining:
                rec(i - 1, remaining - term)
        x[i] = 0

    rec(n - 1, budget)
    out = {v: frozenset(s) for v, s in out.items()}
    out.pop(0, None)
    return out


def _ceil_frac(fr: Fraction) -> int:
    return -((-fr.numerator) // fr.denominator)


def _floor_frac(fr: Fraction) -> int:
    return fr.numerator // fr.denominator


def one_root_count(q: IntegralQuadraticForm) -> int:
    """|R_q(1)| for a positive form."""
    return len(positive_roots_by_value(q, 1)[1])


def first_root_with_value(q: IntegralQuadraticForm, d: int):
    """Some x with q(x) = d for a positive form, or None; exact DFS enumeration.

    Candidates for each coordinate are visited center-outward; the per-level
    term is monotone away from the center, so each direction stops at the
    first overshoot.
    """
    if d == 0:
        return (0,) * q.n
    dd, u = _ldl(q.gram())
    n = q.n
    x = [0] * n

    def leaf(remaining):
        # d_0 (x_0 + shift)^2 = remaining has a closed-form integer test
        shift = sum(u[0][j] * x[j] for j in range(1, n) if x[j])
        r = remaining / dd[0]
        num, den = r.numerator, r.denominator
        sn, sd = isqrt(num), isqrt(den)
        if sn * sn != num or sd * sd != den:
            return None
        s = Fraction(sn, sd)
        for cand in (-shift + s, -shift - s):
            if cand.denominator == 1:
                x[0] = int(cand)
                return tuple(x)
        return None

    def rec(i, remaining):
        if i == 0:
            return leaf(remaining)
        shift = sum(u[i][j] * x[j] for j in range(i + 1, n) if x[j])
        c0 = round(-shift)
        # the term is monotone in each direction away from the parabola vertex
        xi = c0
        while True:
            term = dd[i] * (xi + shift) ** 2
            if term > remaining:
                break
            x[i] = xi
            res = rec(i - 1, remaining - term)
            if res is not None:
                return res
            xi += 1
        xi = c0 - 1
        while True:
            term = dd[i] * (xi + shift) ** 2
            if term > remaining:
                break
            x[i] = xi
            res = rec(i - 1, remaining - term)
            if res is not None:
                return res
            xi -= 1
        x[i] = 0
        return None

    if n == 1:
        return leaf(Fraction(2 * d))
    return rec(n - 1, Fraction(2 * d))


# -- Dynkin types ------------------------------------------------------------


@dataclass(frozen=True)
class DynkinType:
    family: str  # 'A', 'D', 'E' or 'C'
    rank: int

    def __post_init__(self):
        fam, r = self.family, self.rank
        ok = (
            (fam == "A" and r >= 1)
            or (fam == "D" and r >= 4)
            or (fam == "E" and r in (6, 7, 8))
            or (fam == "C" and r >= 2)
        )
        if not ok:
            raise InvalidInput(f"no Dynkin type {fam}_{r}")

    def __str__(self):
        return f"{self.family}{self.rank}"


def dynkin_unit_form(family: str, r: int) -> IntegralQuadraticForm:
    """Unit form of a simply laced Dynkin graph (solid edges only)."""
    if family == "A" and r >= 1:
        edges = [(i, i + 1) for i in range(1, r)]
    elif family == "D" and r >= 4:
        edges = [(1, 3), (2, 3)] + [(i, i + 1) for i in range(3, r)]
    elif family == "E" and r in (6, 7, 8):
        edges = [(1, 2), (2, 3), (3, 4), (3, 5)] + [(i, i + 1) for i in range(5, r)]
    else:
        raise InvalidInput(f"no Dynkin unit form {family}_{r}")
    return IntegralQuadraticForm([1] * r, {(i, j): -1 for i, j in edges})


def _is_type_c(rep: FormAnalysis, q: IntegralQuadraticForm) -> bool:
    return (
        rep.non_negative
        and rep.connected
        and rep.irreducible
        and not rep.unit
        and all(1 <= d <= 2 for d in q.diag)
        and rep.fully_regular
    )


def dynkin_type(q: IntegralQuadraticForm, rep: FormAnalysis | None = None):
    """Dynkin type and corank of a connected non-negative form.

    Unit forms are typed A/D/E by the Gram determinant of a positive core of
    rank r: a connected positive unit form is Z-equivalent to exactly one
    Dynkin form, and Z-equivalence keeps the determinant, which is r+1 for
    A_r, 4 for D_r and 9-r for E_r (no two agree at one rank). Non-unit forms
    must be irreducible Cox-regular and are typed C by the direct coefficient
    conditions. The 1-root counts r(r+1), 2r(r-1) and 72/126/240 of
    `one_root_count` give the same typing and serve as its test oracle.
    """
    rep = rep or analyze(q)
    if not rep.non_negative:
        raise NotNonNegative("dynkin_type needs a non-negative form")
    if not rep.connected:
        raise InvalidInput("dynkin_type needs a connected form")
    r, c = rep.rank, rep.corank
    if rep.unit:
        det = q.restrict(positive_core(q, rep)).gram().det()
        if det == r + 1:
            fam = "A"
        elif r >= 4 and det == 4:
            fam = "D"
        elif r in (6, 7, 8) and det == 9 - r:
            fam = "E"
        else:
            raise AssertionError(
                f"unit-form classifier found no Dynkin graph with Gram determinant {det} "
                f"in rank {r}"
            )
        return DynkinType(fam, r), c
    if not rep.irreducible or not rep.cox_regular:
        raise InvalidInput(
            "dynkin_type needs a unit form or an irreducible Cox-regular form"
        )
    if _is_type_c(rep, q):
        _assert_type_c_bounds(q)
        return DynkinType("C", r), c
    raise NotTypeC("non-unit form does not satisfy the type-C conditions")


def _assert_type_c_bounds(q):
    for (i, j), v in q.off.items():
        qi, qj = q.diag[i - 1], q.diag[j - 1]
        if qi == qj == 2:
            assert v in (-4, 0, 4)
        elif {qi, qj} == {1, 2}:
            assert v in (-2, 0, 2)
        else:
            assert -2 <= v <= 2


def positive_core(q: IntegralQuadraticForm, rep: FormAnalysis | None = None) -> list[int]:
    """Index set X with q^X positive, connected and of full rank.

    For type C the core is the breadth-first spanning tree of a realization
    plus its first bidirected loop; otherwise the first X of an ascending
    depth-first variable deletion, each deleted set tested on the radical
    basis (`_greedy_core`).
    """
    rep = rep or analyze(q)
    if not rep.non_negative:
        raise NotNonNegative("positive_core needs a non-negative form")
    if not rep.connected:
        raise InvalidInput("positive_core needs a connected form")
    if rep.rank == 0:
        raise InvalidInput("positive_core needs a form of positive rank")
    if rep.corank == 0:
        return list(range(1, q.n + 1))
    if not rep.unit and _is_type_c(rep, q):
        B = realize(q, rep)
        _, parent = traverse(B.adjacency(), 1)
        X = sorted({p[1] for p in parent.values() if p} | {B.bidirected_loops()[0]})
        sub = analyze(q.restrict(X))
        assert sub.corank == 0 and sub.connected and sub.rank == rep.rank
        return X
    return _greedy_core(q, rep)


def _greedy_core(q, rep):
    """The first X found by deleting variables in ascending depth-first order
    with q^X connected, of rank r = rk q and of corank 0.

    q is PSD, so q^X has kernel {z in the radical : z_d = 0 for d in D}, D the
    deleted set: q^X keeps rank r iff the rows at D of the radical basis are
    linearly independent, and has corank 0 once |D| = crk q. Each node of the
    search extends an integer echelon form of those rows by one row, and
    checks connectivity with `traverse` on X; no restriction is analyzed.
    The search runs on an explicit stack.
    """
    n, c = q.n, rep.corank
    radical_rows = [None] + [tuple(z[v - 1] for z in rep.radical_basis) for v in range(1, n + 1)]
    adj = bigraph_of(q).adjacency()

    def connected(X):
        within = {v: [(w, edge) for w, edge in adj[v] if w in X] for v in X}
        return len(traverse(within, min(X))[0]) == len(X)

    # one level per deleted variable: (X, echelon rows of the deleted radical rows, v left)
    levels = [(frozenset(range(1, n + 1)), [], iter(range(1, n + 1)))]
    while levels:
        X, echelon, rest = levels[-1]
        for v in rest:
            grown = _extend_echelon(echelon, radical_rows[v])
            if grown is None:
                continue
            Y = X - {v}
            if not connected(Y):
                continue
            if len(grown) == c:
                return sorted(Y)
            levels.append((Y, grown, iter(sorted(Y))))
            break
        else:
            levels.pop()
    raise AssertionError("no positive connected core found")


def _extend_echelon(echelon, row):
    """echelon plus row reduced against it, or None if row lies in its span.

    `echelon` lists (pivot column, integer row) with every row zero at the
    pivots of the rows before it; reduction is fraction-free, divided by the
    content.
    """
    w = row
    for p, e in echelon:
        if w[p]:
            a, b = e[p], w[p]
            w = [a * x - b * y for x, y in zip(w, e)]
            g = gcd(*w)
            if g > 1:
                w = [x // g for x in w]
    p = next((k for k, x in enumerate(w) if x), None)
    if p is None:
        return None
    return echelon + [(p, tuple(w))]


# -- the pivot/partition machinery for type C --------------------------------


def pivot_saturate(q: IntegralQuadraticForm, i0: int):
    """Rigid G-transformation T with (q∘T)_{i0,j} > 0 for all j != i0.

    Gabrielov steps shrink the zero set S = {j : q_{i0 j} = 0}; sign
    inversions then fix the signs. Diagonal coefficients are untouched.
    """
    rep = analyze(q)
    if not rep.connected:
        raise InvalidInput("pivot_saturate needs a connected form")
    if not rep.cox_regular:
        raise InvalidInput("pivot_saturate needs a Cox-regular form")
    if q.coefficient(i0, i0) == 0:
        raise InvalidInput("pivot variable must have a nonzero diagonal")
    ch = _Chase(q)
    _saturate(ch, i0)
    return ch.q, GTransform(ch.M, ch.steps)


def _saturate(ch: _Chase, i0: int) -> None:
    """The steps of `pivot_saturate`, pushed onto ch."""
    diag = ch.q.diag
    while True:
        cur = ch.q
        S = [j for j in range(1, cur.n + 1) if j != i0 and cur.coefficient(i0, j) == 0]
        if not S:
            break
        step = None
        for j in S:
            for i in range(cur.n, 0, -1):
                if i == i0 or i in S:
                    continue
                if cur.coefficient(i, j) != 0:
                    step = (i, j)
                    break
            if step:
                break
        if step is None:
            raise InvalidInput("form is disconnected around the pivot")
        ch.push("gabrielov", *step)
    for j in range(1, ch.q.n + 1):
        if j != i0 and ch.q.coefficient(i0, j) < 0:
            ch.push("sign", j)
    cur = ch.q
    assert all(
        cur.coefficient(i0, j) > (1 if j == i0 else 0) or j == i0
        for j in range(1, cur.n + 1)
    )
    assert cur.diag == diag


@dataclass(frozen=True)
class TechCPartition:
    """Partition of 1..n into the two-head-loop class and per-vertex classes."""

    m: int
    u2: tuple  # indices of class U^2_{1,-1}
    groups: tuple  # entry v-2 is (plus, minus) for vertex v = 2..m

    def all_parts(self):
        yield (2, 1, -1), self.u2
        for v, (plus, minus) in enumerate(self.groups, start=2):
            yield (1, v, 1), plus
            yield (1, v, -1), minus


def techc_partition(q: IntegralQuadraticForm) -> TechCPartition:
    """Inductive partition of a saturated type-C form (pivot at index 1).

    Index t joins: the loop class if q_t = 2; the class of a neighbour i with
    q_it = 2; the opposite side of a neighbour i with q_it = 0; or a fresh
    class when q_it = 1 throughout. The coefficient law is verified at the
    end and failure signals that the input was not of type C.
    """
    if q.diag[0] != 2 or any(q.coefficient(1, j) <= 0 for j in range(2, q.n + 1)):
        raise InvalidInput("techc_partition needs q_1 = 2 and q_1j > 0 for all j")
    u2 = [1]
    groups: list[tuple[list, list]] = []
    for t in range(2, q.n + 1):
        if q.diag[t - 1] == 2:
            u2.append(t)
            continue
        if q.diag[t - 1] != 1:
            raise NotTypeC(f"diagonal coefficient q_{t} not in {{1, 2}}")
        singles = [i for plus, minus in groups for i in plus + minus]
        hit2 = next((i for i in sorted(singles) if q.coefficient(i, t) == 2), None)
        if hit2 is not None:
            v, eps = _locate(groups, hit2)
            side = groups[v - 2][0 if eps == 1 else 1]
            side.append(t)
            continue
        hit0 = next((i for i in sorted(singles) if q.coefficient(i, t) == 0), None)
        if hit0 is not None:
            v, eps = _locate(groups, hit0)
            side = groups[v - 2][1 if eps == 1 else 0]
            side.append(t)
            continue
        if all(q.coefficient(i, t) == 1 for i in singles):
            groups.append(([t], []))
            continue
        raise NotTypeC(f"coefficient pattern at index {t} fits no case")
    part = TechCPartition(
        m=len(groups) + 1,
        u2=tuple(u2),
        groups=tuple((tuple(p), tuple(mn)) for p, mn in groups),
    )
    _verify_partition_law(q, part)
    return part


def _locate(groups, idx):
    for v, (plus, minus) in enumerate(groups, start=2):
        if idx in plus:
            return v, 1
        if idx in minus:
            return v, -1
    raise AssertionError


def _verify_partition_law(q, part):
    where = {}
    for key, members in part.all_parts():
        for i in members:
            where[i] = key
    if set(where) != set(range(1, q.n + 1)):
        raise NotTypeC("partition does not cover all indices")
    if not part.u2:
        raise NotTypeC("loop class is empty")
    for v, (plus, minus) in enumerate(part.groups, start=2):
        if not plus and not minus:
            raise NotTypeC(f"class of vertex {v} is empty")
    for i in range(1, q.n + 1):
        for j in range(i, q.n + 1):
            k, v, eps = where[i]
            k2, v2, eps2 = where[j]
            if v == v2:
                expected = (k * abs(eps + eps2)) // (2 if i == j else 1)
            else:
                expected = k * k2
            if q.coefficient(i, j) != expected:
                raise NotTypeC(
                    f"coefficient law fails at ({i}, {j}): "
                    f"{q.coefficient(i, j)} != {expected}"
                )


def star_realization(q: IntegralQuadraticForm, rep: FormAnalysis | None = None):
    """G-transformation T and graph B' with q∘T = incidence form of B'.

    B' consists of two-head loops at vertex 1, directed arrows v -> 1 and
    two-head arrows v -- 1, according to the saturated partition.
    """
    ch, part = _star_chase(q, rep)
    return GTransform(ch.M, ch.steps), ch.q, ch.B, part


def _star_chase(q: IntegralQuadraticForm, rep: FormAnalysis | None):
    """The steps of `star_realization` as a chase ending at B', and the partition."""
    rep = rep or analyze(q)
    if not rep.non_negative:
        raise NotNonNegative("type-C realization needs a non-negative form")
    if not _is_type_c(rep, q):
        raise NotTypeC("form is not of Dynkin type C")
    ch = _Chase(q)
    pivot = next(i for i in range(1, q.n + 1) if q.diag[i - 1] == 2)
    if pivot != 1:
        pi = list(range(1, q.n + 1))
        pi[0], pi[pivot - 1] = pi[pivot - 1], pi[0]
        ch.push("perm", tuple(pi))
    _saturate(ch, 1)
    part = techc_partition(ch.q)
    ends = [None] * q.n
    for i in part.u2:
        ends[i - 1] = ((1, -1), (1, -1))
    for v, (plus, minus) in enumerate(part.groups, start=2):
        for i in plus:
            ends[i - 1] = ((v, 1), (1, -1))
        for i in minus:
            ends[i - 1] = ((v, -1), (1, -1))
    ch.B = BidirectedGraph(part.m, ends)
    assert ch.B.incidence_form() == ch.q
    return ch, part


def realize(q: IntegralQuadraticForm, rep: FormAnalysis | None = None) -> BidirectedGraph:
    """A bidirected graph whose incidence form is exactly q.

    Unit forms of type A/D are realized by a depth-first search over
    incidence rows, indexed by vertex (`_realize_unit_backtracking`); type E
    is rejected. Non-unit type-C forms go through the saturated
    partition and are pulled back with inverse graph transformations.
    """
    rep = rep or analyze(q)
    if not rep.non_negative:
        raise NotNonNegative("realize needs a non-negative form")
    if not rep.connected or not rep.irreducible:
        raise InvalidInput("realize needs a connected irreducible form")
    if rep.unit:
        typ, _ = dynkin_type(q, rep)
        if typ.family == "E":
            raise NotIncidenceForm(f"unit forms of type {typ} are not incidence forms")
        m = rep.rank + 1 if typ.family == "A" else rep.rank
        B = _realize_unit_backtracking(q, m)
        if B is None:
            raise AssertionError("backtracking realizer found no graph")
        assert B.incidence_form() == q
        return B
    T, cur, B, _ = star_realization(q, rep)
    for step in reversed(T.steps):
        B = apply(B, undo(step))
    assert B.incidence_form() == q
    return B


def _realize_unit_backtracking(q: IntegralQuadraticForm, m: int):
    """Assign incidence rows e_u*eps + e_u2*eps2 matching all Gram products.

    Arrows are processed in a breadth-first order of the form's bigraph, so
    each arrow after the first has a placed bigraph neighbour; fresh vertices
    are used in increasing order with their first sign pinned to +1
    (switching symmetry). The depth-first search over candidate rows, in
    lexicographic (u, u2, e, e2) order, runs on an explicit stack.

    Placed rows are indexed by vertex. A row that shares no vertex with a
    candidate has product 0 with it, so a candidate is generated only if it
    meets the row of one placed neighbour, and is compared only with the rows
    at its two vertices, among which every placed neighbour (G_ij != 0) must
    be. The first graph found is the one a check against every placed row
    finds.
    """
    n = q.n
    order = _bigraph_bfs_order(q)
    off = q.off
    rank = {i: k for k, i in enumerate(order)}
    earlier = [[] for _ in range(n + 1)]  # i -> its bigraph neighbours placed before it
    for a, b in off:
        if rank[a] < rank[b]:
            earlier[b].append(a)
        else:
            earlier[a].append(b)
    at = [{} for _ in range(m + 1)]  # vertex -> {placed arrow: its end sign there}
    rows = {}

    def fits(i, ends):
        (u, e), (u2, e2) = ends
        at_u, at_u2 = at[u], at[u2]
        for j in earlier[i]:
            if j not in at_u and j not in at_u2:
                return False
        for j, s in at_u.items():
            if e * s + e2 * at_u2.get(j, 0) != off.get((i, j) if i < j else (j, i), 0):
                return False
        for j, s in at_u2.items():
            if j not in at_u and e2 * s != off.get((i, j) if i < j else (j, i), 0):
                return False
        return True

    def candidates(i, used):
        top = min(used + 1, m)
        (a, _), (b, _) = rows[earlier[i][0]]
        pairs = {(min(x, y), max(x, y)) for x in (a, b) for y in range(1, top + 1) if y != x}
        for u, u2 in sorted(pairs):
            fresh = u2 == used + 1
            for e in (1, -1):
                for e2 in ((1,) if fresh else (1, -1)):
                    yield ((u, e), (u2, e2))

    def place(i, ends):
        rows[i] = ends
        for u, e in ends:
            at[u][i] = e

    def unplace(i):
        for u, _ in rows.pop(i):
            del at[u][i]

    # one level per placed arrow: (candidates left, vertices used before it)
    levels = [(iter((((1, 1), (2, -1)),)), 0)]
    while levels:
        k = len(levels) - 1
        cands, used = levels[-1]
        i = order[k]
        if i in rows:  # back from a subtree that failed
            unplace(i)
        for ends in cands:
            new_used = max(used, ends[1][0])  # ends[0][0] < ends[1][0]
            if new_used > m or not fits(i, ends):
                continue
            if k + 1 == n:
                if new_used == m:
                    place(i, ends)
                    return BidirectedGraph(m, [rows[j] for j in range(1, n + 1)])
                continue
            place(i, ends)
            levels.append((candidates(order[k + 1], new_used), new_used))
            break
        else:
            levels.pop()
    return None


def _bigraph_bfs_order(q):
    order, _ = traverse(bigraph_of(q).adjacency(), 1)
    if len(order) != q.n:
        raise InvalidInput("form is not connected")
    return order


# -- canonical reduction of type C (seven steps) ----------------------------


def _directed_star(q: IntegralQuadraticForm, rep: FormAnalysis):
    """Steps 1-4 shared by both type-C normal forms: returns (chase, r, c1, c2).

    After them the graph has the loop as arrow 1, one directed arrow v -> 1
    for each vertex v >= 3 as arrows 2..r-1, the c1 + 1 parallel arrows
    2 -> 1 as arrows r..r+c1, then the c2 extra two-head loops.
    """
    # step 1: the star realization
    ch, part = _star_chase(q, rep)
    loop_arrow = part.u2[0]
    # step 2: turn every two-head arrow v--1 into a directed arrow v->1
    for _, minus in part.groups:
        for j in sorted(minus):
            ch.push("gabrielov", loop_arrow, j)
            ch.push("sign", j)
    # step 3: move parallel extras of groups v >= 3 into group 2
    multi, *others = [sorted(plus) + sorted(minus) for plus, minus in part.groups]
    anchor = min(multi)
    singles = []
    for arrows in others:
        keep = min(arrows)
        for j in arrows:
            if j != keep:
                ch.push("gabrielov", anchor, j)
                ch.push("gabrielov", keep, j)
                ch.push("sign", j)
                multi.append(j)
        singles.append(keep)
    # step 4: relabel arrows into canonical order
    multi.sort()
    extra_loops = [i for i in part.u2 if i != loop_arrow]
    new_order = [loop_arrow] + singles + multi + extra_loops
    if new_order != list(range(1, q.n + 1)):
        ch.push("perm", tuple(new_order))
    return ch, len(singles) + 2, len(multi) - 1, len(extra_loops)


def canonical_c(q: IntegralQuadraticForm):
    """G-transformation onto the canonical (c1,c2)-extension of type C.

    Returns (T, r, c1, c2) with q∘T equal to the incidence form of the
    canonical graph; c1 + c2 = crk(q) and c2 = dl(q) - 1. The final equality
    is asserted, not assumed.
    """
    rep = analyze(q)
    ch, r, c1, c2 = _directed_star(q, rep)
    # step 5: extras of the multi group become two-tail arrows
    for k in range(1, c1 + 1):
        ch.push("gabrielov", 1, r + k)
    # step 6: walk the loop down the chain
    for i in range(1, r):
        ch.push("gabrielov", i + 1, i)
    # step 7: flip remaining loops from two-head to two-tail
    for k in range(1, c2 + 1):
        ch.push("sign", r + c1 + k)
    target = canonical_c_graph(r, c1, c2).incidence_form()
    M = ch.M
    assert ch.q == target
    assert q.compose(M) == target
    assert c1 + c2 == rep.corank
    assert c2 == rep.dotted_loops - 1
    return GTransform(M, ch.steps), r, c1, c2


def dynkin_plus_zero(q: IntegralQuadraticForm, variant: str = "C"):
    """Z-equivalence S with q∘S = q_{C_r} + zero^c (or q_{D_r} + zero^c).

    The matrix S is unimodular but not in general a G-transformation: the
    table rewrites that strip loops are plain Z-equivalences.
    """
    if variant not in ("C", "D"):
        raise InvalidInput("variant must be 'C' or 'D'")
    ch, r, c1, c2 = _directed_star(q, analyze(q))
    # step 1': parallel extras become directed loops (rewrite S^+_{r, r+k})
    for k in range(1, c1 + 1):
        ch.push("rewrite", r, r + k, 1)
    # step 2': extra two-head loops become directed loops (rewrite S^+_{1, ...})
    for k in range(1, c2 + 1):
        ch.push("rewrite", 1, r + c1 + k, 1)
    # step 3': walk the loop down the chain
    for i in range(1, r):
        ch.push("gabrielov", i + 1, i)
    if variant == "C":
        target = canonical_c_graph(r, 0, 0).incidence_form()
    elif r < 4:
        raise InvalidInput("variant 'D' needs rank >= 4")
    else:
        ch.push("rewrite", 2, 1, -1)
        target = dynkin_unit_form("D", r)
    if c1 + c2:
        target = target.direct_sum(zero_form(c1 + c2))
    M = ch.M
    assert ch.q == target
    assert q.compose(M) == target
    return M, target
