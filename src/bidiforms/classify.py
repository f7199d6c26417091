"""Dynkin-type classification, Gabrielov calculus and incidence realizations.

Covers the form-level Gabrielov transformation with its coefficient update,
A/D/E typing of unit forms by the determinant of q on Z^n / rad q, the
type-C test, realization of forms as incidence forms, the canonical
(c1,c2)-extension reduction and the Dynkin-plus-zero Z-equivalences. One
Fincke-Pohst enumeration on an explicit stack lists the x with q(x) = d of a
positive form: the solver takes its first hit (`first_root_with_value`), and
the exact root sets (`positive_roots_by_value`, `one_root_count`) are kept as
an independent oracle for the determinant typing.

The type-C reductions run on one step chase (`_Chase`). Both normal forms
share steps 1-4 (`_directed_star`); `canonical_c` then adds G-steps and
`dynkin_plus_zero` loop-stripping rewrites. Every arrow of the star graph
B' meets vertex 1, so the forms are dense, and a type-C pass keeps one set
of Gram rows (`_Rows`) from its first thaw to its last check: a Gabrielov
or rewrite step is row j -= c row i with its column written back, a sign
step negates a row and column, a perm reorders both in place, and the
matrix is a list of columns. The graph changes in place too
(`bidigraph._Arrows`, each vertex's arrows with their incidence entries),
and a step that rewrites arrow j is checked on row j alone (`_row_matches`),
by induction as strong as a check of the whole incidence form. The star
realization that starts every type-C function is built once per form and
kept, with its saturated rows, for the last form (`_star_snapshot`): one
pass over the rows writes the partition and B' (`_star_graph`), which is
checked against them arrow by arrow, and `_directed_star` resumes a chase
from a copy of them. The target of `canonical_c` and its rows are built
once per (r, c1, c2) (`_canonical_target`); q∘M = target is still checked
with `q.compose(M)`. The public updates (`gabrielov_update`,
`GTransform.then_*`) check their indices, then run the same row update on
a thawed copy. Every `GTransform` the library builds skips the determinant
check: its matrix is a product of elementary steps. The public functions
take the form alone and read its analysis from the cache of `analyze`.

Unit forms of type A/D are realized by a depth-first search over incidence
rows that indexes the placed rows by vertex and generates only the rows
that the products with the placed rows force (`_UnitRows.candidates`): by
the Whitney-type theorem for line graphs up to switching, a real choice is
left only near the first arrows. Positive cores are found by a deletion
search that reads the rank of each restriction off the radical. Both run on
explicit stacks. Forms, graphs and matrices derived here from valid data
are built without the constructors' checks (`IntegralQuadraticForm._trusted`,
`BidirectedGraph._trusted`, `IntMatrix._trusted`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, compress
from math import isqrt

from .bidigraph import (
    BidirectedGraph,
    _Arrows,
    canonical_c as canonical_c_graph,
    undo,
)
from .errors import (
    InvalidInput,
    NotCoxRegular,
    NotIncidenceForm,
    NotNonNegative,
    NotPositive,
    NotTypeC,
    as_int,
    int_tuple,
    json_int,
)
from .exact_linalg import IntMatrix
from .qform import (FormAnalysis, IntegralQuadraticForm, _gram_rows, _rows_form, analyze, form_adjacency,
                    traverse, zero_form)


# -- elementary transformations on rows and columns ------------------------


def _gabrielov_ratio(q: IntegralQuadraticForm, i: int, j: int) -> int:
    """`_ratio` of a form's q_ij and q_i; InvalidInput unless i, j are distinct variables of q."""
    if i == j:
        raise InvalidInput(f"bad off-diagonal index pair ({i}, {j})")
    return _ratio(q.coefficient(i, j), q.diag[i - 1], i, j)


def _ratio(qij: int, qi: int, i: int, j: int) -> int:
    """qij / qi, or 0 when qi = 0; NotCoxRegular if the quotient is not integral."""
    if qi == 0:
        return 0
    if qij % qi != 0:
        raise NotCoxRegular(f"q_{i}{j} = {qij} is not divisible by q_{i} = {qi}")
    return qij // qi


class _Rows:
    """A form changed in place, held as its Gram matrix (thawed from q, or
    given): `rows[i - 1]` lists the G_ik, G_ik = q_ik for k != i, G_ii = 2 q_i.

    A step rewrites one row and its column, in O(n), a perm reorders rows and
    columns in place; no step checks its indices, so the public steps check
    theirs first. `freeze` wraps the rows in a form without the checks,
    in O(n^2), kept until the next change.
    """

    __slots__ = ("n", "rows", "_q")

    def __init__(self, q: IntegralQuadraticForm, rows=None):
        self.n = q.n
        self.rows = _gram_rows(q) if rows is None else rows
        self._q = q

    def freeze(self) -> IntegralQuadraticForm:
        if self._q is None:
            self._q = _rows_form(self.rows)
        return self._q

    def permute(self, pi) -> None:
        """x ↦ x with new variable k the old variable pi(k), pi a permutation."""
        rows, idx = self.rows, [p - 1 for p in pi]
        rows[:] = [list(map(row.__getitem__, idx)) for row in map(rows.__getitem__, idx)]
        self._q = None

    def shear(self, i: int, j: int, c: int) -> None:
        """x ↦ x with E_j replaced by E_j - c E_i, i != j: G_kj -= c G_ki for k != j,
        and G_jj += c^2 G_ii - 2c G_ij."""
        if c:
            ri, rj = self.rows[i - 1], self.rows[j - 1]
            new = [a - c * b for a, b in zip(rj, ri)]
            new[j - 1] = rj[j - 1] + c * (c * ri[i - 1] - 2 * rj[i - 1])
            self._put(j, new)

    def negate(self, i: int) -> None:
        """x_i ↦ -x_i: the coefficients at i change sign."""
        new = [-a for a in self.rows[i - 1]]
        new[i - 1] = -new[i - 1]
        self._put(i, new)

    def _put(self, j: int, new: list) -> None:
        """Row j of the Gram matrix becomes `new`, and column j with it."""
        rows = self.rows
        rows[j - 1] = new
        for row, v in zip(rows, new):
            row[j - 1] = v
        self._q = None


class _Chase:
    """A chain of steps from a form: the product M of their matrices, the
    steps, the current form q∘M and, once set, a graph B realizing it.

    The form is held as dense `_Rows` (thawed from q, or given as its Gram
    `rows`), and M as a list of columns, from the columns `cols` of a matrix
    (by default the identity): a Gabrielov or rewrite step updates one
    column, a sign step negates one and a perm reorders them, and the rows,
    in place. M, q and B are built only when read. Once `graph` is set
    (`bidigraph._Arrows`), each step is applied to it in place too, and a
    Gabrielov or rewrite step is checked on row j alone (`_row_matches`).
    """

    __slots__ = ("cols", "steps", "form", "graph")

    def __init__(self, q: IntegralQuadraticForm, cols=None, rows=None):
        if cols is None:
            cols = [(0,) * j + (1,) + (0,) * (q.n - j - 1) for j in range(q.n)]
        self.cols = cols
        self.steps = []
        self.form = _Rows(q, rows)
        self.graph = None

    @property
    def M(self) -> IntMatrix:
        return IntMatrix._trusted(tuple(zip(*self.cols)))

    @property
    def q(self) -> IntegralQuadraticForm:
        return self.form.freeze()

    def push(self, *step):
        """Apply one tagged step with valid indices. Gabrielov (i, j): column j -=
        (q_ij / q_i) column i; rewrite (i, j, eps): column j -= eps column i;
        sign i: column i is negated; perm pi: column b becomes the old column pi(b)."""
        tag, f, cols = step[0], self.form, self.cols
        if tag in ("gabrielov", "rewrite"):
            i, j = step[1], step[2]
            row = f.rows[i - 1]
            c = _ratio(row[j - 1], row[i - 1] // 2, i, j) if tag == "gabrielov" else step[3]
            f.shear(i, j, c)
            if c:
                cols[j - 1] = tuple([a - c * b for a, b in zip(cols[j - 1], cols[i - 1])])
        elif tag == "sign":
            i = step[1]
            f.negate(i)
            cols[i - 1] = tuple([-a for a in cols[i - 1]])
        else:
            pi = step[1]
            f.permute(pi)
            cols[:] = [cols[p - 1] for p in pi]
        self.steps.append(step)
        if self.graph is not None:
            self.graph.push(step)
            assert tag not in ("gabrielov", "rewrite") or _row_matches(self.graph, self.form, step[2])


def _row_matches(B: _Arrows, f: _Rows, j: int) -> bool:
    """Whether row j of the Gram matrix of f is that of the incidence form of B.

    Only arrows at an end of arrow j can have a nonzero product with it, so
    the row of B is summed from the incidence entries of the arrows at those
    ends (`_Arrows.at`), in O(deg), and compared with row j of f as a list.
    Checked for every j, it is the check that B realizes f.
    """
    got, at = [0] * f.n, B.at
    for v in {v for v, _ in B.ends[j - 1]}:  # each end vertex of arrow j once
        c = at[v][j]
        if c:
            for k, s in at[v].items():
                got[k - 1] += c * s
    return got == f.rows[j - 1]


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

    @classmethod
    def _trusted(cls, matrix: IntMatrix, steps) -> "GTransform":
        """The matrix M and steps of a `_Chase` from a unimodular matrix, unchecked.

        `_Chase.push` takes only elementary steps (a shear with i != j, a sign
        step inside 1..n, a permutation that the chase builds or `_then`
        checks), so M, their product with it, is unimodular by construction.
        """
        T = object.__new__(cls)
        object.__setattr__(T, "matrix", matrix)
        object.__setattr__(T, "steps", tuple(steps))
        return T

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
        return GTransform._trusted(IntMatrix.identity(n), ())

    def _then(self, q_current, step):
        """The one check of a step's indices before `_Chase.push` takes it."""
        if q_current.n != self.n:
            raise InvalidInput(f"a form on {q_current.n} variables for a transform of size {self.n}")
        if step[0] == "gabrielov":
            _gabrielov_ratio(q_current, step[1], step[2])  # refuses what the rows would misread
        elif step[0] == "sign" and not 1 <= step[1] <= self.n:
            raise InvalidInput(f"sign step index {step[1]} out of range")
        elif step[0] == "perm" and sorted(step[1]) != list(range(1, self.n + 1)):
            raise InvalidInput("not a permutation of 1..n")
        ch = _Chase(q_current, list(zip(*self.matrix.entries)))
        ch.push(*step)
        return GTransform._trusted(ch.M, self.steps + (step,)), ch.q

    def then_gabrielov(self, q_current: IntegralQuadraticForm, i: int, j: int):
        """Append a Gabrielov step at (i, j) of the current form; returns (T', q')."""
        return self._then(q_current, ("gabrielov", as_int(i), as_int(j)))

    def then_sign(self, q_current, i):
        return self._then(q_current, ("sign", as_int(i)))

    def then_perm(self, q_current, pi):
        return self._then(q_current, ("perm", int_tuple(pi)))

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
    i, j = as_int(i), as_int(j)
    c = _gabrielov_ratio(q, i, j)
    f = _Rows(q)
    f.shear(i, j, c)
    return f.freeze()  # q itself when c = 0 (q_i = 0 or q_ij = 0): T_ij fixes q


def gabrielov(q: IntegralQuadraticForm, i: int, j: int):
    """Elementary Gabrielov transformation of q at (i, j): returns (q', T)."""
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


def _fincke_pohst(q: IntegralQuadraticForm, d: int):
    """Every x with q(x) = d >= 1 for a positive form, depth first (Fincke-Pohst).

    On the exact LDL data, x^tr G x = 2d is a sum of terms d_i (x_i + s_i)^2,
    the shift s_i fixed by x_{i+1..n-1}. Levels n-1..1 walk the integer
    interval where the term fits what is left, centre-outward: round(-s_i),
    then up, then down. x_0 closes by a perfect-square test, left_0 / d_0 =
    r^2, and takes -s_0 + r, then -s_0 - r. One candidate iterator per level
    on an explicit stack.
    """
    dd, u = _ldl(q.gram())
    n = q.n
    x = [0] * n
    left = [Fraction(2 * d)] * n  # left[i]: what levels i..0 must make up
    shift = [0] * n
    todo = [iter(())] * n
    i = n - 1
    while True:
        s = sum(u[i][j] * x[j] for j in range(i + 1, n) if x[j])
        if i == 0:
            r = left[0] / dd[0]
            num, den = r.numerator, r.denominator
            rn, rd = isqrt(num), isqrt(den)
            if rn * rn == num and rd * rd == den:
                root = Fraction(rn, rd)
                for cand in (-s + root, -s - root) if rn else (-s,):
                    if cand.denominator == 1:
                        x[0] = int(cand)
                        yield tuple(x)
            i = 1
        else:
            # integers t with (b t + a)^2 <= left_i b^2 / d_i, where s = a/b
            a, b = s.numerator, s.denominator
            bound = left[i] * b * b / dd[i]
            w = isqrt(bound.numerator // bound.denominator)
            lo, hi = -((w + a) // b), (w - a) // b
            c = round(-s)
            shift[i] = s
            todo[i] = chain(range(c, hi + 1), range(c - 1, lo - 1, -1)) if lo <= hi else iter(())
        while i < n:
            xi = next(todo[i], None)
            if xi is not None:
                break
            i += 1
        else:
            return
        x[i] = xi
        left[i - 1] = left[i] - dd[i] * (xi + shift[i]) ** 2
        i -= 1


def positive_roots_by_value(q: IntegralQuadraticForm, dmax: int) -> dict:
    """All x with 1 <= q(x) <= dmax for a positive form: {d: frozenset of vectors}."""
    return {v: frozenset(_fincke_pohst(q, v)) for v in range(1, dmax + 1)}


def one_root_count(q: IntegralQuadraticForm) -> int:
    """|R_q(1)| for a positive form."""
    return len(positive_roots_by_value(q, 1)[1])


def first_root_with_value(q: IntegralQuadraticForm, d: int):
    """Some x with q(x) = d for a positive form, or None: the first the enumeration meets."""
    if d == 0:
        return (0,) * q.n
    return next(_fincke_pohst(q, d), None)


# -- Dynkin types ------------------------------------------------------------


@dataclass(frozen=True)
class DynkinType:
    family: str  # 'A', 'D', 'E' or 'C'
    rank: int

    def __post_init__(self):
        object.__setattr__(self, "rank", as_int(self.rank))
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
    r = as_int(r)
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


def dynkin_type(q: IntegralQuadraticForm):
    """Dynkin type and corank of a connected non-negative form.

    Unit forms are typed A/D/E by the determinant of q on Z^n / rad q, which
    `analyze` reads off its own elimination (`FormAnalysis.positive_det`):
    that lattice carries the positive part of q, of rank r. A connected
    positive unit form is Z-equivalent to exactly one Dynkin form (Barot and
    de la Peña), and Z-equivalence keeps the determinant, which is r+1 for
    A_r, 4 for D_r and 9-r for E_r (no two agree at one rank). Non-unit forms
    must be irreducible Cox-regular and are typed C by the direct coefficient
    conditions. The 1-root counts r(r+1), 2r(r-1) and 72/126/240 of
    `one_root_count` give the same typing and serve as its test oracle.
    """
    rep = analyze(q)
    if not rep.non_negative:
        raise NotNonNegative("dynkin_type needs a non-negative form")
    if not rep.connected:
        raise InvalidInput("dynkin_type needs a connected form")
    r, c = rep.rank, rep.corank
    if rep.unit:
        det = rep.positive_det
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


def positive_core(q: IntegralQuadraticForm) -> list[int]:
    """Index set X with q^X positive, connected and of full rank.

    For type C the core is the breadth-first spanning tree of a realization
    plus its first bidirected loop; otherwise the first X of an ascending
    depth-first variable deletion, each deleted set tested on the radical
    basis (`_greedy_core`). That core is unimodular: the radical rows at the
    deleted variables have determinant +-1, so q^X is Z-equivalent to the
    positive part of q and has the Dynkin type of q.
    """
    rep = analyze(q)
    if not rep.non_negative:
        raise NotNonNegative("positive_core needs a non-negative form")
    if not rep.connected:
        raise InvalidInput("positive_core needs a connected form")
    if rep.rank == 0:
        raise InvalidInput("positive_core needs a form of positive rank")
    if rep.corank == 0:
        return list(range(1, q.n + 1))
    if not rep.unit and _is_type_c(rep, q):
        B = realize(q)
        _, parent = traverse(B.adjacency(), 1)
        X = sorted({p[1] for p in parent.values() if p} | {B.bidirected_loops()[0]})
        sub = analyze(q.restrict(X))
        assert sub.corank == 0 and sub.connected and sub.rank == rep.rank
        return X
    return _greedy_core(q, rep)


def _greedy_core(q, rep):
    """The first X found by deleting variables in ascending depth-first order
    with q^X connected, of rank r = rk q and of corank 0, whose deleted rows
    of the radical basis have determinant +-1.

    q is PSD, so q^X has kernel {z in the radical : z_d = 0 for d in D}, D the
    deleted set: q^X keeps rank r iff the rows at D of the radical basis are
    linearly independent, which each node of the search tests by their
    (Bareiss) rank, and has corank 0 once |D| = crk q. Connectivity is
    checked with `traverse` on X; no restriction is analyzed.
    At a leaf the rows at D must be unimodular: then Z^X maps onto
    Z^n / rad q, so q^X is Z-equivalent to the positive part of q and has
    its Dynkin type (by Barot and de la Peña such an X exists). A leaf
    whose rows have a larger determinant spans a sublattice of finite index,
    which can have another type (an extended E_8 form has an index-2 core
    of type D_8). The search runs on an explicit stack.
    """
    n, c = q.n, rep.corank
    radical_rows = [None] + [tuple(z[v - 1] for z in rep.radical_basis) for v in range(1, n + 1)]
    adj = form_adjacency(q)

    def connected(X):
        within = {v: [(w, edge) for w, edge in adj[v] if w in X] for v in X}
        return len(traverse(within, min(X))[0]) == len(X)

    # one level per deleted variable: (X, the radical rows at the deleted variables, v left)
    levels = [(frozenset(range(1, n + 1)), (), iter(range(1, n + 1)))]
    while levels:
        X, deleted, rest = levels[-1]
        for v in rest:
            rows = IntMatrix._trusted(deleted + (radical_rows[v],))
            if rows.rank() < rows.rows:
                continue
            Y = X - {v}
            if not connected(Y):
                continue
            if rows.rows == c:
                if abs(rows.det()) == 1:
                    return sorted(Y)
                continue
            levels.append((Y, rows.entries, iter(sorted(Y))))
            break
        else:
            levels.pop()
    raise AssertionError("no positive connected core found")


# -- the pivot/partition machinery for type C --------------------------------


def pivot_saturate(q: IntegralQuadraticForm, i0: int):
    """Rigid G-transformation T with (q∘T)_{i0,j} > 0 for all j != i0.

    Gabrielov steps shrink the zero set S = {j : q_{i0 j} = 0}; sign
    inversions then fix the signs. Diagonal coefficients are untouched.
    """
    i0 = as_int(i0)
    rep = analyze(q)
    if not rep.connected:
        raise InvalidInput("pivot_saturate needs a connected form")
    if not rep.cox_regular:
        raise InvalidInput("pivot_saturate needs a Cox-regular form")
    if q.coefficient(i0, i0) == 0:
        raise InvalidInput("pivot variable must have a nonzero diagonal")
    ch = _Chase(q)
    _saturate(ch, i0)
    return ch.q, GTransform._trusted(ch.M, ch.steps)


def _saturate(ch: _Chase, i0: int) -> None:
    """The steps of `pivot_saturate`, pushed onto ch.

    Each Gabrielov step (i, j) takes the first j of the zero set S and the
    largest i outside S with q_ij != 0. It changes only row and column j,
    and makes q_{i0 j} = -(q_ij / q_i) q_{i0 i} nonzero, so S loses exactly j.
    """
    rows, n = ch.form.rows, ch.form.n
    diag, pivot = [rows[k][k] for k in range(n)], rows[i0 - 1]  # the pivot row is written, never replaced
    S = [j for j in range(1, n + 1) if j != i0 and not pivot[j - 1]]
    zero = set(S)
    while S:
        for j in S:
            row = rows[j - 1]
            i = next((i for i in compress(range(n, 0, -1), reversed(row)) if i not in zero), None)
            if i is not None:
                break
        else:
            raise InvalidInput("form is disconnected around the pivot")
        ch.push("gabrielov", i, j)
        assert pivot[j - 1]
        S.remove(j)
        zero.remove(j)
    for j in [j for j in range(1, n + 1) if j != i0 and pivot[j - 1] < 0]:
        ch.push("sign", j)
    assert all(pivot[j - 1] > 0 for j in range(1, n + 1) if j != i0)
    assert [rows[k][k] for k in range(n)] == diag


@dataclass(frozen=True)
class TechCPartition:
    """Partition of 1..n into the two-head-loop class and per-vertex classes."""

    m: int
    u2: tuple  # indices of class U^2_{1,-1}
    groups: tuple  # entry v-2 is (plus, minus) for vertex v = 2..m


def techc_partition(q: IntegralQuadraticForm) -> TechCPartition:
    """Inductive partition of a saturated type-C form (pivot at index 1).

    The partition of `_star_graph`; NotTypeC unless q is the incidence form
    of its star graph B', which is the coefficient law of the partition.
    """
    if q.diag[0] != 2 or any(q.coefficient(1, j) <= 0 for j in range(2, q.n + 1)):
        raise InvalidInput("techc_partition needs q_1 = 2 and q_1j > 0 for all j")
    B, part = _star_graph(_gram_rows(q))
    if B.incidence_form() != q:
        raise NotTypeC("form is not the incidence form of the star graph of its partition")
    return part


def _star_graph(rows):
    """The star graph B' of a saturated form, given by the rows of its Gram
    matrix, and its partition, not yet checked against the form.

    Index t joins: the loop class if q_t = 2; the class of a neighbour i with
    q_it = 2; the opposite side of a neighbour i with q_it = 0; or a fresh
    class when q_it = 1 throughout. Its arrow of B' is a two-head loop at 1,
    or, in the class of vertex v, the arrow v -> 1 (plus side) or v -- 1
    (minus side). Every class is non-empty and the loop class holds 1 by
    construction, so q is of type C with this partition exactly when it is
    the incidence form of B': loop by loop 4, loop by arrow 2, two arrows at
    one vertex 2 (same side) or 0, at two vertices 1, and diagonals 2 and 1.
    """
    loop = ((1, -1), (1, -1))
    u2 = [1]
    ends = [loop]
    groups: list[tuple[list, list]] = []
    where = {}  # each index placed in a group, ascending -> (group, 0 plus or 1 minus side)
    for t in range(2, len(rows) + 1):
        row = rows[t - 1]
        if row[t - 1] == 4:
            u2.append(t)
            ends.append(loop)
            continue
        if row[t - 1] != 2:
            raise NotTypeC(f"diagonal coefficient q_{t} not in {{1, 2}}")
        hit2 = next((i for i in where if row[i - 1] == 2), None)
        hit0 = None if hit2 is not None else next((i for i in where if row[i - 1] == 0), None)
        if hit2 is not None:
            g, side = where[hit2]
        elif hit0 is not None:
            g, side = where[hit0]
            side = 1 - side
        elif all(row[i - 1] == 1 for i in where):
            g, side = len(groups), 0
            groups.append(([], []))
        else:
            raise NotTypeC(f"coefficient pattern at index {t} fits no case")
        groups[g][side].append(t)
        where[t] = (g, side)
        ends.append(((1, -1), (g + 2, 1 - 2 * side)))  # normalized: vertex 1 first
    part = TechCPartition(
        m=len(groups) + 1,
        u2=tuple(u2),
        groups=tuple((tuple(p), tuple(mn)) for p, mn in groups),
    )
    return BidirectedGraph._trusted(part.m, tuple(ends)), part


def star_realization(q: IntegralQuadraticForm):
    """G-transformation T and graph B' with q∘T = incidence form of B'.

    B' consists of two-head loops at vertex 1, directed arrows v -> 1 and
    two-head arrows v -- 1, according to the saturated partition.
    """
    cols, steps, _, form, B, part = _checked_star(q, analyze(q))
    return GTransform._trusted(IntMatrix._trusted(tuple(zip(*cols))), steps), form, B, part


def _checked_star(q: IntegralQuadraticForm, rep: FormAnalysis):
    """The star snapshot of q, once its analysis `rep` shows that q is of type C."""
    if not rep.non_negative:
        raise NotNonNegative("type-C realization needs a non-negative form")
    if not _is_type_c(rep, q):
        raise NotTypeC("form is not of Dynkin type C")
    return _star_snapshot(q)


@lru_cache(maxsize=1)
def _star_snapshot(q: IntegralQuadraticForm):
    """The star chase of a type-C form: (columns of M, steps, Gram rows of q∘M, q∘M, B', partition).

    Every type-C function on q starts from it, so a pass of them over one
    form, such as `realize` and then `canonical_c`, runs it once; the last
    form is all such a pass needs kept; a chase resumes from a copy of its
    rows.
    """
    ch = _Chase(q)
    pivot = next(i for i in range(1, q.n + 1) if q.diag[i - 1] == 2)
    if pivot != 1:
        pi = list(range(1, q.n + 1))
        pi[0], pi[pivot - 1] = pi[pivot - 1], pi[0]
        ch.push("perm", tuple(pi))
    _saturate(ch, 1)
    B, part = _star_graph(ch.form.rows)
    graph = _Arrows(B)  # the check of B's incidence form, one row at a time
    assert all(_row_matches(graph, ch.form, j) for j in range(1, q.n + 1))
    return tuple(ch.cols), tuple(ch.steps), ch.form.rows, _rows_form(ch.form.rows), B, part


def realize(q: IntegralQuadraticForm) -> BidirectedGraph:
    """A bidirected graph whose incidence form is exactly q.

    Unit forms of type A/D are realized by a depth-first search over
    incidence rows, indexed by vertex (`_realize_unit_backtracking`); type E
    is rejected. Non-unit type-C forms go through the saturated
    partition and are pulled back with inverse graph transformations,
    applied in place (`_Arrows`) and frozen once.
    """
    rep = analyze(q)
    if not rep.non_negative:
        raise NotNonNegative("realize needs a non-negative form")
    if not rep.connected or not rep.irreducible:
        raise InvalidInput("realize needs a connected irreducible form")
    if rep.unit:
        typ, _ = dynkin_type(q)
        if typ.family == "E":
            raise NotIncidenceForm(f"unit forms of type {typ} are not incidence forms")
        m = rep.rank + 1 if typ.family == "A" else rep.rank
        B = _realize_unit_backtracking(q, m)
        if B is None:
            raise AssertionError("backtracking realizer found no graph")
        assert B.incidence_form() == q
        return B
    _, steps, _, _, B, _ = _checked_star(q, rep)
    graph = _Arrows(B)
    for step in reversed(steps):
        graph.push(undo(step))
    B = graph.freeze()
    assert B.incidence_form() == q
    return B


def _realize_unit_backtracking(q: IntegralQuadraticForm, m: int):
    """Assign incidence rows e_u*eps + e_u2*eps2 matching all Gram products.

    Arrows are processed in the breadth-first order of the form's bigraph,
    so each arrow after the first has a placed bigraph
    neighbour; fresh vertices are used in increasing order with their first
    sign pinned to +1 (switching symmetry). The depth-first search runs on
    an explicit stack over the rows that `_UnitRows.candidates` forces, in
    lexicographic (u, u2, e, e2) order, each checked by `_UnitRows.fits`.
    Those are the rows of a search that tries every row meeting a placed
    neighbour that can fit, in the same order, so the first graph found is
    the one a check of every row against every placed row finds. By the
    Whitney-type theorem for line graphs the choice is real only near the
    first arrows; every later arrow has few candidates.
    """
    n = q.n
    order = traverse(form_adjacency(q), 1)[0]  # `realize` has checked that q is connected
    placed = _UnitRows(q, m, order)
    # one level per placed arrow: (candidates left, vertices used before it)
    levels = [(iter((((1, 1), (2, -1)),)), 0)]
    while levels:
        k = len(levels) - 1
        cands, used = levels[-1]
        i = order[k]
        if i in placed.rows:  # back from a subtree that failed
            placed.unplace(i)
        for ends in cands:
            new_used = max(used, ends[1][0])  # ends[0][0] < ends[1][0]
            if new_used > m or not placed.fits(i, ends):
                continue
            if k + 1 == n:
                if new_used == m:
                    placed.place(i, ends)
                    return BidirectedGraph._trusted(m, tuple(placed.rows[j] for j in range(1, n + 1)))
                continue
            placed.place(i, ends)
            levels.append((iter(placed.candidates(order[k + 1], new_used)), new_used))
            break
        else:
            levels.pop()
    return None


def _row_order(ends):
    """The (u, u2, e, e2) order of the search: vertices ascending, then each sign +1 first."""
    (u, e), (u2, e2) = ends
    return (u, u2, -e, -e2)


class _UnitRows:
    """The incidence rows placed so far by `_realize_unit_backtracking`, indexed
    by vertex: `rows` maps an arrow to its normalized ends, `at[v]` maps each
    arrow at v to its end sign there, and `earlier[i]` lists the bigraph
    neighbours of i placed before it, smallest first.
    """

    __slots__ = ("off", "m", "earlier", "rows", "at")

    def __init__(self, q: IntegralQuadraticForm, m: int, order):
        rank = {i: k for k, i in enumerate(order)}
        self.earlier = earlier = [[] for _ in range(q.n + 1)]
        for a, b in q.off:
            if rank[a] < rank[b]:
                earlier[b].append(a)
            else:
                earlier[a].append(b)
        self.off = q.off
        self.m = m
        self.rows = {}
        self.at = [{} for _ in range(m + 1)]

    def place(self, i, ends):
        self.rows[i] = ends
        for u, e in ends:
            self.at[u][i] = e

    def unplace(self, i):
        for u, _ in self.rows.pop(i):
            del self.at[u][i]

    def fits(self, i, ends):
        """Whether row `ends` for arrow i has its Gram product with every placed row.

        A placed row that shares no vertex with it has product 0, so only the
        rows at its two vertices are compared, and every placed neighbour of
        i must be among them.
        """
        (u, e), (u2, e2) = ends
        at_u, at_u2, off = self.at[u], self.at[u2], self.off
        for j in self.earlier[i]:
            if j not in at_u and j not in at_u2:
                return False
        for j, s in at_u.items():
            if e * s + e2 * at_u2.get(j, 0) != off.get((i, j) if i < j else (j, i), 0):
                return False
        for j, s in at_u2.items():
            if j not in at_u and e2 * s != off.get((i, j) if i < j else (j, i), 0):
                return False
        return True

    def candidates(self, i, used):
        """The rows for arrow i, with `used` vertices placed, that its products force,
        sorted in the search order; among them is every row that fits.

        The row meets the first placed neighbour j0 with product c, nonzero and,
        in a non-negative unit form, at most 2 in absolute value. For |c| = 2
        it is c/2 times the row of j0. For |c| = 1 it has one end x at j0, with
        sign c times the sign of j0 there, and its other end y off j0. If a
        placed neighbour is not at x, y is one of its two ends. Else a placed
        row at x with product 0 must cancel at y, so y is its other end. Else
        every row at y is at x: y is fresh or the other end of a row at x. The
        sign at y is read off the product with a row at y that is not at x;
        a fresh end keeps +1, and with no such row both signs are tried.
        """
        off, rows, at, near = self.off, self.rows, self.at, self.earlier[i]
        j0 = near[0]
        c = off[(i, j0) if i < j0 else (j0, i)]
        if c in (2, -2):
            (a, ea), (b, eb) = rows[j0]
            return [((a, c // 2 * ea), (b, c // 2 * eb))]
        fresh = used + 1 if used < self.m else None
        found = set()
        ends0 = (rows[j0][0][0], rows[j0][1][0])
        for x, ex in rows[j0]:
            at_x = at[x]
            j = next((j for j in near if j not in at_x), None)
            if j is not None:
                ys = [v for v, _ in rows[j]]
            else:
                zero = next((k for k in at_x if not off.get((i, k) if i < k else (k, i))), None)
                ys = [v for k in (at_x if zero is None else (zero,)) for v, _ in rows[k] if v != x]
                if zero is None and fresh:
                    ys.append(fresh)
            for y in ys:
                if y in ends0:  # a row with both ends at j0 has product 0 or +-2 with it
                    continue
                if y == fresh:
                    signs = (1,)
                else:
                    k = next((k for k in at[y] if k not in at_x), None)
                    if k is None:
                        signs = (1, -1)
                    else:
                        ck = off.get((i, k) if i < k else (k, i), 0)
                        if ck not in (1, -1):
                            continue
                        signs = (ck * at[y][k],)
                for ey in signs:
                    found.add(((x, c * ex), (y, ey)) if x < y else ((y, ey), (x, c * ex)))
        return sorted(found, key=_row_order)


# -- canonical reduction of type C (seven steps) ----------------------------


def _directed_star(q: IntegralQuadraticForm, rep: FormAnalysis):
    """Steps 1-4 shared by both type-C normal forms: returns (chase, r, c1, c2).

    After them the graph has the loop as arrow 1, one directed arrow v -> 1
    for each vertex v >= 3 as arrows 2..r-1, the c1 + 1 parallel arrows
    2 -> 1 as arrows r..r+c1, then the c2 extra two-head loops.
    """
    # step 1: the star realization, resumed as a fresh chase on a copy of its rows
    cols, steps, rows, form, B, part = _checked_star(q, rep)
    ch = _Chase(form, list(cols), [row[:] for row in rows])
    ch.steps = list(steps)
    ch.graph = _Arrows(B)
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


@lru_cache(maxsize=64)
def _canonical_target(r: int, c1: int, c2: int):
    """The incidence form of C_r^{c1,c2} and its Gram rows, only ever compared."""
    target = canonical_c_graph(r, c1, c2).incidence_form()
    return target, _gram_rows(target)


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
    target, target_rows = _canonical_target(r, c1, c2)
    M = ch.M
    assert ch.form.rows == target_rows
    assert q.compose(M) == target
    assert c1 + c2 == rep.corank
    assert c2 == rep.dotted_loops - 1
    return GTransform._trusted(M, ch.steps), r, c1, c2


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
        target = _canonical_target(r, 0, 0)[0]
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
