"""Dynkin-type classification, Gabrielov calculus and incidence realizations.

Covers the form-level Gabrielov transformation with its coefficient update,
typing of unit forms (A/D off their graphs, E by the determinant of q on
Z^n / rad q), the type-C test, realization of forms as incidence forms, the
canonical (c1,c2)-extension reduction and the Dynkin-plus-zero
Z-equivalences. One Fincke-Pohst enumeration on an explicit stack lists the
x with q(x) = d of a positive form, over the LDL factor that
`exact_linalg._bareiss` leaves (`_ldl`): the solver takes its first hit
(`first_root_with_value`), and the exact root sets (`positive_roots_by_value`,
`one_root_count`) are kept as an independent oracle for the typing.

The type-C reductions run on one step chase (`_Chase`). Both normal forms
share steps 1-4 (`_directed_star`); `canonical_c` then adds G-steps and
`dynkin_plus_zero` loop-stripping rewrites. Every arrow of the star graph B'
meets vertex 1, so the forms are dense, and a type-C pass keeps one set of
Gram rows in its chase from its first thaw to its last check: a Gabrielov or
rewrite step is row j -= c row i with its column written back, a sign step
negates a row and column, a perm reorders both in place, and the matrix is a
list of columns. The graph changes in place too (`bidigraph._Arrows`, each
vertex's arrows with their incidence entries), and a step that rewrites
arrow j is checked on row j alone (`_row_matches`), by induction as strong
as a check of the whole incidence form. The star realization that starts
every type-C function is built once per form and kept, with its saturated
rows, for the last form (`_star_snapshot`): one pass over the rows writes
the partition and B' (`_star_graph`), which is checked against them arrow by
arrow through an `_Arrows` index of B'. The snapshot holds values only (the
rows as tuples, B' frozen): `_directed_star` thaws the rows into a chase of
its own, and it and `realize`'s pull-back each index B' anew. The target of
`canonical_c` and its rows, as tuples, are built once per (r, c1, c2)
(`_canonical_target`); q∘M = target is still checked with `q.compose(M)`.
The public steps (`gabrielov_update`, `gabrielov`, `GTransform.then_*`)
check their indices (`_step`), then take one push on a chase thawed from
their form and from the columns they return (`_checked_push`). Every
`GTransform` the library builds, or unpickles, skips the determinant check:
its matrix is a product of elementary steps. The public functions take the
form alone, and a graph certifies each form they type or
realize: a connected unit form that is an incidence form, at any rank, takes
its graph from one realizer search (`_unit_graph`, cached for the last
form), which certifies q >= 0, the rank and the type A or D; a form of type
C takes its star graph B' from the star chase (`_star_snapshot`), which
certifies q >= 0, the rank and the type C. `analyze` runs only when neither
is found: it words the refusals, and types a connected non-negative unit
form E.

Unit forms of type A/D are realized arrow by arrow over incidence rows
indexed by vertex, by one depth-first search on an explicit stack over the
rows that fit (`_UnitRows.fitting`): at most four, worked out from the
products with the placed rows, and every level tries them in lexicographic
order. Once the placed rows are rigid, the Whitney-type theorem for line
graphs up to switching leaves each later arrow at most one, so the search
is polynomial. Positive cores are found by
a deletion search on an explicit stack that reads the rank of each
restriction off the radical.
Forms, graphs and matrices derived here from valid data are built without
the constructors' checks (`IntegralQuadraticForm._trusted`,
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
from .exact_linalg import IntMatrix, _bareiss
from .qform import (FormAnalysis, IntegralQuadraticForm, _gram_rows, _rows_form, analyze, form_adjacency,
                    traverse, zero_form)


# -- elementary transformations on rows and columns ------------------------


def _ratio(qij: int, qi: int, i: int, j: int) -> int:
    """qij / qi, or 0 when qi = 0; NotCoxRegular if the quotient is not integral."""
    if qi == 0:
        return 0
    if qij % qi != 0:
        raise NotCoxRegular(f"q_{i}{j} = {qij} is not divisible by q_{i} = {qi}")
    return qij // qi


class _Chase:
    """A chain of steps from a form: the product M of their matrices, the
    steps, the current form q∘M and, once set, a graph B realizing it.

    The form is held as its Gram matrix, thawed from q or given as `rows`:
    `rows[i - 1]` lists the G_ik, G_ik = q_ik for k != i, G_ii = 2 q_i. M is
    held as a list of columns, from the columns `cols` of a matrix (by
    default the identity). A Gabrielov or rewrite step rewrites one row and
    its column of G and one column of M, in O(n), a sign step negates them,
    and a perm reorders both in place. No step checks its indices, so the
    public steps check theirs first (`_step`). M, q and B are built only
    when read: q wraps the rows in a form without the checks, in O(n^2),
    kept until the next change (given rows, nothing is frozen until q is
    read). Once `graph` is set (`bidigraph._Arrows`), each step is applied
    to it in place too, and a Gabrielov or rewrite step is checked on row j
    alone (`_row_matches`).
    """

    __slots__ = ("n", "rows", "cols", "steps", "graph", "_q")

    def __init__(self, q: IntegralQuadraticForm, cols=None, rows=None):
        self.n = q.n
        self.rows = _gram_rows(q) if rows is None else rows
        self._q = q if rows is None else None
        if cols is None:
            cols = [(0,) * j + (1,) + (0,) * (q.n - j - 1) for j in range(q.n)]
        self.cols = cols
        self.steps = []
        self.graph = None

    @property
    def M(self) -> IntMatrix:
        return IntMatrix._trusted(tuple(zip(*self.cols)))

    @property
    def q(self) -> IntegralQuadraticForm:
        if self._q is None:
            self._q = _rows_form(self.rows)
        return self._q

    def push(self, *step):
        """Apply one tagged step with valid indices. Gabrielov (i, j): E_j is
        replaced by E_j - c E_i, c = q_ij / q_i, so G_kj -= c G_ki for k != j
        and G_jj += c^2 G_ii - 2c G_ij, and column j of M -= c column i;
        rewrite (i, j, eps): the same with c = eps; sign i: row, column and
        column of M at i are negated, G_ii kept; perm pi: new variable b is
        the old variable pi(b), and column b of M the old column pi(b)."""
        tag, rows, cols = step[0], self.rows, self.cols
        if tag in ("gabrielov", "rewrite"):
            i, j = step[1], step[2]
            ri, rj = rows[i - 1], rows[j - 1]
            c = _ratio(ri[j - 1], ri[i - 1] // 2, i, j) if tag == "gabrielov" else step[3]
            if c:
                new = [a - c * b for a, b in zip(rj, ri)]
                new[j - 1] = rj[j - 1] + c * (c * ri[i - 1] - 2 * rj[i - 1])
                self._put(j, new)
                cols[j - 1] = tuple([a - c * b for a, b in zip(cols[j - 1], cols[i - 1])])
        elif tag == "sign":
            i = step[1]
            new = [-a for a in rows[i - 1]]
            new[i - 1] = -new[i - 1]
            self._put(i, new)
            cols[i - 1] = tuple([-a for a in cols[i - 1]])
        else:
            idx = [p - 1 for p in step[1]]
            rows[:] = [list(map(row.__getitem__, idx)) for row in map(rows.__getitem__, idx)]
            self._q = None
            cols[:] = [cols[k] for k in idx]
        self.steps.append(step)
        if self.graph is not None:
            self.graph.push(step)
            assert tag not in ("gabrielov", "rewrite") or _row_matches(self.graph, self, step[2])

    def _put(self, j: int, new: list) -> None:
        """Row j of the Gram matrix becomes `new`, and column j with it."""
        rows = self.rows
        rows[j - 1] = new
        for row, v in zip(rows, new):
            row[j - 1] = v
        self._q = None


def _row_matches(B: _Arrows, ch: _Chase, j: int) -> bool:
    """Whether row j of the chase's Gram matrix is that of the incidence form of B.

    Only arrows at an end of arrow j can have a nonzero product with it, so
    the row of B is summed from the incidence entries of the arrows at those
    ends (`_Arrows.at`), in O(deg), and compared with row j of ch as a list.
    Checked for every j, it is the check that B realizes the form.
    """
    got, at = [0] * ch.n, B.at
    for v in {v for v, _ in B.ends[j - 1]}:  # each end vertex of arrow j once
        c = at[v][j]
        if c:
            for k, s in at[v].items():
                got[k - 1] += c * s
    return got == ch.rows[j - 1]


class GTransform:
    """Unimodular matrix with its factorization into elementary G-steps."""

    __slots__ = ("matrix", "steps")

    def __init__(self, matrix: IntMatrix, steps=()):
        if matrix.rows != matrix.cols:
            raise InvalidInput("G-transformation matrix must be square")
        steps = tuple(_step(step, matrix.rows) for step in steps)
        if matrix.det() not in (1, -1):
            raise InvalidInput("G-transformation matrix must be unimodular")
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "steps", steps)

    @classmethod
    def _trusted(cls, matrix: IntMatrix, steps) -> "GTransform":
        """The matrix M and steps of a `_Chase` from a unimodular matrix, unchecked.

        `_Chase.push` takes only elementary steps (a shear with i != j, a sign
        step inside 1..n, a permutation that the chase builds or `_step`
        checks), so M, their product with it, is unimodular by construction.
        """
        T = object.__new__(cls)
        object.__setattr__(T, "matrix", matrix)
        object.__setattr__(T, "steps", tuple(steps))
        return T

    def __setattr__(self, name, value):
        raise AttributeError("GTransform is immutable")

    def __reduce__(self):
        # a pickled transform is one the library held, so it rebuilds without the determinant
        return (GTransform._trusted, (self.matrix, self.steps))

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
        """`step` taken on the current form by `_checked_push`, from M."""
        if q_current.n != self.n:
            raise InvalidInput(f"a form on {q_current.n} variables for a transform of size {self.n}")
        ch = _checked_push(q_current, step, list(zip(*self.matrix.entries)))
        return GTransform._trusted(ch.M, self.steps + tuple(ch.steps)), ch.q

    def then_gabrielov(self, q_current: IntegralQuadraticForm, i: int, j: int):
        """Append a Gabrielov step at (i, j) of the current form; returns (T', q')."""
        return self._then(q_current, ("gabrielov", i, j))

    def then_sign(self, q_current, i):
        return self._then(q_current, ("sign", i))

    def then_perm(self, q_current, pi):
        return self._then(q_current, ("perm", pi))

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


_STEP_FIELDS = {"gabrielov": 2, "sign": 1, "perm": 1}


def _step(step, n: int) -> tuple:
    """`step` as a G-step on variables 1..n with each index an int by `as_int`:
    ("gabrielov", i, j) with i != j, ("sign", i), or ("perm", pi) with pi a
    permutation. InvalidInput names a step of any other shape."""
    tag = step[0] if isinstance(step, (tuple, list)) and step else None
    if type(tag) is not str or len(step) != 1 + _STEP_FIELDS.get(tag, -1):
        raise InvalidInput(f"malformed G-step {step!r}")
    try:
        fields = (int_tuple(step[1]),) if tag == "perm" else int_tuple(step[1:])
    except TypeError:  # a perm that is not a sequence
        raise InvalidInput(f"malformed G-step {step!r}") from None
    if tag == "gabrielov":
        i, j = fields
        if i == j:
            raise InvalidInput(f"bad off-diagonal index pair ({i}, {j})")
        if not (1 <= i <= n and 1 <= j <= n):
            raise InvalidInput(f"index out of range: ({i}, {j})")
    elif tag == "sign" and not 1 <= fields[0] <= n:
        raise InvalidInput(f"sign step index {fields[0]} out of range")
    elif tag == "perm" and sorted(fields[0]) != list(range(1, n + 1)):
        raise InvalidInput("not a permutation of 1..n")
    return (tag, *fields)


def _checked_push(q: IntegralQuadraticForm, step, cols=None) -> _Chase:
    """A chase from q, and from the columns `cols` of a matrix (the identity
    by default), that has taken one public G-step: its indices checked by
    `_step`, then, for a Gabrielov step, its integral ratio by the push."""
    step = _step(step, q.n)
    ch = _Chase(q, cols)
    ch.push(*step)
    return ch


def gabrielov_update(q: IntegralQuadraticForm, i: int, j: int) -> IntegralQuadraticForm:
    """Coefficients of q' = q∘T_ij: diagonal fixed, column j updated, q'_ij = -q_ij."""
    # no matrix is returned, so the chase carries n empty columns, which every push keeps empty
    return _checked_push(q, ("gabrielov", i, j), [()] * q.n).q  # q itself when q_i = 0 or q_ij = 0


def gabrielov(q: IntegralQuadraticForm, i: int, j: int):
    """Elementary Gabrielov transformation of q at (i, j): returns (q', T)."""
    ch = _checked_push(q, ("gabrielov", i, j))
    return ch.q, GTransform._trusted(ch.M, ch.steps)


# -- exact root enumeration for positive forms ------------------------------


@lru_cache(maxsize=64)
def _ldl(q: IntegralQuadraticForm):
    """Exact LDL data of a positive form: x^tr G x = sum d_i (x_i + sum_j u_ij x_j)^2.

    Read off the rows of `exact_linalg._bareiss` on G, which swaps no row once
    `analyze` has found q positive definite. The cache holds the factors of
    the last 64 forms. `solve` asks for the positive core of a form at each
    request, and a core seldom comes back once its form's requests are done
    (2 of the 152 met in 8 solve_sweep blocks of seed 7): 64 entries hit as
    often as 512 (5,930 / 150 over 8 blocks) and hold about 0.6 MB less.
    """
    rep = analyze(q)
    if not rep.non_negative or rep.corank:
        raise NotPositive("Gram matrix is not positive definite")
    a, n = _bareiss(_gram_rows(q))[2], q.n
    d = tuple(Fraction(a[k][k], a[k - 1][k - 1] if k else 1) for k in range(n))
    u = tuple(tuple(Fraction(a[k][j], a[k][k]) if j > k else Fraction(0) for j in range(n)) for k in range(n))
    return d, u


def _fincke_pohst(q: IntegralQuadraticForm, d: int):
    """Every x with q(x) = d >= 1 for a positive form, depth first (Fincke-Pohst).

    On the exact LDL data, x^tr G x = 2d is a sum of terms d_i (x_i + s_i)^2,
    the shift s_i fixed by x_{i+1..n-1}. Levels n-1..1 walk the integer
    interval where the term fits what is left, centre-outward: round(-s_i),
    then up, then down. x_0 closes by a perfect-square test, left_0 / d_0 =
    r^2, and takes -s_0 + r, then -s_0 - r. One candidate iterator per level
    on an explicit stack.
    """
    dd, u = _ldl(q)
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
    if (dmax := as_int(dmax)) < 0:
        raise InvalidInput("positive_roots_by_value needs dmax >= 0")
    _ldl(q)  # refuses a form that is not positive, at dmax = 0 too
    return {v: frozenset(_fincke_pohst(q, v)) for v in range(1, dmax + 1)}


def one_root_count(q: IntegralQuadraticForm) -> int:
    """|R_q(1)| for a positive form."""
    return len(positive_roots_by_value(q, 1)[1])


def first_root_with_value(q: IntegralQuadraticForm, d: int):
    """Some x with q(x) = d for a positive form, or None: the first the enumeration meets."""
    if (d := as_int(d)) < 0:
        raise InvalidInput("first_root_with_value needs d >= 0")
    if d == 0:
        _ldl(q)  # refuses a form that is not positive, as every d >= 1 does
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


def _type_c_shape(q: IntegralQuadraticForm) -> bool:
    """The coefficient conditions of type C: q connected, fully regular, with
    q_i in {1, 2} taking both values (not unit, content 1), and q_ij^2 <=
    4 q_i q_j, which q >= 0 needs. Such a form is of type C iff q >= 0."""
    d = q.diag
    return (
        set(d) == {1, 2}
        and all(not v % (p := d[i - 1] * d[j - 1]) and v * v <= 4 * p for (i, j), v in q.off.items())
        and len(traverse(form_adjacency(q), 1)[0]) == q.n
    )


def _is_type_c(rep: FormAnalysis, q: IntegralQuadraticForm) -> bool:
    return rep.non_negative and _type_c_shape(q)


def dynkin_type(q: IntegralQuadraticForm):
    """Dynkin type and corank of a connected non-negative form.

    A connected unit form with a graph B on m vertices (`_unit_graph`) is
    typed off it, with no elimination: A_{m-1} if B is balanced, D_m if not.
    By the first main theorem every other connected non-negative unit form
    is of type E; the determinant of q on Z^n / rad q, which `analyze` reads
    off its own elimination (`FormAnalysis.positive_det`), certifies it:
    that lattice carries the positive part of q, of rank r, which is
    Z-equivalent to exactly one Dynkin form (Barot and de la Peña), and
    Z-equivalence keeps the determinant, 9-r for E_r. A form of type C is
    typed off its star graph B' on m vertices (`_star_snapshot`), also with
    no elimination: C_m, of corank n - m. Every other form is refused, with
    the reason read off `analyze`. The 1-root counts r(r+1), 2r(r-1) and
    72/126/240 of `one_root_count` give the same typing and serve as its
    test oracle.
    """
    found = _unit_graph(q)
    if found is not None:
        B, beta = found
        r = B.m - beta
        return DynkinType("A" if beta else "D", r), q.n - r
    star = _star_snapshot(q)
    if star is not None:
        m = star[4].m  # the vertices of B', its partition's m
        return DynkinType("C", m), q.n - m
    rep = analyze(q)
    if not rep.non_negative:
        raise NotNonNegative("dynkin_type needs a non-negative form")
    if not rep.connected:
        raise InvalidInput("dynkin_type needs a connected form")
    if rep.unit:
        r, det = rep.rank, rep.positive_det
        assert r in (6, 7, 8) and det == 9 - r, f"a unit form with no graph has determinant {det} in rank {r}"
        return DynkinType("E", r), rep.corank
    if not rep.irreducible or not rep.cox_regular:
        raise InvalidInput(
            "dynkin_type needs a unit form or an irreducible Cox-regular form"
        )
    assert not _is_type_c(rep, q), "the analysis says type C, but the form has no star graph"
    raise NotTypeC("non-unit form does not satisfy the type-C conditions")


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
    linearly independent, and has corank 0 once |D| = crk q. One Bareiss
    elimination per node gives their rank and, at a leaf, their determinant.
    Connectivity is checked with `traverse` on X; no restriction is analyzed.
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
            rows = deleted + (radical_rows[v],)
            rank, det, _ = _bareiss(rows)
            if rank < len(rows):
                continue
            Y = X - {v}
            if not connected(Y):
                continue
            if len(rows) == c:  # c x c of full rank: det is its determinant
                if abs(det) == 1:
                    return sorted(Y)
                continue
            levels.append((Y, rows, iter(sorted(Y))))
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
    if not 1 <= i0 <= q.n:
        raise InvalidInput(f"index out of range: ({i0}, {i0})")
    rep = analyze(q)
    if not rep.connected:
        raise InvalidInput("pivot_saturate needs a connected form")
    if not rep.cox_regular:  # so q_i0 > 0
        raise InvalidInput("pivot_saturate needs a Cox-regular form")
    ch = _Chase(q)
    _saturate(ch, i0)
    return ch.q, GTransform._trusted(ch.M, ch.steps)


def _saturate(ch: _Chase, i0: int) -> None:
    """The steps of `pivot_saturate`, pushed onto ch.

    Each Gabrielov step (i, j) takes the first j of the zero set S and the
    largest i outside S with q_ij != 0. It changes only row and column j,
    and makes q_{i0 j} = -(q_ij / q_i) q_{i0 i} nonzero, so S loses exactly j.
    """
    rows, n = ch.rows, ch.n
    diag, pivot = [rows[k][k] for k in range(n)], rows[i0 - 1]  # the pivot row is written, never replaced
    S = [j for j in range(1, n + 1) if j != i0 and not pivot[j - 1]]
    zero = set(S)
    while S:
        for j in S:
            row = rows[j - 1]
            i = next((i for i in compress(range(n, 0, -1), reversed(row)) if i not in zero), None)
            if i is not None:
                break
        # Both callers check that q is connected, and a Gabrielov step keeps the Gram
        # graph connected: an edge k-j vanishes only when G_kj = c G_ki != 0, and then
        # the edge k-i, which the step leaves alone, and the edge i-j, whose entry
        # becomes -q_ij != 0, still join k to j. So some j in S meets a row outside S.
        assert i is not None, "form is disconnected around the pivot"
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
    cols, steps, rows, star, part = _star_snapshot(q) or _not_type_c(q)
    T = GTransform._trusted(IntMatrix._trusted(tuple(zip(*cols))), steps)
    return T, _rows_form(rows), star, part


def _not_type_c(q: IntegralQuadraticForm, rep: FormAnalysis | None = None):
    """Raise the refusal of a type-C function on a form with no star snapshot, off its analysis."""
    rep = rep or analyze(q)
    if not rep.non_negative:
        raise NotNonNegative("type-C realization needs a non-negative form")
    assert not _is_type_c(rep, q), "the analysis says type C, but the form has no star graph"
    raise NotTypeC("form is not of Dynkin type C")


@lru_cache(maxsize=1)
def _star_snapshot(q: IntegralQuadraticForm):
    """The star chase of a type-C form: (columns of M, steps, Gram rows of q∘M
    as tuples, B' as the frozen graph that the row check ran on, partition),
    or None. q∘M itself is frozen only by `star_realization`.

    Only a form of `_type_c_shape` is chased. B', checked against the
    saturated rows, is connected and unbalanced on m vertices: it certifies
    q >= 0 and rank m. A chase that fails (NotTypeC, NotCoxRegular, a row
    that does not match) gives None. Every type-C function on q starts from
    it, so a pass of them over one form runs it once; it holds no state
    that a caller can change.
    """
    if not _type_c_shape(q):
        return None
    ch = _Chase(q)
    pivot = next(i for i in range(1, q.n + 1) if q.diag[i - 1] == 2)
    if pivot != 1:
        pi = list(range(1, q.n + 1))
        pi[0], pi[pivot - 1] = pi[pivot - 1], pi[0]
        ch.push("perm", tuple(pi))
    try:
        _saturate(ch, 1)
        B, part = _star_graph(ch.rows)
    except (NotTypeC, NotCoxRegular):
        return None
    graph = _Arrows(B)  # the check of B's incidence form, one row at a time
    if not all(_row_matches(graph, ch, j) for j in range(1, q.n + 1)):
        return None
    return tuple(ch.cols), tuple(ch.steps), tuple(map(tuple, ch.rows)), B, part


def realize(q: IntegralQuadraticForm) -> BidirectedGraph:
    """A bidirected graph whose incidence form is exactly q.

    A connected unit form takes the graph of `_unit_graph`; one with no
    graph is of type E (`dynkin_type`) and is rejected. A form of type C
    takes the star graph B' of `_star_snapshot`, pulled back with inverse
    graph transformations, applied in place (`_Arrows`) and frozen once.
    Every other form is refused, with the reason read off `analyze`.
    """
    found = _unit_graph(q)
    if found is not None:
        return found[0]
    snapshot = _star_snapshot(q)
    if snapshot is None:
        rep = analyze(q)
        if not rep.non_negative:
            raise NotNonNegative("realize needs a non-negative form")
        if not rep.connected or not rep.irreducible:
            raise InvalidInput("realize needs a connected irreducible form")
        if rep.unit:
            raise NotIncidenceForm(f"unit forms of type {dynkin_type(q)[0]} are not incidence forms")
        _not_type_c(q, rep)
    _, steps, _, star, _ = snapshot
    graph = _Arrows(star)
    for step in reversed(steps):
        graph.push(undo(step))
    B = graph.freeze()
    assert B.incidence_form() == q
    return B


@lru_cache(maxsize=1)
def _unit_graph(q: IntegralQuadraticForm):
    """(B, β) for a connected unit form q that the unit realizer realizes on m
    vertices, β = 1 if B is balanced and 0 if not; else None, and the callers
    take the path of `analyze`, where the form is of type E or refused.

    B is checked against q, so it certifies q >= 0, and by the first main
    theorem the type: A_{m-1} if B is balanced, D_m if not. A_3 = D_3, which
    `dynkin_type` names A_3 and `realize` realizes on 4 vertices, so when the
    first graph is unbalanced on 3 vertices the search runs again on 4, where
    every graph of rank 3 is balanced. Only forms with every |q_ij| <= 2,
    which every non-negative unit form has and `_UnitRows.fitting` needs,
    and with a connected bigraph, which `_UnitRows` assumes, reach the
    search. β is read off the rows in their placement order with `_switched`
    (`balance` would build a witness). The cache keeps the last form: a pass
    types a form, then realizes it, and never interleaves two.
    """
    n = q.n
    if any(d != 1 for d in q.diag) or any(not -2 <= v <= 2 for v in q.off.values()):
        return None
    order = traverse(form_adjacency(q), 1)[0]
    if len(order) < n:
        return None
    B = _realize_unit_backtracking(q, order=order)
    if B is None:
        return None
    signs = (0, 1)
    for i in order:
        signs = _switched(signs, B.ends[i - 1])
        if signs is None:
            break
    beta = int(signs is not None)
    if B.m == 3 and not beta:
        B, beta = _realize_unit_backtracking(q, 4, order), 1
        assert B is not None, "a form of type A_3 has a graph on 4 vertices"
    assert B.incidence_form() == q
    return B, beta


def _realize_unit_backtracking(q: IntegralQuadraticForm, m: int | None = None, order=None):
    """Assign incidence rows e_u*eps + e_u2*eps2 matching all Gram products.

    The rows use the vertices 1..m; with no bound m, fresh vertices run up
    to n + 1, the search takes the first complete graph whatever its vertex
    count, and returns it on the vertices it used. By the first main
    theorem, at rank r >= 4, where det A_r = r + 1 != 4 = det D_r, every
    graph that realizes q has the same balance and m = r + [balanced]
    vertices. So the branches that the bound would cut need a vertex beyond
    m and all fail, and the first complete graph is the first graph on m
    vertices. The same holds at rank 1 and 2, where every graph is balanced
    (an unbalanced one has r >= 2 vertices, and on 2 its form's bigraph is
    disconnected); at rank 3 a graph is balanced on 4 vertices or unbalanced
    on 3 (A_3 = D_3).

    Arrows are processed in the breadth-first order of the form's bigraph,
    `order` if the caller has traversed it already, so each arrow after the
    first has a placed bigraph neighbour and the placed rows are connected
    on the vertices V' = {1..used} they touch; fresh vertices are used in
    increasing order with their first sign pinned to +1 (switching
    symmetry). The graph found is the first of a depth-first search on an
    explicit stack with one rule per level: it tries, in lexicographic
    (u, u2, e, e2) order, every row that fits, whose Gram product with every
    placed row is the one q asks for. In every state of the search
    `_UnitRows.fitting` returns exactly those rows, sorted.

    The search is polynomial by the Whitney-type theorem for line graphs up
    to switching: once the placed rows are rigid (unbalanced, or touching 5
    vertices or more) each later arrow has at most one row that fits.
    - two rows r, r' that fit arrow i have (r - r')·p_j = 0 for every
      placed row p_j;
    - the placed rows, connected on V', span Q^{V'} if they are unbalanced
      and the switched hyperplane s^⊥ if they are balanced (s their
      switching signs, `_switched`), so r - r' restricted to V' is 0 or λs;
    - r - r' has at most 4 nonzeros, so λs is impossible once |V'| >= 5;
    - outside V' a row that fits has at most one end, the fresh vertex
      used + 1 with its sign pinned to +1, so r = r'.
    Before that, an arrow parallel to a placed one (product +-2) has one
    row, and every other arrow takes a new pair of the at most 4 vertices,
    so a path through the search chooses at no more than 7 arrows (6 pairs
    and the arrow that makes the rows rigid), each among at most 4 rows: the
    search visits O(n) nodes with a choice and O(n) rigid tails of O(n deg)
    work each, and needs no budget, with or without a bound m.
    """
    if m is not None and m < 2:  # the first row takes vertices 1 and 2
        return None
    n = q.n
    order = order or traverse(form_adjacency(q), 1)[0]  # the callers have checked that q is connected
    placed = _UnitRows(q, n + 1 if m is None else m, order)
    # one level per placed arrow: (its rows left, vertices used before it)
    levels = [(iter((((1, 1), (2, -1)),)), 0)]
    while levels:
        k = len(levels) - 1
        rows, used = levels[-1]
        i = order[k]
        if i in placed.rows:  # back from a subtree that failed
            placed.unplace(i)
        for ends in rows:
            new_used = max(used, ends[1][0])  # ends[0][0] < ends[1][0]
            placed.place(i, ends)
            if k + 1 == n:
                if m is None or new_used == m:
                    return BidirectedGraph._trusted(new_used, tuple(map(placed.rows.__getitem__, range(1, n + 1))))
                placed.unplace(i)
                continue
            levels.append((iter(placed.fitting(order[k + 1], new_used)), new_used))
            break
        else:
            levels.pop()
    return None


def _switched(signs, ends):
    """The switching signs s (s_1 = +1, indexed by vertex) that make the placed
    rows and the row `ends` directed, e s_u = -e2 s_u2 at each arrow, or None
    if these rows are unbalanced; `signs` are those of the placed rows."""
    (u, e), (u2, e2) = ends
    if u2 == len(signs):  # a fresh vertex takes the sign that directs the row
        return signs + (-e * e2 * signs[u],)
    return signs if e * signs[u] == -e2 * signs[u2] else None


def _row_order(ends):
    """The (u, u2, e, e2) order of the search: vertices ascending, then each sign +1 first."""
    (u, e), (u2, e2) = ends
    return (u, u2, -e, -e2)


class _UnitRows:
    """The incidence rows placed so far by `_realize_unit_backtracking`, indexed
    by vertex: `rows` maps an arrow to its normalized ends, `at[v]` maps each
    arrow at v to its end sign there, and `prod[i]` maps each bigraph
    neighbour j of arrow i to q_ij. `earlier[i]` lists the neighbours of i
    before it in `order`, the breadth-first order of the form's bigraph from
    arrow 1, smallest first.
    """

    __slots__ = ("prod", "m", "earlier", "rows", "at")

    def __init__(self, q: IntegralQuadraticForm, m: int, order):
        self.prod = prod = [{} for _ in range(q.n + 1)]
        for (a, b), v in q.off.items():
            prod[a][b] = prod[b][a] = v
        rank = {i: k for k, i in enumerate(order)}
        self.earlier = earlier = [[] for _ in range(q.n + 1)]
        for a, b in q.off:  # ascending, so every list holds its neighbours smallest first
            if rank[a] < rank[b]:
                earlier[b].append(a)
            else:
                earlier[a].append(b)
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
        at_u, at_u2, prod = self.at[u], self.at[u2], self.prod[i]
        for j in self.earlier[i]:
            if j not in at_u and j not in at_u2:
                return False
        for j, s in at_u.items():
            if e * s + e2 * at_u2.get(j, 0) != prod.get(j, 0):
                return False
        for j, s in at_u2.items():
            if j not in at_u and e2 * s != prod.get(j, 0):
                return False
        return True

    def fitting(self, i, used):
        """Every row for arrow i that fits, with `used` vertices placed, sorted in
        the search order (`_row_order`): at most four rows, worked out in
        O(deg) from the placed rows and each checked by `fits`.

        The product c with the first placed neighbour j0 is nonzero and at
        most 2 in absolute value: the search runs on non-negative unit forms,
        which have every |q_ij| <= 2, and on the forms `_unit_graph` lets
        through, which it has checked to have them. For c = +-2 the
        row is c/2 times that of j0. Else it has one end x at j0, with sign ex =
        c times the sign of j0 there, and its other end y off j0, and one of
        three cases holds:
        - a placed row k at x whose product is off by d = q_ik - ex s (s its
          sign at x) meets the row at its other end too, so y is that end,
          with sign d times the sign of k there;
        - else y is on no row at x, and the first placed neighbour j not at x
          puts y among its ends, with the sign its product asks for;
        - else y meets no placed row, so it is the fresh vertex used + 1.
        """
        prod, rows, near, fits = self.prod[i], self.rows, self.earlier[i], self.fits
        j0 = near[0]
        c = prod[j0]
        (a, sa), (b, sb) = rows[j0]
        if c in (2, -2):
            ends = ((a, c // 2 * sa), (b, c // 2 * sb))
            return [ends] if fits(i, ends) else []
        found = []
        for x, ex, x2 in ((b, c * sb, a), (a, c * sa, b)):
            at_x = self.at[x]
            for k, s in at_x.items():
                d = prod.get(k, 0) - ex * s
                if d:
                    (u, e), (u2, e2) = rows[k]
                    y, t = (u2, e2) if u == x else (u, e)
                    ys = ((y, d * t),) if d in (1, -1) else ()
                    break
            else:
                for j in near:
                    if j not in at_x:  # the row meets j at an end other than x2
                        cj = prod[j]
                        ys = [(y, cj * t) for y, t in rows[j] if y != x2] if cj in (1, -1) else ()
                        break
                else:
                    ys = ((used + 1, 1),) if used < self.m else ()
            for y, ey in ys:
                ends = ((x, ex), (y, ey)) if x < y else ((y, ey), (x, ex))
                if fits(i, ends):
                    found.append(ends)
        if len(found) > 1:  # most levels have one row, which needs no sort
            found.sort(key=_row_order)
        return found


# -- canonical reduction of type C (seven steps) ----------------------------


def _directed_star(q: IntegralQuadraticForm):
    """Steps 1-4 shared by both type-C normal forms: returns (chase, r, c1, c2).

    After them the graph has the loop as arrow 1, one directed arrow v -> 1
    for each vertex v >= 3 as arrows 2..r-1, the c1 + 1 parallel arrows
    2 -> 1 as arrows r..r+c1, then the c2 extra two-head loops.
    """
    # step 1: the star realization, resumed as a fresh chase on its thawed rows
    cols, steps, rows, star, part = _star_snapshot(q) or _not_type_c(q)
    ch = _Chase(q, list(cols), [list(row) for row in rows])
    ch.steps = list(steps)
    ch.graph = _Arrows(star)
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
    """The incidence form of C_r^{c1,c2} and its Gram rows as tuples, only ever compared."""
    target = canonical_c_graph(r, c1, c2).incidence_form()
    return target, tuple(map(tuple, _gram_rows(target)))


def canonical_c(q: IntegralQuadraticForm):
    """G-transformation onto the canonical (c1,c2)-extension of type C.

    Returns (T, r, c1, c2) with q∘T equal to the incidence form of the
    canonical graph; c1 + c2 = crk(q) and c2 = dl(q) - 1. The chase starts
    from the star snapshot, so a form of type C is not analyzed; the final
    equality and c2, read off q.diag, are asserted, not assumed.
    """
    ch, r, c1, c2 = _directed_star(q)
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
    assert tuple(map(tuple, ch.rows)) == target_rows
    assert q.compose(M) == target
    assert c2 == sum(q.diag) - q.n - 1  # the dotted loops sum (q_i - 1), less one
    return GTransform._trusted(M, ch.steps), r, c1, c2


def dynkin_plus_zero(q: IntegralQuadraticForm, variant: str = "C"):
    """Z-equivalence S with q∘S = q_{C_r} + zero^c (or q_{D_r} + zero^c).

    The matrix S is unimodular but not in general a G-transformation: the
    table rewrites that strip loops are plain Z-equivalences.
    """
    if variant not in ("C", "D"):
        raise InvalidInput("variant must be 'C' or 'D'")
    ch, r, c1, c2 = _directed_star(q)
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
