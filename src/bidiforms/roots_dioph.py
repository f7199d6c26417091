"""Reflections, root-system certificates and the Diophantine solver q(x) = d.

Reflections at incidence roots intertwine with orthogonal vertex matrices;
positive incidence forms carry finite root systems of type A_n or C_n. The
solver routes type-C inputs of rank >= 4 through the canonical C_4 block and
a four-squares decomposition, positive unit cores through exact enumeration,
and everything else through the box search `qform._box_roots` under a budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt
from typing import Optional

from .bidigraph import BidirectedGraph, balance
from .classify import canonical_c, first_root_with_value, positive_core
from .errors import (
    InvalidInput,
    NotRepresented,
    NotTypeC,
    RadicalRoot,
    UnrepresentedWithinBound,
    as_int,
    int_tuple,
)
from .exact_linalg import IntMatrix
from .qform import IntegralQuadraticForm, _box_roots, _value, analyze
from .walks import Walk, roots_positive

# box points `_solve_brute` may search over its whole ladder of bounds; the
# brute-force solves of typical inputs need at most a few tens of thousands
BOX_POINT_BUDGET = 10**6

# q_{C_4} composed with this matrix is the sum-of-four-squares form; det = 2
LAGRANGE_BRIDGE = IntMatrix(
    [[-1, 0, 0, 1], [-1, -1, 0, 2], [0, 0, 0, 2], [0, 0, -1, 1]]
)


def reflect(q: IntegralQuadraticForm, x, y):
    """s_x(y) = y - (2 q(y,x)/q(x,x)) x, exact; ints when integral.

    Raises RadicalRoot when q(x) = 0. A non-integral image (possible for
    non-root vectors) is reported as a tuple of Fractions, not an error.
    """
    qxx = q.polarize(x, x)
    if qxx == 0:
        raise RadicalRoot("cannot reflect at a vector of value zero")
    k = 2 * q.polarize(y, x)
    image = [divmod(b * qxx - k * a, qxx) for a, b in zip(x, y)]  # y - (k / q(x, x)) x
    if all(r == 0 for _, r in image):
        return tuple(v for v, _ in image)
    return tuple(Fraction(v * qxx + r, qxx) for v, r in image)


@dataclass(frozen=True)
class ReflectionReport:
    root: tuple
    companion: IntMatrix


def companion(B: BidirectedGraph, x) -> ReflectionReport:
    """Orthogonal O^x with I(B)^tr s_x = O^x I(B)^tr for an incidence root x.

    O^x = I - 2 alpha alpha^tr / |alpha|^2 for alpha = I(B)^tr x; an alpha of
    norm 4 with four entries +-1 gives no integral O^x and is refused. An
    accepted alpha has norm 2, or norm 4 with one entry +-2, so s_x is integral.
    """
    x = int_tuple(x)
    I = B.incidence_matrix()
    alpha = I.transpose().matvec(x)
    norm2 = sum(a * a for a in alpha)
    if norm2 == 0:
        raise RadicalRoot("vector lies in the radical")
    if norm2 not in (2, 4):
        raise InvalidInput("vector is not an incidence root")
    m = B.m
    steps = [[divmod(2 * alpha[r] * alpha[c], norm2) for c in range(m)] for r in range(m)]
    if any(rest for row in steps for _, rest in row):  # norm 4 from four entries +-1
        raise InvalidInput("vector is not an incidence root")
    O = IntMatrix([[int(r == c) - steps[r][c][0] for c in range(m)] for r in range(m)])
    assert (O @ O.transpose()) == IntMatrix.identity(m)
    return ReflectionReport(tuple(x), O)


@dataclass(frozen=True)
class RootSystemReport:
    is_root_system: bool
    family: str
    rank: int
    nonzero_count: int


def root_system_report(B: BidirectedGraph) -> RootSystemReport:
    """Certify the nonzero incidence roots as a root system of type A_n or C_n.

    On a positive incidence form q(x, y) = <I^tr x, I^tr y> and I^tr is
    injective, so x -> I^tr x maps the roots isometrically into Z^m. They
    form A_n (a tree, m = n + 1) exactly when the images are
    S {e_s - e_t : s != t}, S the vertex signs that switch B to a quiver, and
    C_n (an unbalanced 1-tree) exactly when they are {+-e_s +- e_t : s < t}
    u {+-2 e_s}: the standard sets of Bourbaki, ch. VI 4. The images are read
    off the arrow ends, independently of the walks that built the roots.
    """
    rep = roots_positive(B)  # raises NotPositive when not a tree / 1-tree
    roots = [v for v in rep.vectors if any(v)]
    n, m = B.n, B.m
    images = set()
    for x in roots:
        y = [0] * m
        for c, ((u, e), (u2, e2)) in zip(x, B.ends):
            y[u - 1] += c * e
            y[u2 - 1] += c * e2
        images.add(tuple(y))
    if m == n + 1:
        family, S = "A", balance(B).quiver_switch.signs
        standard = {tuple(S[k] * ((k == s) - (k == t)) for k in range(m))
                    for s in range(m) for t in range(m) if s != t}
    else:
        family = "C"
        standard = {tuple(a * (k == s) + b * (k == t) for k in range(m))
                    for s in range(m) for t in range(s, m) for a in (1, -1) for b in (1, -1)
                    if s < t or a == b}
    if len(images) == len(roots) and images == standard:
        return RootSystemReport(True, family, n, len(roots))
    return RootSystemReport(False, "?", n, len(roots))


def walk_polarization(B: BidirectedGraph, w1: Walk, w2: Walk) -> int:
    """q(inc w1, inc w2) from endpoints and signs alone.

    Equals (E_s - sigma E_t)^tr (E_s' - sigma' E_t'), the case table of which
    covers all open/closed endpoint configurations.
    """
    if w1.graph != B or w2.graph != B:
        raise InvalidInput("walks must live on the given graph")
    s, t, sig = w1.start, w1.end, w1.sigma()
    s2, t2, sig2 = w2.start, w2.end, w2.sigma()
    val = 0
    if s == s2:
        val += 1
    if s == t2:
        val -= sig2
    if t == s2:
        val -= sig
    if t == t2:
        val += sig * sig2
    return val


def four_squares(d: int) -> tuple[int, int, int, int]:
    """Some (a, b, c, e) with a^2+b^2+c^2+e^2 = d, by descending brute force.

    An a whose remainder d - a^2 has the form 4^k (8m + 7) is skipped: no
    three squares make it up (Legendre), so the search under it finds nothing.
    """
    if (d := as_int(d)) < 0:
        raise InvalidInput("four_squares needs d >= 0")
    for a in range(isqrt(d), -1, -1):
        r1 = d - a * a
        t = r1
        while t and t % 4 == 0:
            t //= 4
        if t % 8 == 7:
            continue
        for b in range(min(a, isqrt(r1)), -1, -1):
            r2 = r1 - b * b
            for c in range(min(b, isqrt(r2)), -1, -1):
                e2 = r2 - c * c
                e = isqrt(e2)
                if e * e == e2 and e <= c:
                    return (a, b, c, e)
    raise AssertionError("four-square decomposition always exists")


@dataclass(frozen=True)
class Representation:
    d: int
    x: tuple
    strategy: str


def solve(
    q: IntegralQuadraticForm,
    d: int,
    bound: Optional[int] = None,
) -> Representation:
    """Find x with q(x) = d exactly.

    Strategy ladder: d = 0 is trivial; connected irreducible non-negative
    type-C forms of rank >= 4 go through the canonical C_4 block and four
    squares; unit forms with a positive core of rank >= 4 are solved on the
    core by exact enumeration; everything else falls through to a bounded
    box search with escalating bound. Two refusals are certified, and raise
    NotRepresented(d): a d that is not a multiple of the content of q (the
    gcd of its coefficients), refused at once since no x reaches it, and a d
    that the core search found nowhere in its complete enumeration. The box
    search's refusal names the last bound it searched. The strategy and its
    data are worked out once per form, by `_route`.
    """
    if (d := as_int(d)) < 0:
        raise InvalidInput("solve needs d >= 0")
    if bound is not None and (bound := as_int(bound)) < 0:
        raise InvalidInput("bound must be >= 0")
    if d == 0:
        return Representation(0, (0,) * q.n, "zero")
    strategy, data = _route(q)
    if strategy == "canonical-C4":
        a, b, c, e = four_squares(d)  # z = (a, -b, c, e): q_Lag is even in each variable
        x = tuple(r0 * a - r1 * b + r2 * c + r3 * e for r0, r1, r2, r3 in data)
    elif strategy == "canonical-D4-search":
        X, core = data
        y = first_root_with_value(core, d)
        if y is None:  # the core was enumerated completely
            raise NotRepresented(d)
        on_core = dict(zip(X, y))
        x = tuple(on_core.get(i, 0) for i in range(1, q.n + 1))
    elif data == 0 or d % data:
        raise NotRepresented(d)
    else:
        return _solve_brute(q, d, bound)
    assert _value(q, x) == d
    return Representation(d, x, strategy)


@lru_cache(maxsize=256)
def _route(q):
    """The (strategy, data) of `solve` on q for d >= 1: ("canonical-C4", R) with
    R = M[:, :4] LAGRANGE_BRIDGE for the canonical_c matrix M, so that x =
    M (LAGRANGE_BRIDGE z, 0, ..., 0) = R z; ("canonical-D4-search", (X, q on X))
    for the positive core X; or ("brute-force", content) for the box search.

    The cache holds 256 routes, more than a block of solve_sweep's 48 forms,
    because small forms recur across blocks: over 8 blocks of seed 7, a bound
    of 64 misses 377 times against 358 at 256.
    """
    rep = analyze(q)
    if rep.non_negative and rep.connected and rep.irreducible and rep.rank >= 4:
        if rep.unit:
            X = tuple(positive_core(q))
            return "canonical-D4-search", (X, q.restrict(X))
        try:
            T, r, _, _ = canonical_c(q)
        except NotTypeC:
            pass
        else:
            assert r >= 4
            bridge = LAGRANGE_BRIDGE.transpose()
            return "canonical-C4", tuple(bridge.matvec(row[:4]) for row in T.matrix.entries)
    return "brute-force", rep.content


def _solve_brute(q, d, bound):
    """Box search with a bound doubling from about 4 sqrt(d), under BOX_POINT_BUDGET.

    A box gives its first hit among the points the budget has left. Raises
    UnrepresentedWithinBound(d, b), b the largest bound whose whole box was
    searched (0 if none), when four boxes or the budget run out.
    """
    start = bound if bound is not None else isqrt(16 * d) + 2
    b = max(1, start)
    budget = BOX_POINT_BUDGET
    searched = 0
    for _ in range(4):
        hit = next(_box_roots(q, d, b, budget), None)
        if hit is not None:
            assert _value(q, hit) == d
            return Representation(d, hit, "brute-force")
        budget -= (2 * b + 1) ** q.n
        if budget < 0:
            break
        searched = b
        b *= 2
    raise UnrepresentedWithinBound(d, searched)
