"""Exact integer linear algebra: PSD testing, rank, determinants, integer kernels.

Everything here works over arbitrary-precision integers: eliminations are
fraction-free (Bareiss, Math. Comp. 22, 1968), so every division is exact and
no `fractions.Fraction` or floating point is used. One sparse elimination
gives every rank and integer kernel: the PSD test `psd_pivots` runs on
sparse rows, and `psd_radical` reads the radical of a PSD matrix off the rows
it leaves. Any other integer matrix M has the kernel of the PSD matrix
M^tr M (`column_gram`), so its rank and kernel come from the same two steps.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd

from .errors import InvalidInput, as_int, int_tuple


class IntMatrix:
    """Immutable dense integer matrix, row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        data = tuple(map(int_tuple, entries))
        if data and any(len(row) != len(data[0]) for row in data):
            raise InvalidInput("ragged rows")
        object.__setattr__(self, "entries", data)
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", len(data[0]) if data else 0)

    @classmethod
    def _trusted(cls, entries: tuple) -> "IntMatrix":
        """A matrix from a tuple of equal-length tuples of ints that the library
        holds, without the constructor's conversion. Input from outside the
        library goes through the constructor."""
        M = object.__new__(cls)
        object.__setattr__(M, "entries", entries)
        object.__setattr__(M, "rows", len(entries))
        object.__setattr__(M, "cols", len(entries[0]) if entries else 0)
        return M

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    def __reduce__(self):
        return (IntMatrix, (self.entries,))

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        n = _size(n)
        return IntMatrix._trusted(tuple((0,) * i + (1,) + (0,) * (n - i - 1) for i in range(n)))

    @staticmethod
    def zero(rows: int, cols: int) -> "IntMatrix":
        rows, cols = _size(rows), _size(cols)
        return IntMatrix._trusted(((0,) * cols,) * rows)

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self.entries]})"

    def __getitem__(self, idx):
        i, j = idx
        return self.entries[i][j]

    def row(self, i: int) -> tuple:
        return self.entries[i]

    def col(self, j: int) -> tuple:
        return tuple(r[j] for r in self.entries)

    def transpose(self) -> "IntMatrix":
        return IntMatrix([self.col(j) for j in range(self.cols)])

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise InvalidInput("matrix size mismatch")
        cols = list(zip(*other.entries)) or [()] * other.cols
        return IntMatrix._trusted(
            tuple(tuple(_dot(r, c) for c in cols) for r in self.entries)
        )

    def matvec(self, v) -> tuple:
        if len(v) != self.cols:
            raise InvalidInput("vector size mismatch")
        return tuple(_dot(r, v) for r in self.entries)

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and all(
            self.entries[i][j] == self.entries[j][i]
            for i in range(self.rows)
            for j in range(i + 1, self.cols)
        )

    def to_lists(self):
        return [list(r) for r in self.entries]

    def det(self) -> int:
        """Exact determinant via fraction-free Bareiss elimination."""
        if self.rows != self.cols:
            raise InvalidInput("determinant of non-square matrix")
        rank, last = _bareiss(self.entries)
        return last if rank == self.rows else 0

    def rank(self) -> int:
        """Exact rank via fraction-free (Bareiss) row elimination."""
        return _bareiss(self.entries)[0]


def _size(n) -> int:
    """`as_int(n)`; InvalidInput if it is negative."""
    n = as_int(n)
    if n < 0:
        raise InvalidInput(f"a matrix size must be >= 0, got {n}")
    return n


def _dot(u, v) -> int:
    return sum(a * b for a, b in zip(u, v))


def _bareiss(rows) -> tuple[int, int]:
    """(rank, sign * last pivot) of the integer rows `rows` by fraction-free
    (Bareiss) row elimination, sign being that of the row swaps.

    Each entry below a pivot becomes a minor of the original rows, so every
    division is exact. A column without a pivot is skipped; a square matrix
    of full rank skips none, and its signed last pivot is its determinant.
    """
    a = [list(r) for r in rows]
    m = len(a)
    rank = 0
    prev = sign = 1
    for k in range(len(a[0]) if a else 0):
        if rank == m:
            break
        if not a[rank][k]:
            piv = next((r for r in range(rank + 1, m) if a[r][k]), None)
            if piv is None:
                continue
            a[rank], a[piv] = a[piv], a[rank]
            sign = -sign
        prow = a[rank]
        p = prow[k]
        for row in a[rank + 1:]:
            f = row[k]
            for j in range(k + 1, len(row)):
                row[j] = (p * row[j] - f * prow[j]) // prev
        prev = p
        rank += 1
    return rank, sign * prev


def psd_rank(G: IntMatrix) -> tuple[bool, int]:
    """Decide positive semi-definiteness of a symmetric integer matrix and give its rank.

    The rank is the number of pivots of `psd_pivots`: on G when G is PSD, and
    otherwise on the PSD matrix G^tr G of `column_gram`, which has the rank of G.
    """
    if not G.is_symmetric():
        raise InvalidInput("psd_rank requires a symmetric matrix")
    found = psd_pivots(_sparse_rows(G))
    if found is not None:
        return True, len(found[0])
    return False, len(psd_pivots(column_gram(_sparse_rows(G), G.cols))[0])


def _sparse_rows(M: IntMatrix) -> list[dict]:
    return [{j: x for j, x in enumerate(row) if x} for row in M.entries]


def column_gram(rows, n: int) -> list[dict]:
    """The sparse rows of M^tr M for the sparse rows `rows` of an integer matrix M
    with n columns: (M^tr M)_jk is the sum over the rows r of M of r[j] r[k].

    M^tr M is PSD, and M^tr M x = 0 iff |M x|^2 = 0 iff M x = 0, so `psd_pivots`
    gives the rank of M and `psd_radical` its kernel, over Q and over Z.
    """
    out = [{} for _ in range(n)]
    for row in rows:
        for j, x in row.items():
            o = out[j]
            for k, y in row.items():
                o[k] = o.get(k, 0) + x * y
    return [{k: v for k, v in o.items() if v} for o in out]


def psd_pivots(rows):
    """(P, det G_P) for a PSD symmetric integer matrix G, or None if G is not PSD.

    G is given by sparse rows: rows[i] maps each j with G_ij != 0 to G_ij,
    and the list is reduced in place. Symmetric fraction-free elimination
    on those rows: row i is held as an integer row r_i and a positive scale
    s_i, the Schur complement row being r_i / s_i, so signs are those of
    elimination over the rationals. Each step takes as pivot p the row with
    a positive diagonal and the fewest nonzeros (the smallest index on a
    tie), and with pi = r_p[p] changes only the rows that meet column p:
    r_i <- pi r_i - r_i[p] r_p and s_i <- pi s_i, both then divided by their
    gcd. G is PSD iff every diagonal entry met is >= 0 and nothing is left
    once only zero diagonals remain. P lists the 0-based pivot indices in
    pivot order, |P| = rank G, and det G_P > 0 (1 when P is empty) is the
    product of the pivots pi / s_p, an exact division. A pivot row is not
    changed after its step, so on return rows[p], p in P, are the rows of a
    factor of G, which `psd_radical` back-substitutes through.
    """
    scale = [1] * len(rows)
    left = list(range(len(rows)))  # the rows not yet pivoted, ascending
    pivots = []
    num = den = 1
    while True:
        piv = None
        for i in left:
            d = rows[i].get(i, 0)
            if d < 0:
                return None
            if d and (piv is None or len(rows[i]) < len(rows[piv])):
                piv = i
        if piv is None:
            # all remaining diagonal entries are zero; PSD iff nothing is left
            return None if any(rows[i] for i in left) else (pivots, num // den)
        prow = rows[piv]
        p = prow[piv]
        for i in prow:  # the rows that meet column piv, by symmetry
            if i == piv:
                continue
            f = rows[i][piv]
            row = {j: p * x for j, x in rows[i].items()}
            for j, y in prow.items():
                v = row.get(j, 0) - f * y
                if v:
                    row[j] = v
                else:
                    del row[j]  # column piv leaves every row it meets
            s = scale[i] * p
            g = gcd(s, *row.values())
            if g > 1:
                row = {j: v // g for j, v in row.items()}
                s //= g
            rows[i] = row
            scale[i] = s
        left.remove(piv)
        pivots.append(piv)
        num *= p
        den *= scale[piv]


def psd_radical(rows, pivots: list[int]) -> tuple[list[tuple[int, ...]], int]:
    """(Z, index) for a PSD matrix G from the rows and pivots `psd_pivots` left:
    Z the basis of the radical {x in Z^n : G x = 0} in Hermite form, and
    index = |det Z_D| for the indices D outside P: the form G gives on
    Z^n / rad has determinant det G_P / index^2.

    The rows r_p = rows[p], p in P, are those of a factor of G (`psd_pivots`),
    each zero at the columns of earlier pivots, and G x = 0 iff r_p . x = 0
    for every p. For each k in D, x = e_k is completed by back substitution
    in reverse pivot order, x_p = -(sum_{j != p} r_p[j] x_j) / r_p[p],
    scaled to stay integral and then divided by its content; only the
    pivots whose rows meet a nonzero x_j are visited. The c vectors A so found span the radical over Q, and
    A_D = diag(d) with d > 0. The columns of A generate a lattice L Z^c with
    L lower triangular; it holds each d_k e_k, so it is read modulo d, and
    the k with d_k = 1 give columns e_k of L. L^-1 A is then integral and
    spans Q A meet Z^n (Cohen, A Course in Computational Algebraic Number
    Theory, 2.4.3), and |det Z_D| = prod d / det L.
    """
    n = len(rows)
    P = set(pivots)
    D = [k for k in range(n) if k not in P]
    users = {}  # column j -> the pivot rows p != j that meet it, keyed -(place of p)
    for t, p in enumerate(pivots):
        for j in rows[p]:
            if j != p:
                users.setdefault(j, []).append(-t)
    A = []
    for k in D:
        x = {k: 1}
        todo = list(users.get(k, ()))
        seen = set(todo)
        heapify(todo)
        while todo:  # the latest pivot first: its row meets only later ones
            p = pivots[-heappop(todo)]
            r = rows[p]
            s = sum(v * x[j] for j, v in r.items() if j in x)
            if not s:
                continue
            g = gcd(s, r[p])
            if g != r[p]:
                f = r[p] // g
                for j in x:
                    x[j] *= f
            x[p] = -s // g
            for t in users.get(p, ()):
                if t not in seen:
                    seen.add(t)
                    heappush(todo, t)
        g = gcd(*x.values())
        A.append({j: v // g for j, v in x.items()} if g > 1 else x)
    K = [i for i, k in enumerate(D) if A[i][k] > 1]
    d = [A[i][D[i]] for i in K]
    cols = {}  # column j of A at the rows K
    for t, i in enumerate(K):
        for j, v in A[i].items():
            cols.setdefault(j, {})[t] = v
    L = [[0] * t + [dt] + [0] * (len(K) - t - 1) for t, dt in enumerate(d)]  # L[t]: column t
    for col in cols.values():
        a = [col.get(t, 0) % dt for t, dt in enumerate(d)]
        for t in range(len(K)):
            if a[t]:  # Euclid on column t of L and a, all of it kept modulo d
                h = L[t]
                while a[t]:
                    c = h[t] // a[t]
                    h, a = a, [hu - c * au for hu, au in zip(h, a)]
                L[t] = h[:t + 1] + [hu % du for hu, du in zip(h[t + 1:], d[t + 1:])]
                a = [au % du for au, du in zip(a, d)]
    below = [{u: v for u, v in enumerate(h) if v and u > t} for t, h in enumerate(L)]
    solved = [{} for _ in K]
    for j, a in cols.items():  # L y = column j, by forward substitution
        for t in range(min(a), len(K)):
            v = a.get(t)
            if v:
                y, rest = divmod(v, L[t][t])
                assert not rest, "the columns of A lie in the lattice of L"
                solved[t][j] = y
                for u, h in below[t].items():
                    a[u] = a.get(u, 0) - y * h
    for t, i in enumerate(K):
        A[i] = solved[t]
    Z = [[0] * n for _ in A]
    for z, x in zip(Z, A):
        for j, v in x.items():
            z[j] = v
    _row_hnf_in_place(Z)
    index = 1
    for t, dt in enumerate(d):
        index = index * dt // L[t][t]
    return [tuple(z) for z in Z], index


def _row_hnf_in_place(rows: list[list[int]]) -> list[int]:
    """Reduce `rows` to row-style Hermite normal form; return pivot column list.

    Nonzero rows come first, each with a positive leading entry; entries above
    a pivot are reduced into [0, pivot). Rows from r on are zero before the
    column c where the r-th pivot is sought, so row operations start at c.
    """
    if not rows:
        return []
    r = 0
    pivots = []
    for c in range(len(rows[0])):
        piv = _smallest_at(rows, r, c)
        if piv is None:
            continue
        while piv is not None:  # Euclid in column c: the gcd, up to sign, at row r, zeros below
            rows[r], rows[piv] = rows[piv], rows[r]
            tail = rows[r][c:]
            for k in range(r + 1, len(rows)):
                if rows[k][c] != 0:
                    qout = rows[k][c] // tail[0]
                    rows[k][c:] = [x - qout * y for x, y in zip(rows[k][c:], tail)]
            piv = _smallest_at(rows, r + 1, c)
        if rows[r][c] < 0:
            rows[r] = [-x for x in rows[r]]
        tail = rows[r][c:]
        for k in range(r):
            qout = rows[k][c] // tail[0]
            if qout != 0:
                rows[k][c:] = [x - qout * y for x, y in zip(rows[k][c:], tail)]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def _smallest_at(rows, start, c):
    """The row from `start` on with the smallest nonzero entry in column c, or None."""
    piv = None
    for k in range(start, len(rows)):
        if rows[k][c] != 0 and (piv is None or abs(rows[k][c]) < abs(rows[piv][c])):
            piv = k
    return piv


def integer_kernel(M: IntMatrix) -> list[tuple[int, ...]]:
    """Basis of the pure subgroup {x in Z^cols : Mx = 0}, in Hermite form: the
    radical of the PSD matrix M^tr M (`column_gram`), by `psd_pivots` and
    `psd_radical`. The Hermite form is unique for the lattice (Cohen, A Course
    in Computational Algebraic Number Theory, 2.4.3).
    """
    sparse = _sparse_rows(M)
    rows = column_gram(sparse, M.cols)
    basis = psd_radical(rows, psd_pivots(rows)[0])[0]
    for v in basis:
        assert all(sum(x * v[k] for k, x in row.items()) == 0 for row in sparse)
    return basis
