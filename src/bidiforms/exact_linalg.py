"""Exact integer linear algebra: PSD testing, rank, determinants, integer kernels.

Everything here works over arbitrary-precision integers: eliminations are
fraction-free (Bareiss, Math. Comp. 22, 1968), so every division is exact and
no `fractions.Fraction` or floating point is used.
"""

from __future__ import annotations

from math import gcd

from .errors import InvalidInput


class IntMatrix:
    """Immutable dense integer matrix, row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        data = tuple(tuple(int(x) for x in row) for row in entries)
        if data and any(len(row) != len(data[0]) for row in data):
            raise InvalidInput("ragged rows")
        object.__setattr__(self, "entries", data)
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", len(data[0]) if data else 0)

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    def __reduce__(self):
        return (IntMatrix, (self.entries,))

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def zero(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix([[0] * cols for _ in range(rows)])

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
        ot = other.transpose()
        return IntMatrix(
            [[_dot(r, c) for c in ot.entries] for r in self.entries]
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
        n = self.rows
        if n == 0:
            return 1
        a = [list(r) for r in self.entries]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for r in range(k + 1, n):
                    if a[r][k] != 0:
                        a[k], a[r] = a[r], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]

    def rank(self) -> int:
        """Exact rank via fraction-free (Bareiss) row elimination."""
        a = [list(r) for r in self.entries]
        m, n = self.rows, self.cols
        rank = 0
        prev = 1
        for col in range(n):
            piv = next((r for r in range(rank, m) if a[r][col] != 0), None)
            if piv is None:
                continue
            a[rank], a[piv] = a[piv], a[rank]
            prow = a[rank]
            p = prow[col]
            # each entry below becomes a minor of the original rows: exact division
            for r in range(rank + 1, m):
                f = a[r][col]
                a[r] = [(p * x - f * y) // prev for x, y in zip(a[r], prow)]
            prev = p
            rank += 1
            if rank == m:
                break
        return rank


def _dot(u, v) -> int:
    return sum(a * b for a, b in zip(u, v))


def psd_rank(G: IntMatrix) -> tuple[bool, int]:
    """Decide positive semi-definiteness of a symmetric integer matrix and give its rank.

    Symmetric fraction-free elimination with diagonal pivoting: each step takes
    the largest positive diagonal entry p as pivot and replaces every remaining
    entry by (p a_ij - a_i,piv a_piv,j) / prev, prev being the previous pivot.
    By Sylvester's identity the entries are then principal-bordered minors, so
    the division is exact, and each equals the rational Schur complement entry
    times the positive pivot minor, so signs and the pivot order are those of
    elimination over the rationals. The matrix is PSD iff every diagonal entry
    met is >= 0 and the residual is zero once only zero diagonals remain. A PSD
    matrix has as rank its number of positive pivots; only a matrix that is
    not PSD pays for a second elimination in `rank`.
    """
    if not G.is_symmetric():
        raise InvalidInput("psd_rank requires a symmetric matrix")
    a = [list(r) for r in G.entries]  # the active block, compacted as pivots leave
    prev = 1
    pivots = 0
    while a:
        piv = None
        best = 0
        for i, row in enumerate(a):
            d = row[i]
            if d < 0:
                return False, G.rank()
            if d > best:
                piv, best = i, d
        if piv is None:
            # all remaining diagonal entries are zero; PSD iff residual is zero
            if any(any(row) for row in a):
                return False, G.rank()
            break
        prow = a[piv]
        nxt = []
        for i, row in enumerate(a):
            if i == piv:
                continue
            f = row[piv]
            new = [(best * x - f * y) // prev for x, y in zip(row, prow)]
            del new[piv]
            nxt.append(new)
        a = nxt
        prev = best
        pivots += 1
    return True, pivots


def _row_hnf_in_place(rows: list[list[int]]) -> list[int]:
    """Reduce `rows` to row-style Hermite normal form; return pivot column list.

    Nonzero rows come first, each with a positive leading entry; entries above
    a pivot are reduced into [0, pivot).
    """
    if not rows:
        return []
    ncols = len(rows[0])
    r = 0
    pivots = []
    for c in range(ncols):
        piv = _smallest_at(rows, r, c)
        if piv is None:
            continue
        # Euclid within the column: reduce every row below by the row with the
        # smallest entry, then move the smallest remainder up, until none is left
        while piv is not None:
            rows[r], rows[piv] = rows[piv], rows[r]
            prow = rows[r]
            p = prow[c]
            for k in range(r + 1, len(rows)):
                if rows[k][c] != 0:
                    qout = rows[k][c] // p
                    rows[k] = [x - qout * y for x, y in zip(rows[k], prow)]
            piv = _smallest_at(rows, r + 1, c)
        if rows[r][c] < 0:
            rows[r] = [-x for x in rows[r]]
        for k in range(r):
            qout = rows[k][c] // rows[r][c]
            if qout != 0:
                rows[k] = [x - qout * y for x, y in zip(rows[k], rows[r])]
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


def hermite_normal_form(M: IntMatrix) -> IntMatrix:
    """Row-style Hermite normal form (zero rows dropped)."""
    rows = [list(r) for r in M.entries]
    _row_hnf_in_place(rows)
    return IntMatrix([r for r in rows if any(r)] or [[0] * M.cols] if M.cols else [])


def integer_kernel(M: IntMatrix) -> list[tuple[int, ...]]:
    """Basis of the pure subgroup {x in Z^cols : Mx = 0}, in Hermite echelon form.

    Works on the stacked matrix [M^tr | I]: after row reduction, rows whose
    left block vanished carry kernel vectors in the right block.
    """
    m, n = M.rows, M.cols
    aug = []
    for j in range(n):
        left = [M.entries[i][j] for i in range(m)]
        right = [1 if k == j else 0 for k in range(n)]
        aug.append(left + right)
    _row_hnf_in_place(aug)
    kernel = [tuple(row[m:]) for row in aug if not any(row[:m])]
    if not kernel:
        return []
    krows = [list(v) for v in kernel]
    _row_hnf_in_place(krows)
    basis = []
    for row in krows:
        if not any(row):
            continue
        g = 0
        for x in row:
            g = gcd(g, x)
        assert g == 1, "kernel of an integer matrix is pure; content must be 1"
        basis.append(tuple(row))
    for v in basis:
        assert all(x == 0 for x in M.matvec(v))
    return basis
