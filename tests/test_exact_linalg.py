import random
import re
from itertools import combinations
from math import gcd

import pytest

from bench import gen
from bidiforms.bidigraph import BidirectedGraph, canonical_c
from bidiforms.errors import InvalidInput
from bidiforms.exact_linalg import (
    IntMatrix,
    _row_hnf_in_place,
    integer_kernel,
    psd_pivots,
    psd_radical,
    psd_rank,
)
from bidiforms.qform import IntegralQuadraticForm


def _dense_psd_pivots(G: IntMatrix):
    """The dense elimination `psd_pivots` replaced, kept as its oracle: (P, det G_P)
    for a PSD symmetric integer matrix G, or None if G is not PSD.

    Symmetric fraction-free elimination with diagonal pivoting: each step takes
    the largest positive diagonal entry p as pivot and replaces every remaining
    entry by (p a_ij - a_i,piv a_piv,j) / prev, prev being the previous pivot.
    By Sylvester's identity the entries are then principal-bordered minors, so
    the division is exact, and each equals the rational Schur complement entry
    times the positive pivot minor. The matrix is PSD iff every diagonal entry
    met is >= 0 and the residual is zero once only zero diagonals remain.
    """
    if not G.is_symmetric():
        raise InvalidInput("psd_rank requires a symmetric matrix")
    a = [list(r) for r in G.entries]  # the active block, compacted as pivots leave
    idx = list(range(G.rows))  # the index in G of each row of the block
    prev = 1
    pivots = []
    while a:
        piv = None
        best = 0
        for i, row in enumerate(a):
            d = row[i]
            if d < 0:
                return None
            if d > best:
                piv, best = i, d
        if piv is None:
            if any(any(row) for row in a):
                return None
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
        pivots.append(idx.pop(piv))
    return pivots, prev


def _sparse_rows(G: IntMatrix):
    return [{j: x for j, x in enumerate(row) if x} for row in G.entries]


def quotient_det(pivots: list[int], det_p: int, radical) -> int:
    """The determinant of a PSD form on Z^n / rad, from `psd_pivots`' (P, det G_P)
    and a basis of the radical (c = n - |P| integer rows of length n).

    Let D be the indices outside P. The radical rows at D form a c x c matrix
    R_D, and R_D is nonsingular: a radical vector that is zero on D lives on P,
    where G_P is positive definite, so it is zero. Hence Z^P maps injectively
    into Z^n / rad, with cokernel Z^n / (Z^P + rad) = Z^D / (row lattice of
    R_D) of order |det R_D|. A sublattice of index k has k^2 times the
    determinant, so the form on Z^n / rad has determinant det G_P / det(R_D)^2,
    an exact division. With c = 0 this is det G.
    """
    if not radical:
        return det_p
    P = set(pivots)
    D = [k for k in range(len(radical[0])) if k not in P]
    index = IntMatrix([[z[k] for k in D] for z in radical]).det()
    assert index and det_p % (index * index) == 0, "det G_P must be a multiple of det(R_D)^2 != 0"
    return det_p // (index * index)


def test_psd_rank_a3_gram():
    G = IntMatrix([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
    assert psd_rank(G) == (True, 3)


def test_psd_rank_zero_matrix():
    assert psd_rank(IntMatrix.zero(3, 3)) == (True, 0)


def test_psd_rank_negative_diagonal():
    assert psd_rank(IntMatrix([[-2]])) == (False, 1)


def test_psd_rank_zero_diagonal_with_residual():
    # [[0,1],[1,0]] is indefinite
    assert psd_rank(IntMatrix([[0, 1], [1, 0]])) == (False, 2)


def test_psd_rank_requires_symmetry():
    with pytest.raises(InvalidInput):
        psd_rank(IntMatrix([[0, 1], [2, 0]]))


def test_kernel_path_quiver_incidence():
    # incidence matrix of the 3-arrow path quiver on 4 vertices
    I = IntMatrix([[1, -1, 0, 0], [0, 1, -1, 0], [0, 0, 1, -1]])
    assert integer_kernel(I) == [(1, 1, 1, 1)]


def test_kernel_identity_empty():
    assert integer_kernel(IntMatrix.identity(3)) == []


def test_kernel_rank_one():
    M = IntMatrix([[2, -2], [-2, 2]])
    assert integer_kernel(M) == [(1, 1)]


def test_kernel_is_pure_even_for_scaled_matrix():
    # kernel of [[2, 4]] over Z is spanned by (2, -1), a primitive vector
    assert integer_kernel(IntMatrix([[2, 4]])) == [(2, -1)]


def test_rank_plus_kernel_dimension_is_cols():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 5)
        base = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, n))]
        # symmetric PSD-ish and general matrices both covered
        M = IntMatrix(base)
        G = M.transpose() @ M
        assert G.is_symmetric()
        is_psd, rank = psd_rank(G)
        assert is_psd  # Gram matrices of integer rows are PSD
        assert rank + len(integer_kernel(G)) == G.cols


def test_psd_agrees_with_boxed_sign_checks():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(1, 4)
        G = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                v = rng.randint(-2, 2)
                G[i][j] = v
                G[j][i] = v
        M = IntMatrix(G)
        is_psd, _ = psd_rank(M)
        if is_psd:
            for x in _box_vectors(n, 3, rng, samples=120):
                val = sum(x[i] * M[i, j] * x[j] for i in range(n) for j in range(n))
                assert val >= 0


def _box_vectors(n, bound, rng, samples):
    for _ in range(samples):
        yield tuple(rng.randint(-bound, bound) for _ in range(n))


def test_det_and_bareiss():
    assert IntMatrix([[2, 1], [1, 1]]).det() == 1
    assert IntMatrix([[1, 2], [2, 4]]).det() == 0
    assert IntMatrix.identity(4).det() == 1
    M = IntMatrix([[-1, 0, 0, 1], [-1, -1, 0, 2], [0, 0, 0, 2], [0, 0, -1, 1]])
    assert M.det() == 2


def test_matmul_and_transpose():
    A = IntMatrix([[1, 2], [3, 4]])
    B = IntMatrix([[0, 1], [1, 0]])
    assert (A @ B).to_lists() == [[2, 1], [4, 3]]
    assert A.transpose().to_lists() == [[1, 3], [2, 4]]
    assert A.matvec((1, 1)) == (3, 7)


def test_psd_rank_pivot_count_equals_rank():
    # the pivot count of a PSD matrix and the second elimination of an
    # indefinite one must both agree with the plain rational rank
    rng = random.Random(53)
    psd_seen = indefinite_seen = 0
    for _ in range(120):
        n = rng.randint(1, 7)
        if rng.random() < 0.5:
            rows = rng.randint(1, n + 1)
            A = IntMatrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(rows)])
            G = A.transpose() @ A
        else:
            G = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    G[i][j] = G[j][i] = rng.randint(-3, 3)
            G = IntMatrix(G)
        is_psd, rank = psd_rank(G)
        assert rank == G.rank()
        psd_seen += is_psd
        indefinite_seen += not is_psd
    assert psd_seen > 30 and indefinite_seen > 30


def test_psd_pivots_small_cases():
    G = IntMatrix([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
    # pivots 2, then 3 at index 1 against 4 at index 2: the largest diagonal wins
    assert _dense_psd_pivots(G) == ([0, 2, 1], 4)
    assert _dense_psd_pivots(IntMatrix.zero(3, 3)) == ([], 1)
    assert _dense_psd_pivots(IntMatrix([[-2]])) is None
    assert _dense_psd_pivots(IntMatrix([[0, 1], [1, 0]])) is None
    # the extended A_2 Gram matrix: rank 2, radical (1, 1, 1), det G_P = 3
    G = IntMatrix([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])
    P, det_p = _dense_psd_pivots(G)
    assert len(P) == 2 and det_p == 3
    assert quotient_det(P, det_p, integer_kernel(G)) == 3
    with pytest.raises(InvalidInput):
        _dense_psd_pivots(IntMatrix([[0, 1], [2, 0]]))


def test_sparse_psd_pivots_small_cases():
    # A_3: rows 0 and 2 have the fewest nonzeros, index 0 wins the tie; then
    # rows 1 and 2 both have two, so index 1 goes next
    assert psd_pivots(_sparse_rows(IntMatrix([[2, -1, 0], [-1, 2, -1], [0, -1, 2]]))) == ([0, 1, 2], 4)
    assert psd_pivots([{}, {}, {}]) == ([], 1)
    assert psd_pivots([{0: -2}]) is None
    assert psd_pivots([{1: 1}, {0: 1}]) is None
    # a zero diagonal that the first pivot turns negative: diag(2, 0) bordered by 1
    assert psd_pivots([{0: 2, 1: 1}, {0: 1}]) is None
    P, det_p = psd_pivots(_sparse_rows(IntMatrix([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])))
    assert P == [0, 1] and det_p == 3


def _seeded_gram_matrices(rng):
    """Bench-generator incidence forms of types A, D and C; random forms with zero,
    negative and positive diagonals, many of them indefinite; and A, D and C at
    n = 25..100."""
    for _ in range(120):
        m, extra = rng.randint(3, 16), rng.randint(0, 3)
        for make in (lambda: gen.switched_quiver(rng, m, extra),
                     lambda: gen.negative_cycle_graph(rng, m, 1 + extra % 3),
                     lambda: gen.bidirected_loop_graph(rng, m, extra % 3, 1 + extra % 2)):
            _, ends = make()
            yield BidirectedGraph(m, ends).incidence_form().gram()
    for _ in range(600):
        n = rng.randint(1, 7)
        off = {(i, j): rng.randint(-3, 3) for i in range(1, n + 1) for j in range(i + 1, n + 1)
               if rng.random() < 0.5}
        yield IntegralQuadraticForm([rng.randint(-1, 2) for _ in range(n)], off).gram()
    for n in (25, 50, 100):
        path = [((i, 1), (i + 1, -1)) for i in range(1, n)]
        yield BidirectedGraph(n + 1, path + [((n, 1), (n + 1, -1))]).incidence_form().gram()
        yield BidirectedGraph(n, path + [((1, 1), (2, 1))]).incidence_form().gram()
        yield canonical_c(n, n // 4, n // 4).incidence_form().gram()


def test_sparse_psd_pivots_match_the_dense_oracle():
    seen = {"positive": 0, "corank > 0": 0, "not PSD": 0, "n >= 25": 0}
    for G in _seeded_gram_matrices(random.Random(1701)):
        found, want = psd_pivots(_sparse_rows(G)), _dense_psd_pivots(G)
        assert (found is None) == (want is None), G
        if found is None:
            seen["not PSD"] += 1
            continue
        radical = integer_kernel(G) if len(want[0]) < G.rows else []
        assert len(found[0]) == len(want[0]) and sorted(set(found[0])) == sorted(found[0])
        assert quotient_det(*found, radical) == quotient_det(*want, radical)
        seen["corank > 0" if radical else "positive"] += 1
        seen["n >= 25"] += G.rows >= 25
    assert min(seen.values()) >= 9 and seen["not PSD"] > 200, seen


def test_psd_radical_is_the_integer_kernel_with_its_index():
    """The radical from the rows `psd_pivots` leaves is the Hermite basis that a
    full reduction of [G^tr | I] gives, and its index is |det Z_D| over the
    non-pivots D."""
    seen = {"corank > 0": 0, "index > 1": 0, "n >= 25": 0}
    for G in _seeded_gram_matrices(random.Random(2005)):
        rows = _sparse_rows(G)
        found = psd_pivots(rows)
        if found is None:
            continue
        P = found[0]
        Z, index = psd_radical(rows, P)
        assert Z == _reference_integer_kernel(G), G
        D = [k for k in range(G.rows) if k not in P]
        assert index == (abs(IntMatrix([[z[k] for k in D] for z in Z]).det()) if Z else 1)
        seen["corank > 0"] += bool(Z)
        seen["index > 1"] += index > 1
        seen["n >= 25"] += G.rows >= 25 and bool(Z)
    assert seen["corank > 0"] > 200 and seen["index > 1"] > 20 and seen["n >= 25"] >= 3, seen


def _principal_minor_gcd(G, r):
    """gcd of the r x r principal minors of G: for a PSD G of rank r with
    G = Pi^tr G' Pi, Pi: Z^n -> Z^n / rad onto, each such minor is
    det(Pi_I)^2 det G' by Cauchy-Binet, and the det(Pi_I) are coprime."""
    g = 0
    for I in combinations(range(G.rows), r):
        g = gcd(g, IntMatrix([[G[i, j] for j in I] for i in I]).det())
    return g


def test_quotient_det_is_the_gcd_of_principal_minors():
    rng = random.Random(1401)
    seen = {"corank 0": 0, "corank > 0": 0, "index > 1": 0, "indefinite": 0}
    for _ in range(300):
        n = rng.randint(1, 6)
        if rng.random() < 0.8:
            A = IntMatrix([[rng.choice((0, 0, 1, -1, 2)) for _ in range(n)]
                           for _ in range(rng.randint(1, n + 1))])
            G = A.transpose() @ A
        else:
            G = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    G[i][j] = G[j][i] = rng.randint(-3, 3)
            G = IntMatrix(G)
        found = psd_pivots(_sparse_rows(G))
        assert (found is None) == (_dense_psd_pivots(G) is None)
        if found is None:
            assert not psd_rank(G)[0]
            seen["indefinite"] += 1
            continue
        P, det_p = found
        assert len(P) == G.rank() and len(set(P)) == len(P)
        assert IntMatrix([[G[i, j] for j in P] for i in P]).det() == det_p > 0
        radical = integer_kernel(G)
        got = quotient_det(P, det_p, radical)
        assert got == _principal_minor_gcd(G, len(P)), G
        seen["corank > 0" if radical else "corank 0"] += 1
        seen["index > 1"] += got != det_p
    assert min(seen.values()) > 20, seen


def _reference_row_hnf(rows):
    """The Euclid loop `_row_hnf_in_place` had before: each row below is reduced
    by the current pivot row, and swapped into its place on a nonzero remainder."""
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = None
        for k in range(r, len(rows)):
            if rows[k][c] != 0 and (piv is None or abs(rows[k][c]) < abs(rows[piv][c])):
                piv = k
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        while True:
            done = True
            for k in range(r + 1, len(rows)):
                if rows[k][c] != 0:
                    qout = rows[k][c] // rows[r][c]
                    rows[k] = [x - qout * y for x, y in zip(rows[k], rows[r])]
                    if rows[k][c] != 0:
                        rows[r], rows[k] = rows[k], rows[r]
                        done = False
            if done:
                break
        if rows[r][c] < 0:
            rows[r] = [-x for x in rows[r]]
        for k in range(r):
            qout = rows[k][c] // rows[r][c]
            if qout != 0:
                rows[k] = [x - qout * y for x, y in zip(rows[k], rows[r])]
        r += 1
        if r == len(rows):
            break
    return [row for row in rows if any(row)]


def hermite_normal_form(M: IntMatrix) -> IntMatrix:
    """Row-style Hermite normal form (zero rows dropped)."""
    rows = [list(r) for r in M.entries]
    _row_hnf_in_place(rows)
    return IntMatrix([r for r in rows if any(r)] or [[0] * M.cols] if M.cols else [])


def test_hermite_normal_form_and_kernel_match_the_previous_euclid_loop():
    rng = random.Random(7107)
    for _ in range(600):
        m, n = rng.randint(1, 6), rng.randint(1, 7)
        M = IntMatrix([[rng.choice((0, 0, 1, -1, 2, -3, 6)) for _ in range(n)] for _ in range(m)])
        want = _reference_row_hnf(M.to_lists())
        assert hermite_normal_form(M).to_lists() == (want or [[0] * n])
        aug = [list(M.col(j)) + [int(k == j) for k in range(n)] for j in range(n)]
        kernel = [row[m:] for row in _reference_row_hnf(aug) if not any(row[:m])]
        assert [list(v) for v in integer_kernel(M)] == _reference_row_hnf(kernel)


def test_integer_kernel_of_a_large_gram_matrix_stays_small():
    # the Gram matrix of A_58 extended by three roots and scrambled: the previous
    # Euclid loop grew its entries to about 80,000 bits and took seconds here
    import time

    from tests.test_classify_oracles import _extended_form

    q = _extended_form(random.Random(7104), "A", 58, 3, 40)
    start = time.perf_counter()
    kernel = integer_kernel(q.gram())
    assert len(kernel) == 3 and max(abs(x) for v in kernel for x in v) == 1
    assert time.perf_counter() - start < 1.0


def _reference_integer_kernel(M):
    """The kernel basis by a full Hermite reduction of [M^tr | I]: row operations
    turn a row into [(Mx)^tr | x^tr], so the rows whose left block vanished carry
    the kernel. No elimination of the library's is shared with this oracle but
    the Hermite form itself."""
    m, n = M.rows, M.cols
    aug = [[M.entries[i][j] for i in range(m)] + [1 if k == j else 0 for k in range(n)]
           for j in range(n)]
    _row_hnf_in_place(aug)
    kernel = [row[m:] for row in aug if not any(row[:m])]
    _row_hnf_in_place(kernel)
    return [tuple(row) for row in kernel if any(row)]


def test_kernel_matches_the_full_hermite_reduction():
    rng = random.Random(1207)
    shapes = {"square": 0, "wide": 0, "tall": 0, "zero": 0}
    for _ in range(400):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        rank = rng.randint(0, min(rows, cols))
        # a product of random rows * cols factors has rank at most `rank`
        left = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(rows)]
        right = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rank)]
        M = IntMatrix([[sum(a * b for a, b in zip(r, c)) for c in zip(*right)] if rank else [0] * cols
                       for r in left])
        if rng.random() < 0.3:  # symmetric, as a Gram matrix is
            M = M.transpose() @ M
        got = integer_kernel(M)
        assert got == _reference_integer_kernel(M)
        assert len(got) == M.cols - M.rank()
        shapes["zero" if not any(map(any, M.entries)) else
               "square" if M.rows == M.cols else "wide" if M.rows < M.cols else "tall"] += 1
    assert min(shapes.values()) > 30, shapes
    for rows, cols in ((1, 1), (1, 4), (4, 1), (3, 3)):
        M = IntMatrix.zero(rows, cols)
        assert integer_kernel(M) == _reference_integer_kernel(M) == list(IntMatrix.identity(cols).entries)


@pytest.mark.parametrize(
    "rows",
    [
        [[1.5, 2.2]],
        [[1, 0], [0, 1.0]],
        [[1, 2], [3, "4"]],
        iter([[1, 2], iter([3, 4.5])]),  # a row that can be read once only
    ],
)
def test_intmatrix_refuses_non_integers(rows):
    with pytest.raises(InvalidInput, match="expected an integer, got"):
        IntMatrix(rows)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: setattr(IntMatrix([[1]]), "rows", 2), AttributeError, "IntMatrix is immutable"),
        (lambda: IntMatrix([[1, 2], [3]]), InvalidInput, "ragged rows"),
        (lambda: IntMatrix([[1, 2]]) @ IntMatrix([[1, 2]]), InvalidInput, "matrix size mismatch"),
        (lambda: IntMatrix([[1, 2]]).matvec((1,)), InvalidInput, "vector size mismatch"),
        (lambda: IntMatrix([[1, 2]]).det(), InvalidInput, "determinant of non-square matrix"),
    ],
)
def test_intmatrix_refuses_malformed_input(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as refused:
        build()
    assert type(refused.value) is error
