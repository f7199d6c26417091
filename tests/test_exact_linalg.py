import random

import pytest

from bidiforms.errors import InvalidInput
from bidiforms.exact_linalg import IntMatrix, integer_kernel, psd_rank


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


def test_hermite_normal_form_and_kernel_match_the_previous_euclid_loop():
    from bidiforms.exact_linalg import hermite_normal_form

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
