"""Differential tests of `exact_linalg` against sympy's exact rational linear algebra.

sympy is a test-only dependency; the library never imports it.
"""

import random

import pytest

from bidiforms.exact_linalg import IntMatrix, _row_hnf_in_place, integer_kernel, psd_rank

sympy = pytest.importorskip("sympy")


def _gram_of_rows(V):
    """V V^tr for an n x r integer matrix V: PSD of rank rank(V)."""
    return [[sum(a * b for a, b in zip(u, w)) for w in V] for u in V]


def _psd_and_perturbed(rng):
    """Seeded PSD matrices V V^tr of every rank r <= n, n = 1..9, each with a perturbed copy."""
    for n in range(1, 10):
        for r in range(n + 1):
            G = _gram_of_rows([[rng.randint(-2, 2) for _ in range(r)] for _ in range(n)])
            yield G
            H = [row[:] for row in G]
            i, j = rng.randrange(n), rng.randrange(n)
            eps = rng.choice((-1, 1))
            H[i][j] += eps
            if i != j:
                H[j][i] += eps
            yield H


def test_psd_rank_matches_sympy():
    rng = random.Random(20231)
    seen = {True: 0, False: 0}
    for G in _psd_and_perturbed(rng):
        S = sympy.Matrix(G)
        psd, rank = psd_rank(IntMatrix(G))
        assert psd == S.is_positive_semidefinite, G
        assert rank == S.rank(), G
        seen[psd] += 1
    assert seen[True] > 50 and seen[False] > 20  # both outcomes are exercised


def _random_matrix(rng, rows, cols):
    """A sparse-ish random matrix, or a product of rank at most k < min(rows, cols)."""
    if rng.random() < 0.5:
        return [[rng.choice((0, 0, 1, -1, 2, -5)) for _ in range(cols)] for _ in range(rows)]
    k = rng.randint(0, min(rows, cols) - 1)
    A = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(rows)]
    B = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(k)]
    return [[sum(A[i][t] * B[t][j] for t in range(k)) for j in range(cols)] for i in range(rows)]


def test_rank_and_det_match_sympy():
    rng = random.Random(20232)
    for _ in range(120):
        M = _random_matrix(rng, rng.randint(1, 9), rng.randint(1, 9))
        assert IntMatrix(M).rank() == sympy.Matrix(M).rank(), M
        n = rng.randint(1, 9)
        S = _random_matrix(rng, n, n)
        assert IntMatrix(S).det() == sympy.Matrix(S).det(), S


def test_integer_kernel_has_corank_many_vectors():
    rng = random.Random(20233)
    for G in _psd_and_perturbed(rng):
        M = IntMatrix(G)
        rank = sympy.Matrix(G).rank()
        kernel = integer_kernel(M)
        assert len(kernel) == M.cols - rank, G
        for v in kernel:
            assert all(x == 0 for x in M.matvec(v))


def test_row_hnf_matches_sympy_hermite_normal_form():
    """sympy's form is by columns, with the pivots at the bottom right and
    reduced to their right. So the row form H of a matrix M of full column
    rank c is J W^tr J, with W = hermite_normal_form(J M^tr) and J reversing
    the c coordinates; the rows of H past c are zero."""
    from sympy.matrices.normalforms import hermite_normal_form

    rng = random.Random(20234)
    tried = 0
    while tried < 150:
        c = rng.randint(1, 7)
        M = [[rng.choice((0, 1, -1, 2, -3, 5, -7)) for _ in range(c)] for _ in range(rng.randint(c, 9))]
        if sympy.Matrix(M).rank() < c:
            continue
        tried += 1
        rows = [row[:] for row in M]
        assert _row_hnf_in_place(rows) == list(range(c))
        W = hermite_normal_form(sympy.Matrix([list(col) for col in zip(*M)][::-1])).tolist()
        assert rows[:c] == [[W[c - 1 - j][c - 1 - i] for j in range(c)] for i in range(c)], M
        assert not any(map(any, rows[c:]))
