"""Reference arithmetic for the output checks, independent of `bidiforms`.

Forms are handled as Gram matrices (lists of lists of ints) with
q(x) = x^tr G x / 2, computed here from the generated graphs, so that a check
never relies on the layer it checks.
"""

from __future__ import annotations


def incidence_rows(m, ends):
    rows = []
    for (u, e), (v, f) in ends:
        row = [0] * m
        row[u - 1] += e
        row[v - 1] += f
        rows.append(row)
    return rows


def matmul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(r, c)) for c in bt] for r in a]


def transpose(a):
    return [list(c) for c in zip(*a)]


def gram_of_graph(m, ends):
    rows = incidence_rows(m, ends)
    return matmul(rows, transpose(rows))


def form_data(G):
    """(diag, off) of the form with Gram matrix G, in the library's 1-based layout."""
    n = len(G)
    diag = [G[i][i] // 2 for i in range(n)]
    off = {(i + 1, j + 1): G[i][j] for i in range(n) for j in range(i + 1, n) if G[i][j]}
    return diag, off


def gram_of_form(q):
    """Gram matrix read off the public coefficient fields of a library form."""
    n = q.n
    G = [[0] * n for _ in range(n)]
    for i in range(n):
        G[i][i] = 2 * q.diag[i]
    for (i, j), v in q.off.items():
        G[i - 1][j - 1] = v
        G[j - 1][i - 1] = v
    return G


def value(G, x):
    """q(x) = x^tr G x / 2."""
    total = 0
    for i, xi in enumerate(x):
        if xi:
            row = G[i]
            total += xi * sum(g * xj for g, xj in zip(row, x))
    return total // 2


def det(a):
    """Exact determinant by fraction-free Bareiss elimination."""
    a = [list(r) for r in a]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if a[r][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def beta(m, ends):
    """1 if the connected graph is balanced (no negative closed walk), else 0."""
    for (u, e), (v, f) in ends:
        if u == v and e == f:
            return 0
    adj = {v: [] for v in range(1, m + 1)}
    for (u, e), (v, f) in ends:
        if u != v:
            adj[u].append((v, -e * f))
            adj[v].append((u, -e * f))
    sign = {1: 1}
    stack = [1]
    while stack:
        v = stack.pop()
        for w, sig in adj[v]:
            if w not in sign:
                sign[w] = sig * sign[v]
                stack.append(w)
            elif sign[w] != sig * sign[v]:
                return 0
    return 1


def canonical_c_gram(r, c1, c2):
    """Gram matrix of the canonical graph C_r^{c1,c2} (paper's normal form)."""
    ends = [((1, -1), (1, -1))]
    ends += [((i - 1, 1), (i, -1)) for i in range(2, r + 1)]
    ends += [((r - 1, 1), (r, 1))] * c1
    ends += [((r, 1), (r, 1))] * c2
    return gram_of_graph(r, ends)


def cartan(m, arrows, relations):
    """C[j][i] = number of paths i -> j that avoid every relation (trivial paths included)."""
    rel = set(relations)
    out = {v: [] for v in range(1, m + 1)}
    for a, s, t in arrows:
        out[s].append((a, t))
    C = [[0] * m for _ in range(m)]
    for i in range(1, m + 1):
        C[i - 1][i - 1] += 1
        stack = [(a, t) for a, t in out[i]]
        while stack:
            a, t = stack.pop()
            C[t - 1][i - 1] += 1
            stack.extend((b, w) for b, w in out[t] if (a, b) not in rel)
    return C
