"""Seeded input generators for the benchmark.

Every generator takes a `random.Random` and returns plain data: a graph is
`(m, ends)` with `ends` a list of `((u, e), (v, f))` signed endpoint pairs, a
gentle presentation is `(m, arrows, relations)`. The benchmark turns these
into library objects; nothing here imports `bidiforms` or the test suite, so
the expected answers attached to each input are known from construction.
"""

from __future__ import annotations


def _random_tree(rng, m):
    """Edges (u, v) of a uniform-attachment random tree on vertices 1..m."""
    order = list(range(1, m + 1))
    rng.shuffle(order)
    return [(order[k], order[rng.randrange(k)]) for k in range(1, m)]


def _directed(u, v):
    return ((u, 1), (v, -1))


def _switch(rng, m, ends):
    """Random vertex-sign switching: keeps the incidence form and balance."""
    s = [0] + [rng.choice((1, -1)) for _ in range(m)]
    return [((u, e * s[u]), (v, f * s[v])) for (u, e), (v, f) in ends]


def _random_pair(rng, m):
    u = rng.randint(1, m)
    v = rng.choice([w for w in range(1, m + 1) if w != u])
    return u, v


def switched_quiver(rng, m, extra):
    """Balanced graph: a connected quiver with `extra` non-tree arrows, switched.

    Expected type A_{m-1} with corank n - m + 1 (beta = 1).
    """
    ends = [_directed(u, v) for u, v in _random_tree(rng, m)]
    ends += [_directed(*_random_pair(rng, m)) for _ in range(extra)]
    rng.shuffle(ends)
    return m, _switch(rng, m, ends)


def negative_cycle_graph(rng, m, extra):
    """Loop-less unbalanced graph: one non-tree arrow of a quiver made bidirected.

    Needs extra >= 1. Expected type D_m with corank n - m (beta = 0).
    """
    ends = [_directed(u, v) for u, v in _random_tree(rng, m)]
    extras = [_directed(*_random_pair(rng, m)) for _ in range(extra)]
    (u, _), (v, _) = extras[0]
    extras[0] = ((u, 1), (v, 1))
    ends += extras
    rng.shuffle(ends)
    return m, _switch(rng, m, ends)


def bidirected_loop_graph(rng, m, extra, loops):
    """Connected graph with `loops` bidirected loops and `extra` non-tree arrows.

    Non-tree arrows get random end signs. Expected type C_m with corank
    n - m, c2 = loops - 1 and c1 = corank - c2.
    """
    ends = [_directed(u, v) for u, v in _random_tree(rng, m)]
    for _ in range(extra):
        u, v = _random_pair(rng, m)
        ends.append(((u, rng.choice((1, -1))), (v, rng.choice((1, -1)))))
    for _ in range(loops):
        u = rng.randint(1, m)
        s = rng.choice((1, -1))
        ends.append(((u, s), (u, s)))
    rng.shuffle(ends)
    return m, _switch(rng, m, ends)


def tree_graph(rng, n):
    """Tree with n arrows and random arrow signs (a positive form of type A_n)."""
    ends = []
    for u, v in _random_tree(rng, n + 1):
        ends.append(((u, rng.choice((1, -1))), (v, rng.choice((1, -1)))))
    return n + 1, ends


def unbalanced_one_tree(rng, n, allow_loop=True):
    """Connected graph with n vertices, n arrows and one negative cycle.

    The cycle is a bidirected loop (only if `allow_loop`), a parallel pair or
    a longer cycle; the closing arrow's type is chosen against the tree's
    vertex signs so that the cycle is negative. Directed loops are never
    produced. Without a loop the incidence form is a positive unit form.
    """
    m = n
    tree = _random_tree(rng, m)
    ends = []
    for u, v in tree:
        ends.append(((u, rng.choice((1, -1))), (v, rng.choice((1, -1)))))
    if allow_loop and rng.randrange(3) == 0:
        u = rng.randint(1, m)
        s = rng.choice((1, -1))
        ends.append(((u, s), (u, s)))
    else:
        sign = tree_signs(m, ends)
        u, v = _random_pair(rng, m)
        # sigma(a) = -e*f; the cycle is negative iff sigma(a) != sign[u]*sign[v]
        e = rng.choice((1, -1))
        f = e * sign[u] * sign[v]
        ends.append(((u, e), (v, f)))
    rng.shuffle(ends)
    return m, ends


def tree_signs(m, ends):
    """Vertex signs propagated from vertex 1 along the non-loop arrows of a connected graph."""
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
    return sign


def small_graph(rng, m, n, directed_loops=None):
    """Connected graph on m vertices with n >= m - 1 arrows of random signs.

    A random spanning tree plus n - m + 1 arrows between random, possibly
    equal, vertices, so loops of both kinds and parallel arrows occur. On one
    vertex every arrow is a loop; `directed_loops`, if given, fixes how many
    of them are directed.
    """
    if m == 1 and directed_loops is not None:
        ends = [((1, 1), (1, -1))] * directed_loops
        ends += [((1, s), (1, s)) for s in (rng.choice((1, -1)) for _ in range(n - directed_loops))]
        rng.shuffle(ends)
        return m, ends
    ends = []
    for u, v in _random_tree(rng, m):
        ends.append(((u, rng.choice((1, -1))), (v, rng.choice((1, -1)))))
    for _ in range(n - m + 1):
        u, v = rng.randint(1, m), rng.randint(1, m)
        ends.append(((u, rng.choice((1, -1))), (v, rng.choice((1, -1)))))
    rng.shuffle(ends)
    return m, ends


def gentle_presentation(rng, m):
    """Connected acyclic gentle quiver on m vertices with a random relation set.

    Arrows run forward in a random vertex order, so the quiver has no
    oriented cycle: the algebra is finite dimensional, of finite global
    dimension, and its Cartan matrix is unitriangular. Degrees are capped at
    two in and two out; relations follow the gentle rules at every vertex.
    """
    order = list(range(1, m + 1))
    rng.shuffle(order)
    pos = {v: k for k, v in enumerate(order)}
    indeg = dict.fromkeys(range(1, m + 1), 0)
    outdeg = dict.fromkeys(range(1, m + 1), 0)
    arrows = []

    def add(u, v):
        if pos[u] > pos[v]:
            u, v = v, u
        arrows.append((f"a{len(arrows) + 1}", u, v))
        outdeg[u] += 1
        indeg[v] += 1

    def free(u, v):
        if pos[u] > pos[v]:
            u, v = v, u
        return outdeg[u] < 2 and indeg[v] < 2

    for k in range(1, m):
        v = order[k]
        anchors = [w for w in order[:k] if free(w, v)]
        add(v, rng.choice(anchors))
    for _ in range(rng.randint(0, 2)):
        pairs = [(u, v) for u in order for v in order if pos[u] < pos[v] and free(u, v)]
        if pairs:
            add(*rng.choice(pairs))
    relations = []
    for v in range(1, m + 1):
        ins = [a for a, _, t in arrows if t == v]
        outs = [a for a, s, _ in arrows if s == v]
        if len(ins) == 2 and len(outs) == 2:
            if rng.randrange(2):
                outs.reverse()
            relations += [(ins[0], outs[0]), (ins[1], outs[1])]
        elif len(ins) == 2 and len(outs) == 1:
            relations.append((rng.choice(ins), outs[0]))
        elif len(ins) == 1 and len(outs) == 2:
            relations.append((ins[0], rng.choice(outs)))
        elif len(ins) == 1 and len(outs) == 1 and rng.randrange(2):
            relations.append((ins[0], outs[0]))
    return m, arrows, relations
