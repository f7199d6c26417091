"""The walk-state BFS pinned exactly on seeded graphs.

`tests/golden/walk_roots.json` holds, for 60 seeded connected graphs with
m = 1..5 vertices and at most 5 arrows (directed and bidirected loops and
parallel arrows among them), the sha256 of the sorted outputs of
`walk_root_cover(B, 3)` and of `theorem_c_roots(B, d, 2(n + m))` for
d = 0, 1, 2, the bound and cap the walk_roots benchmark uses. It was written
by the code before the BFS added candidates in bulk and kept one key per
{x, -x}. To rewrite it (only for an intended change of output):

    PYTHONPATH=src python -m tests.test_walk_golden
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from bidiforms.walks import theorem_c_roots, walk_root_cover
from tests.test_bidigraph import random_connected

GOLDEN = Path(__file__).resolve().parent / "golden" / "walk_roots.json"


def _graphs():
    rng = random.Random(6113)
    graphs = []
    for k in range(60):
        m = k % 5 + 1
        graphs.append(random_connected(rng, m=m, n=rng.randint(max(1, m - 1), 5)))
    return graphs


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def _case(B):
    sets, complete = walk_root_cover(B, 3)
    case = {
        "graph": B.to_json_dict(),
        "cover": _digest([[sorted(sets[d]) for d in (0, 1, 2)], complete]),
    }
    cap = 2 * (B.n + B.m)
    for d in (0, 1, 2):
        case[f"theorem_c_{d}"] = _digest(sorted(theorem_c_roots(B, d, cap).vectors))
    return case


def _kinds(B):
    kinds = set()
    for a in range(1, B.n + 1):
        if B.is_directed_loop(a):
            kinds.add("directed loop")
        elif B.is_loop(a):
            kinds.add("bidirected loop")
        elif sorted(B.underlying(a)) in [sorted(B.underlying(b)) for b in range(1, a)]:
            kinds.add("parallel")
    return kinds


def test_walk_roots_match_golden():
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    graphs = _graphs()
    assert set().union(*map(_kinds, graphs)) == {"directed loop", "bidirected loop", "parallel"}
    assert len(graphs) == len(golden) == 60
    for k, (B, want) in enumerate(zip(graphs, golden)):
        assert _case(B) == want, f"case {k}: {want['graph']}"


if __name__ == "__main__":
    with open(GOLDEN, "w") as fh:
        cases = [json.dumps(_case(B), sort_keys=True) for B in _graphs()]
        fh.write("[\n" + ",\n".join(cases) + "\n]\n")
