"""The type-C reduction pinned exactly on seeded scrambled forms.

`tests/golden/typec_reduction.json` holds the matrices, steps and targets of
`pivot_saturate`, `star_realization`, `realize`, `canonical_c` and
`dynkin_plus_zero` (both variants) on 50 forms q_{C_r^{c1,c2}} with r in 2..6
and c1, c2 in 0..2, each scrambled by seeded G-steps. It was written by the
code before these functions shared one step chase. A refusal is recorded by
its exception type. To rewrite it (only for an intended change of output):

    PYTHONPATH=src python tests/test_typec_golden.py
"""

from __future__ import annotations

import json
import random
from itertools import product
from pathlib import Path

from bidiforms.bidigraph import canonical_c as canonical_c_graph
from bidiforms.classify import (
    GTransform,
    canonical_c,
    dynkin_plus_zero,
    pivot_saturate,
    realize,
    star_realization,
)
from bidiforms.errors import BidiformsError

GOLDEN = Path(__file__).resolve().parent / "golden" / "typec_reduction.json"
SHAPES = list(product(range(2, 7), range(3), range(3)))


def _scrambled(rng, r, c1, c2):
    q = canonical_c_graph(r, c1, c2).incidence_form()
    T = GTransform.identity(q.n)
    for _ in range(6):
        kind = rng.randrange(3)
        if kind == 0:
            i, j = rng.sample(range(1, q.n + 1), 2)
            try:
                T, q = T.then_gabrielov(q, i, j)
            except BidiformsError:
                pass
        elif kind == 1:
            T, q = T.then_sign(q, rng.randint(1, q.n))
        else:
            pi = list(range(1, q.n + 1))
            rng.shuffle(pi)
            T, q = T.then_perm(q, pi)
    return q


def _recorded(fn):
    try:
        return fn()
    except BidiformsError as exc:
        return {"error": type(exc).__name__}


def _case(q):
    def saturate():
        i0 = q.diag.index(2) + 1
        sat, T = pivot_saturate(q, i0)
        return {"pivot": i0, "T": T.to_json_dict(), "form": sat.to_json_dict()}

    def star():
        T, sat, B, part = star_realization(q)
        return {"T": T.to_json_dict(), "form": sat.to_json_dict(), "graph": B.to_json_dict(),
                "u2": list(part.u2), "groups": [[list(p), list(m)] for p, m in part.groups]}

    def canon():
        T, r, c1, c2 = canonical_c(q)
        return {"T": T.to_json_dict(), "r": r, "c1": c1, "c2": c2}

    def plus_zero(variant):
        S, target = dynkin_plus_zero(q, variant)
        return {"matrix": S.to_lists(), "target": target.to_json_dict()}

    return {
        "form": q.to_json_dict(),
        "pivot_saturate": _recorded(saturate),
        "star_realization": _recorded(star),
        "realize": _recorded(lambda: realize(q).to_json_dict()),
        "canonical_c": _recorded(canon),
        "dynkin_plus_zero_C": _recorded(lambda: plus_zero("C")),
        "dynkin_plus_zero_D": _recorded(lambda: plus_zero("D")),
    }


def _cases():
    rng = random.Random(20231)
    return [_case(_scrambled(rng, *SHAPES[k % len(SHAPES)])) for k in range(50)]


def test_type_c_reduction_matches_golden():
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    cases = json.loads(json.dumps(_cases()))
    assert len(cases) == len(golden) == 50
    for k, (got, want) in enumerate(zip(cases, golden)):
        assert got == want, f"case {k}: {want['form']}"


if __name__ == "__main__":
    with open(GOLDEN, "w") as fh:
        fh.write("[\n" + ",\n".join(json.dumps(c, sort_keys=True) for c in _cases()) + "\n]\n")
