"""The type-C reduction pinned exactly on seeded scrambled forms.

`tests/golden/typec_reduction.json` holds the matrices, steps and targets of
`pivot_saturate`, `star_realization`, `realize`, `canonical_c` and
`dynkin_plus_zero` (both variants) on 50 forms q_{C_r^{c1,c2}} with r in 2..6
and c1, c2 in 0..2, each scrambled by seeded G-steps. It was written by the
code before these functions shared one step chase. A refusal is recorded by
its exception type. The transforms of the chase, built without the
determinant check, are checked to be unimodular on the same inputs and on
more scrambles. To rewrite it (only for an intended change of output):

    PYTHONPATH=src python tests/test_typec_golden.py
"""

from __future__ import annotations

import json
import random
from itertools import product
from pathlib import Path

import pytest

from bidiforms.bidigraph import canonical_c as canonical_c_graph
from bidiforms.classify import (
    GTransform,
    _star_snapshot,
    canonical_c,
    dynkin_plus_zero,
    pivot_saturate,
    realize,
    star_realization,
)
from bidiforms.errors import BidiformsError, InvalidInput
from bidiforms.exact_linalg import IntMatrix
from bidiforms.qform import IntegralQuadraticForm

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


def _chase_transforms(q):
    """The `GTransform`s that `pivot_saturate`, `star_realization` and `canonical_c` return."""
    calls = (
        lambda: pivot_saturate(q, q.diag.index(2) + 1)[1],
        lambda: star_realization(q)[0],
        lambda: canonical_c(q)[0],
    )
    transforms = []
    for call in calls:
        try:
            transforms.append(call())
        except BidiformsError:
            pass
    return transforms


def test_chase_transforms_are_unimodular():
    with open(GOLDEN) as fh:
        forms = [IntegralQuadraticForm.from_json_dict(case["form"]) for case in json.load(fh)]
    rng = random.Random(9085)
    forms += [_scrambled(rng, *rng.choice(SHAPES)) for _ in range(200)]
    checked = 0
    for q in forms:
        for T in _chase_transforms(q):
            assert T.matrix.det() in (1, -1)
            assert GTransform(T.matrix, T.steps) == T  # the checked constructor agrees
            checked += 1
    assert checked > 500, checked


def test_chase_transforms_skip_the_determinant(monkeypatch):
    q = canonical_c_graph(16, 4, 4).incidence_form()
    calls = []
    det = IntMatrix.det
    monkeypatch.setattr(IntMatrix, "det", lambda M: calls.append(M) or det(M))
    assert len(_chase_transforms(q)) == 3
    assert not calls


def _type_c_calls(q):
    """The type-C functions that resume the shared star chase, each returning
    its output on q with the `off` order of every form it returns."""

    def star():
        T, sat, B, part = star_realization(q)
        return T.to_json_dict(), sat.diag, list(sat.off.items()), B.to_json_dict(), part

    def canon():
        T, r, c1, c2 = canonical_c(q)
        return T.to_json_dict(), r, c1, c2

    def plus_zero(variant):
        S, target = dynkin_plus_zero(q, variant)
        return S.to_lists(), target.diag, list(target.off.items())

    return {
        "realize": lambda: realize(q).to_json_dict(),
        "star_realization": star,
        "canonical_c": canon,
        "dynkin_plus_zero_C": lambda: plus_zero("C"),
        "dynkin_plus_zero_D": lambda: plus_zero("D"),
    }


ORDERS = (
    ("realize", "star_realization", "canonical_c", "dynkin_plus_zero_C", "dynkin_plus_zero_D"),
    ("dynkin_plus_zero_D", "dynkin_plus_zero_C", "canonical_c", "star_realization", "realize"),
    ("canonical_c", "realize", "dynkin_plus_zero_C", "star_realization", "dynkin_plus_zero_D"),
)


def test_the_shared_star_chase_is_not_mutated():
    rng = random.Random(1405)
    for k in range(50):
        q = _scrambled(rng, *SHAPES[k % len(SHAPES)])
        calls = _type_c_calls(q)
        cold = {}
        for name, call in calls.items():
            _star_snapshot.cache_clear()
            cold[name] = _recorded(call)
        for order in ORDERS:
            _star_snapshot.cache_clear()
            for name in order:
                assert _recorded(calls[name]) == cold[name], (k, name, order)
        # an equal form whose map was given in the opposite order, cold and after q
        q2 = IntegralQuadraticForm(q.diag, dict(reversed(list(q.off.items()))))
        assert q2 == q
        assert list(q2.off) == list(q.off)
        for name, call in _type_c_calls(q2).items():
            _star_snapshot.cache_clear()
            assert _recorded(call) == cold[name], (k, name)
            _recorded(calls[name])
            assert _recorded(call) == cold[name], (k, name)


def test_a_non_unimodular_transform_is_refused():
    M = IntMatrix([[2, 0], [0, 1]])
    with pytest.raises(InvalidInput):
        GTransform(M)
    with pytest.raises(InvalidInput):
        GTransform.from_json_dict({"matrix": M.to_lists(), "steps": []})


if __name__ == "__main__":
    with open(GOLDEN, "w") as fh:
        fh.write("[\n" + ",\n".join(json.dumps(c, sort_keys=True) for c in _cases()) + "\n]\n")
