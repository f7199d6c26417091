"""Seeded boundary fuzzer: every subcommand, in-process through `cli.run`.

It generates small forms, graphs and gentle presentations from a fixed seed,
replaces one JSON value in some of them (by a float, a string, a bool, null,
10^20 or the value nested in a list; the targets include the vertex count of
graphs and quivers) and runs each subcommand on them. The contract it checks
is the CLI's: exit 0, 1 or 2, never 3 and never an escaping exception; on
exit 1 or 2 stdout is empty and stderr is one `error:` line; on exit 0 with
`--format json` stdout parses. `verify` reports each check on stdout, so on
exit 0 or 1 it prints one PASS or FAIL line per check instead.

The graphs stay small (at most 3 vertices and 4 arrows): `bg-roots` has no
work budget yet, and its walk search grows as a power of its default cap
2(n + m). Longer runs can call `_cases` with another seed and count.
"""

import json
import random
import re

from bidiforms.cli import run

SEED = 19
COUNT = 60  # inputs of each kind
MUTANTS = ("float", "string", "bool", "null", "huge", "nested")
ERROR_LINE = re.compile(r"error: [^\n]*\n\Z")
RESULT_LINE = re.compile(r"(PASS|FAIL)  [^\n]*")


def _form(rng):
    n = rng.randint(1, 4)
    off = [[i, j, rng.choice((-2, -1, -1, 1, 1, 2))]
           for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.random() < 0.5]
    return {"n": n, "diag": [rng.choice((-1, 0, 1, 1, 1, 2, 2)) for _ in range(n)], "off": off}


def _graph(rng):
    m = rng.randint(1, 3)
    return {"vertices": m, "arrows": [
        {"ends": [[rng.randint(1, m), rng.choice((1, -1))] for _ in range(2)]}
        for _ in range(rng.randint(1, 4))]}


def _quiver(rng):
    m = rng.randint(1, 4)
    arrows = [{"name": f"a{k}", "src": rng.randint(1, m), "tgt": rng.randint(1, m)}
              for k in range(rng.randint(0, 4))]
    pairs = [[a["name"], b["name"]] for a in arrows for b in arrows
             if a["tgt"] == b["src"] or rng.random() < 0.1]
    return {"vertices": m, "arrows": arrows, "relations": [p for p in pairs if rng.random() < 0.5]}


def _nodes(value, path=()):
    """The path of every value below `value`, `value` itself excluded."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _nodes(child, path + (key,))


def _mutate(doc, rng):
    """`doc` with one value replaced: a top-level key is drawn first, so that
    each one, "vertices" too, is often a target."""
    top = rng.choice(sorted(doc))
    return _replace(doc, rng.choice([p for p in _nodes(doc) if p[0] == top]), rng.choice(MUTANTS))


def _replace(doc, path, mutant):
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    old = parent[path[-1]]
    parent[path[-1]] = {
        "float": old + 0.5 if type(old) is int else 1.5,
        "string": json.dumps(old),
        "bool": True,
        "null": None,
        "huge": 10**20,
        "nested": [old],
    }[mutant]
    return doc


def _cases(seed, count):
    """(kind, JSON document) for `count` inputs of each kind, some mutated, and
    a graph and a quiver with each mutant as their vertex count."""
    rng = random.Random(seed)
    for kind, make in (("form", _form), ("graph", _graph), ("quiver", _quiver)):
        for _ in range(count):
            doc = make(rng)
            yield kind, _mutate(doc, rng) if rng.random() < 0.4 else doc
        if kind != "form":
            for mutant in MUTANTS:
                yield kind, _replace(make(rng), ("vertices",), mutant)


def _argvs(kind, path, other, rng):
    """Each subcommand that reads a `kind`, on the file at `path`; `other` is a
    second file of the same kind, and `verify` reads a bundle of copies of `path`."""
    if kind == "form":
        return [["qf-info", path], ["qf-realize", path], ["qf-canonical-c", path],
                ["qf-solve", path, "-d", str(rng.randint(0, 6)), "--bound", str(rng.randint(0, 2))]]
    if kind == "graph":
        return [["bg-form", path], ["bg-balance", path], ["bg-line", path],
                ["bg-roots", path, "--set", str(rng.randint(0, 2))],
                ["bg-switch-equiv", path, rng.choice((path, other))]]
    return [["gentle-euler", path]]


VERIFY = {  # kind -> (the fixtures it stands in for, the checks that read only them)
    "form": (("typec_rank3_form.json",), "algo-pipeline"),
    "graph": (("three_vertex_graph.json", "path_quiver.json"), "example-pair"),
    "quiver": (("gentle_loop_pair.json", "gentle_k.json"), "gentle"),
}


def _check(capsys, argv):
    code = run(argv)  # an exception escaping here is a traceback at the command line
    out, err = capsys.readouterr()
    assert code in (0, 1, 2), (argv, code, err)
    if argv[0] == "verify" and code != 2:
        assert err == "" and out and all(map(RESULT_LINE.fullmatch, out.splitlines())), (argv, out)
    elif code:
        assert out == "" and ERROR_LINE.match(err), (argv, out, err)
    elif argv[-1] == "json":
        json.loads(out)
    return code


def test_every_subcommand_keeps_the_exit_contract_on_fuzzed_input(capsys, tmp_path):
    rng = random.Random(SEED)
    codes, previous = set(), {}
    for k, (kind, doc) in enumerate(_cases(SEED, COUNT)):
        path = tmp_path / f"{k}.json"
        path.write_text(json.dumps(doc))
        other = previous.get(kind, path)
        previous[kind] = path
        bundle = tmp_path / f"bundle{k}"
        bundle.mkdir()
        names, check = VERIFY[kind]
        for name in names:
            (bundle / name).write_text(path.read_text())
        for argv in _argvs(kind, str(path), str(other), rng) + [["verify", str(bundle), "--only", check]]:
            for fmt in ("json", "text"):
                codes.add((argv[0], _check(capsys, argv + ["--format", fmt])))
    # the inputs reach every subcommand's success and its refusals (`verify`'s
    # checks pin the bundled fixtures, so on these it reports failures or
    # refuses the bundle)
    assert {name for name, code in codes if code == 0} == {
        "qf-info", "qf-realize", "qf-canonical-c", "qf-solve", "bg-form", "bg-balance",
        "bg-line", "bg-roots", "bg-switch-equiv", "gentle-euler"}
    assert {code for _, code in codes} == {0, 1, 2}
    assert {code for name, code in codes if name == "verify"} == {1, 2}
