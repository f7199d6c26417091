import glob
import json
import os
import re
import resource
import subprocess
import sys
import time

import pytest

import bidiforms
from bidiforms import bidigraph as bg
from bidiforms.cli import run

FIX = "fixtures"


def run_capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def test_qf_info_algo_form(capsys):
    code, out = run_capture(capsys, ["qf-info", f"{FIX}/typec_rank3_form.json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["rank"] == 3
    assert payload["corank"] == 1
    assert payload["dynkin"] == "C3"


def test_qf_info_text_format(capsys):
    code, out = run_capture(capsys, ["qf-info", f"{FIX}/c4_form.json", "--format", "text"])
    assert code == 0
    assert "rank: 4" in out and "dynkin: C4" in out


def test_qf_info_notes_why_a_form_has_no_dynkin_type(capsys, tmp_path):
    path = tmp_path / "indefinite.json"
    path.write_text(json.dumps({"n": 2, "diag": [1, 1], "off": [[1, 2, -3]]}))
    code, out = run_capture(capsys, ["qf-info", str(path)])
    payload = json.loads(out)
    assert code == 0 and payload["dynkin"] is None and payload["non_negative"] is False
    assert payload["dynkin_note"] == "dynkin_type needs a non-negative form"
    code, out = run_capture(capsys, ["qf-info", str(path), "--format", "text"])
    assert code == 0
    assert out == ("q(x) = x1^2 + x2^2 - 3x1x2\nrank: 2\ncorank: 0\n"
                   "dynkin: None (dynkin_type needs a non-negative form)\n"
                   "flags: connected, irreducible, unit, cox_regular, fully_regular, classic\n")


def test_qf_realize_round_trip(capsys, tmp_path):
    code, out = run_capture(capsys, ["qf-realize", f"{FIX}/typec_rank3_form.json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["vertices"] == 3 and len(payload["arrows"]) == 4
    # the emitted JSON re-parses to an equal graph and reproduces the form
    from bidiforms.bidigraph import BidirectedGraph
    from bidiforms.qform import IntegralQuadraticForm

    B = BidirectedGraph.from_json_dict(payload)
    with open(f"{FIX}/typec_rank3_form.json") as fh:
        q = IntegralQuadraticForm.from_json_dict(json.load(fh))
    assert B.incidence_form() == q


def test_qf_realize_rejects_e6(capsys, tmp_path):
    from bidiforms.classify import dynkin_unit_form

    path = tmp_path / "e6.json"
    path.write_text(json.dumps(dynkin_unit_form("E", 6).to_json_dict()))
    code = run(["qf-realize", str(path)])
    assert code == 1


def test_qf_info_and_realize_on_extended_e8(capsys, tmp_path):
    from tests.test_classify import Q_E8_EXTENDED

    path = tmp_path / "e8_extended.json"
    path.write_text(json.dumps(Q_E8_EXTENDED.to_json_dict()))
    code, out = run_capture(capsys, ["qf-info", str(path), "--format", "text"])
    assert code == 0 and "dynkin: E8" in out
    assert run(["qf-realize", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: unit forms of type E8 are not incidence forms\n"


def test_qf_canonical_c(capsys):
    code, out = run_capture(capsys, ["qf-canonical-c", f"{FIX}/typec_rank3_form.json"])
    assert code == 0
    payload = json.loads(out)
    assert (payload["r"], payload["c1"], payload["c2"]) == (3, 1, 0)
    steps = payload["transform"]["steps"]
    assert steps[0] == {"op": "gabrielov", "i": 3, "j": 4}


def test_qf_solve(capsys):
    code, out = run_capture(capsys, ["qf-solve", f"{FIX}/c4_form.json", "-d", "0"])
    assert code == 0
    assert json.loads(out)["x"] == [0, 0, 0, 0]
    code, out = run_capture(capsys, ["qf-solve", f"{FIX}/c4_form.json", "-d", "14"])
    payload = json.loads(out)
    from bidiforms.qform import IntegralQuadraticForm

    with open(f"{FIX}/c4_form.json") as fh:
        q = IntegralQuadraticForm.from_json_dict(json.load(fh))
    assert q.evaluate(payload["x"]) == 14


def test_bg_form_and_balance(capsys):
    code, out = run_capture(capsys, ["bg-form", f"{FIX}/three_vertex_graph.json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["diag"] == [1, 1, 1]
    assert payload["off"] == [[1, 2, -1], [2, 3, -1]]
    code, out = run_capture(capsys, ["bg-balance", f"{FIX}/three_vertex_graph.json"])
    assert json.loads(out)["beta"] == 0
    code, out = run_capture(capsys, ["bg-balance", f"{FIX}/path_quiver.json"])
    payload = json.loads(out)
    assert payload["beta"] == 1 and payload["quiver_switch"] is not None


def test_bg_roots_two_set(capsys):
    code, out = run_capture(
        capsys, ["bg-roots", f"{FIX}/three_vertex_graph.json", "--set", "2"]
    )
    assert code == 0
    payload = json.loads(out)
    got = {tuple(v) for v in payload["vectors"]}
    expected = set()
    for v in [(1, 0, 1), (1, 0, -1), (1, 2, 1)]:
        expected.add(v)
        expected.add(tuple(-c for c in v))
    assert got == expected


def test_bg_roots_max_len_flag(capsys):
    code, out = run_capture(
        capsys,
        ["bg-roots", f"{FIX}/path_quiver.json", "--set", "1", "--max-len", "3"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["max_len"] == 3
    assert [1, 1, 1] in payload["vectors"]  # the full path needs length 3


def test_bg_roots_max_len_zero_keeps_only_the_trivial_walk(capsys):
    for root_set, vectors in (("0", [[0, 0, 0]]), ("1", []), ("2", [])):
        code, out = run_capture(
            capsys,
            ["bg-roots", f"{FIX}/three_vertex_graph.json", "--set", root_set, "--max-len", "0"],
        )
        assert code == 0
        assert json.loads(out) == {"set": int(root_set), "max_len": 0, "vectors": vectors}


@pytest.mark.parametrize("max_len", ["-1", "-3"])
def test_bg_roots_refuses_a_negative_max_len(capsys, max_len):
    assert run(["bg-roots", f"{FIX}/three_vertex_graph.json", "--set", "1", "--max-len", max_len]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: argument --max-len: length must be >= 0\n"


def test_bg_line(capsys):
    code, out = run_capture(capsys, ["bg-line", f"{FIX}/path_quiver.json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["vertices"] == 3
    assert payload["edges"] == [[1, 2, 1, -1], [2, 3, 1, -1]]


@pytest.mark.parametrize(
    "command, want",
    [("bg-form", {"diag": [1, 1], "n": 2, "off": [[1, 2, -1]]}),
     ("bg-line", {"vertices": 2, "edges": [[1, 2, 1, -1]]})],
)
def test_graph_form_costs_nothing_per_untouched_vertex(capsys, tmp_path, command, want):
    # 10^20 vertices, two arrows: a list per vertex would never finish
    m = 10**20
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"vertices": m, "arrows": [{"ends": [[1, 1], [2, -1]]},
                                                          {"ends": [[2, 1], [m, -1]]}]}))
    start = time.perf_counter()
    code, out = run_capture(capsys, [command, str(path)])
    assert code == 0 and time.perf_counter() - start < 1.0
    assert json.loads(out) == want


@pytest.mark.parametrize("command", [["bg-balance"], ["bg-roots", "--set", "1"]])
def test_graph_with_untouched_vertices_is_refused_at_once(capsys, tmp_path, command):
    # 10^20 vertices, two arrows: disconnected, told by the arrows alone
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"vertices": 10**20, "arrows": [{"ends": [[1, 1], [2, -1]]},
                                                              {"ends": [[2, 1], [3, -1]]}]}))
    start = time.perf_counter()
    code = run([command[0], str(path), *command[1:]])
    captured = capsys.readouterr()
    assert code == 1 and time.perf_counter() - start < 1.0
    assert captured.out == "" and captured.err.count("\n") == 1 and captured.err.startswith("error: ")


@pytest.mark.parametrize("command", ["bg-switch-equiv", "gentle-euler"])
def test_switch_equiv_with_too_many_untouched_vertices_is_refused(tmp_path, command):
    # bg-switch-equiv on two copies of a 2-arrow graph on 10^20 vertices: the answer
    # would list every vertex image, so it is refused before any per-vertex list is
    # built; gentle-euler on a 1-arrow quiver on 10^20 vertices: the quiver is not
    # connected, which its arrows tell before any per-vertex list is built
    path = tmp_path / "huge.json"
    if command == "bg-switch-equiv":
        doc = {"vertices": 10**20, "arrows": [{"ends": [[1, 1], [2, -1]]}, {"ends": [[2, 1], [3, -1]]}]}
        argv, message = [str(path), str(path)], str(bg.MAX_UNTOUCHED)
    else:
        doc = {"vertices": 10**20, "arrows": [{"name": "a", "src": 1, "tgt": 2}], "relations": []}
        argv, message = [str(path)], "error: quiver is not connected\n"
    path.write_text(json.dumps(doc))
    start = time.monotonic()
    proc = _in_subprocess("-m", "bidiforms.cli", command, *argv, preexec_fn=_cap_address_space)
    assert time.monotonic() - start < 10
    assert proc.returncode == 1 and proc.stdout == "" and "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert message in proc.stderr


def test_switch_equiv_refusal_starts_above_the_untouched_limit(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(bg, "MAX_UNTOUCHED", 4)
    arrows = [{"ends": [[1, 1], [2, -1]]}, {"ends": [[2, 1], [3, -1]]}]
    paths = {}
    for m in (7, 8):  # 4 and 5 untouched vertices
        paths[m] = tmp_path / f"m{m}.json"
        paths[m].write_text(json.dumps({"vertices": m, "arrows": arrows}))
    code, out = run_capture(capsys, ["bg-switch-equiv", str(paths[7]), str(paths[7])])
    assert code == 0
    assert json.loads(out) == {"equivalent": True, "signs": [1] * 7, "perm": list(range(1, 8))}
    assert run(["bg-switch-equiv", str(paths[8]), str(paths[8])]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    # graphs that touch different numbers of vertices differ however many vertices they have
    other = tmp_path / "other.json"
    other.write_text(json.dumps({"vertices": 10**20, "arrows": [{"ends": [[1, 1], [2, -1]]},
                                                               {"ends": [[1, 1], [2, -1]]}]}))
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({"vertices": 10**20, "arrows": arrows}))
    code, out = run_capture(capsys, ["bg-switch-equiv", str(huge), str(other)])
    assert code == 0 and json.loads(out) == {"equivalent": False, "signs": None, "perm": None}


def test_bg_switch_equiv(capsys):
    code, out = run_capture(
        capsys,
        ["bg-switch-equiv", f"{FIX}/three_vertex_graph.json", f"{FIX}/path_quiver.json"],
    )
    assert code == 0
    assert json.loads(out)["equivalent"] is False
    code, out = run_capture(
        capsys,
        ["bg-switch-equiv", f"{FIX}/three_vertex_graph.json", f"{FIX}/three_vertex_graph.json"],
    )
    assert json.loads(out)["equivalent"] is True


def test_gentle_euler(capsys):
    code, out = run_capture(capsys, ["gentle-euler", f"{FIX}/gentle_loop_pair.json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["cartan"] == [[1, 1], [1, 2]]
    assert payload["incidence"] == [[2, 0], [-1, 1]]
    assert payload["components"][0]["dynkin"] == "C2"


def test_verify_all(capsys):
    code, out = run_capture(capsys, ["verify", FIX])
    assert code == 0
    assert out.count("PASS") == 6 and "FAIL" not in out


def test_verify_only_filter(capsys):
    code, out = run_capture(capsys, ["verify", FIX, "--only", "gentle"])
    assert code == 0
    assert out.strip() == "PASS  gentle"


def test_verify_missing_bundle():
    assert run(["verify", "no/such/dir"]) == 2


def test_verify_only_filter_that_matches_no_check(capsys):
    assert run(["verify", FIX, "--only", "no-such-check"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: no verify check matches 'no-such-check'\n"


def test_verify_missing_fixture_file(tmp_path):
    # a present bundle directory with an absent file is malformed input
    with open(f"{FIX}/three_vertex_graph.json") as fh:
        (tmp_path / "three_vertex_graph.json").write_text(fh.read())
    # path_quiver.json is missing from the bundle
    assert run(["verify", str(tmp_path), "--only", "example-pair"]) == 2


def test_malformed_input_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["qf-info", str(bad)]) == 2
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({"n": 2, "diag": [1]}))
    assert run(["qf-info", str(schema)]) == 2


def test_unknown_flag_exit_2():
    assert run(["qf-info", "--bogus"]) == 2


def test_json_round_trip_of_emitted_graph(capsys):
    code, out = run_capture(capsys, ["qf-realize", f"{FIX}/c4_form.json"])
    assert code == 0
    from bidiforms.bidigraph import BidirectedGraph

    payload = json.loads(out)
    assert BidirectedGraph.from_json_dict(payload).to_json_dict() == payload


@pytest.mark.parametrize(
    "command, payload",
    [
        ("qf-info", {"n": 2, "diag": [1.9, True], "off": [[1, 2, "-1"]]}),
        ("qf-info", {"n": 2, "diag": [1, 1], "off": [[1, 2, "-1"]]}),
        ("qf-info", {"n": 2.0, "diag": [1, 1]}),
        ("bg-form", {"vertices": 2, "arrows": [{"ends": [[1, 1.0], [2, -1]]}]}),
        ("bg-form", {"vertices": True, "arrows": [{"ends": [[1, 1], [2, -1]]}]}),
        ("bg-form", {"vertices": 2, "arrows": [{"ends": [[1, 1], [2, -1], [2, 1]]}]}),
        (
            "gentle-euler",
            {"vertices": 2, "arrows": [{"name": "a", "src": 1, "tgt": "2"}], "relations": []},
        ),
        (
            "gentle-euler",
            {"vertices": 2, "arrows": [{"name": "a", "src": 1, "tgt": 2}], "relations": [["a", "a", "a"]]},
        ),
    ],
)
def test_non_integer_json_numbers_exit_2(capsys, tmp_path, command, payload):
    # bool, float and str are refused, not truncated or coerced by int(), as are
    # ends and relation pairs of the wrong length
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    assert run([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


@pytest.mark.parametrize(
    "names, relation",
    [
        ((None, "b"), ["None", "b"]),  # read with str() it was the arrow "None", typed A3
        ((1, "b"), ["1", "b"]),
        (("1", "b"), [1, "b"]),
    ],
)
def test_gentle_arrow_names_must_be_strings_exit_2(capsys, tmp_path, names, relation):
    arrows = [{"name": names[0], "src": 1, "tgt": 2}, {"name": names[1], "src": 2, "tgt": 3}]
    path = tmp_path / "quiver.json"
    path.write_text(json.dumps({"vertices": 3, "arrows": arrows, "relations": [relation]}))
    assert run(["gentle-euler", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: arrow names must be strings, got ")
    assert captured.err.count("\n") == 1


def test_repeated_off_pair_exit_2(capsys, tmp_path):
    # read as x1x2 - x1x2 it would be typed A2 with exit 0
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps({"n": 2, "diag": [1, 1], "off": [[1, 2, 1], [1, 2, -1]]}))
    assert run(["qf-info", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_gtransform_json_rejects_non_integers():
    from bidiforms.classify import GTransform
    from bidiforms.errors import InvalidInput

    with pytest.raises(InvalidInput):
        GTransform.from_json_dict({"matrix": [[1, 0], [0, 1.0]], "steps": []})
    with pytest.raises(InvalidInput):
        GTransform.from_json_dict(
            {"matrix": [[1, 0], [0, 1]], "steps": [{"op": "sign", "i": True}]}
        )


def test_verify_reports_why_a_check_failed(capsys, tmp_path):
    # a well-formed unit form in place of the type-C fixture makes canonical_c refuse
    (tmp_path / "typec_rank3_form.json").write_text(
        json.dumps({"n": 2, "diag": [1, 1], "off": [[1, 2, -1]]})
    )
    code, out = run_capture(capsys, ["verify", str(tmp_path), "--only", "algo-pipeline"])
    assert code == 1
    assert out.startswith("FAIL  algo-pipeline: NotTypeC: ")


SOLVE_TARGETS = (1, 2, 5, 14, 97)
# the qf-solve goldens hold stdout and stderr; this target is refused with bound 0
GOLDEN_EXIT = {("qf-solve", "typec_rank3_form", 14): 1}


@pytest.mark.parametrize(
    "command, d",
    [pytest.param(c, None, id=c) for c in ("qf-realize", "qf-canonical-c", "qf-info")]
    + [pytest.param("qf-solve", d, id=f"qf-solve-d{d}") for d in SOLVE_TARGETS],
)
@pytest.mark.parametrize("fixture", ["c4_form", "typec_rank3_form"])
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_output_is_byte_identical_to_golden(capsys, command, d, fixture, fmt):
    target = [] if d is None else ["-d", str(d)]
    code = run([command, f"{FIX}/{fixture}.json", *target, "--format", fmt])
    captured = capsys.readouterr()
    assert code == GOLDEN_EXIT.get((command, fixture, d), 0)
    suffix = "" if d is None else f".d{d}"
    with open(f"tests/golden/{command}__{fixture}{suffix}.{fmt}.out") as fh:
        assert captured.out + captured.err == fh.read()


# unit forms: a rank-3 form whose first graph has 3 vertices (A_3 = D_3, named A3 and
# realized on 4 vertices), and E6, which has no graph (refused with exit 1)
UNIT_GOLDEN_EXIT = {("qf-realize", "e6_form"): 1}


@pytest.mark.parametrize("command", ["qf-info", "qf-realize"])
@pytest.mark.parametrize("fixture", ["unit_rank3_form", "e6_form"])
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_unit_form_output_is_byte_identical_to_golden(capsys, command, fixture, fmt):
    code = run([command, f"{FIX}/{fixture}.json", "--format", fmt])
    captured = capsys.readouterr()
    assert code == UNIT_GOLDEN_EXIT.get((command, fixture), 0)
    with open(f"tests/golden/{command}__{fixture}.{fmt}.out") as fh:
        assert captured.out + captured.err == fh.read()


@pytest.mark.parametrize("fixture", ["three_vertex_graph", "path_quiver"])
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_bg_form_byte_identical_to_golden(capsys, fixture, fmt):
    code, out = run_capture(capsys, ["bg-form", f"{FIX}/{fixture}.json", "--format", fmt])
    assert code == 0
    with open(f"tests/golden/bg-form__{fixture}.{fmt}.out") as fh:
        assert out == fh.read()


@pytest.mark.parametrize("fixture", ["three_vertex_graph", "path_quiver"])
@pytest.mark.parametrize("root_set", ["0", "1", "2"])
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_bg_roots_byte_identical_to_golden(capsys, fixture, root_set, fmt):
    code, out = run_capture(capsys, ["bg-roots", f"{FIX}/{fixture}.json", "--set", root_set, "--format", fmt])
    assert code == 0
    with open(f"tests/golden/bg-roots__{fixture}.set{root_set}.{fmt}.out") as fh:
        assert out == fh.read()


@pytest.mark.parametrize("fixture", ["three_vertex_graph", "path_quiver"])
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_bg_balance_byte_identical_to_golden(capsys, fixture, fmt):
    code, out = run_capture(capsys, ["bg-balance", f"{FIX}/{fixture}.json", "--format", fmt])
    assert code == 0
    with open(f"tests/golden/bg-balance__{fixture}.{fmt}.out") as fh:
        assert out == fh.read()


@pytest.mark.parametrize("fixture2", ["three_vertex_graph", "path_quiver"])
@pytest.mark.parametrize("fixture", ["three_vertex_graph", "path_quiver"])
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_bg_switch_equiv_byte_identical_to_golden(capsys, fixture, fixture2, fmt):
    argv = ["bg-switch-equiv", f"{FIX}/{fixture}.json", f"{FIX}/{fixture2}.json", "--format", fmt]
    code, out = run_capture(capsys, argv)
    assert code == 0
    with open(f"tests/golden/bg-switch-equiv__{fixture}.{fixture2}.{fmt}.out") as fh:
        assert out == fh.read()


def _in_subprocess(*argv, preexec_fn=None):
    """Run `python argv...` with this checkout's package importable, warnings as errors."""
    src = os.path.dirname(os.path.dirname(bidiforms.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
           "PYTHONWARNINGS": "error"}
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, timeout=60, env=env,
        preexec_fn=preexec_fn,
    )


def _cap_address_space():
    """`preexec_fn` of a child process: caps its own address space at 1 GiB."""
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def _qf_solve_in_subprocess(tmp_path, diag, d, *opts, preexec_fn=None):
    form = tmp_path / "form.json"
    form.write_text(json.dumps({"n": len(diag), "diag": diag, "off": []}))
    return _in_subprocess(
        "-m", "bidiforms.cli", "qf-solve", str(form), "-d", str(d), *opts, preexec_fn=preexec_fn,
    )


@pytest.mark.parametrize("bound", ["-1", "-5"])
def test_qf_solve_refuses_a_negative_bound(capsys, bound):
    assert run(["qf-solve", f"{FIX}/typec_rank3_form.json", "-d", "14", "--bound", bound]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: argument --bound: bound must be >= 0\n"
    # a bound of 0 searches the first box |x_i| <= 1, as a bound of 1 does
    zero = run_capture(capsys, ["qf-solve", f"{FIX}/typec_rank3_form.json", "-d", "5", "--bound", "0"])
    assert zero == run_capture(capsys, ["qf-solve", f"{FIX}/typec_rank3_form.json", "-d", "5", "--bound", "1"])
    assert zero[0] == 0


@pytest.mark.parametrize("d", ["-1", "-7"])
def test_qf_solve_refuses_a_negative_d(capsys, d):
    # a usage error like a negative --bound, not a domain rejection
    assert run(["qf-solve", f"{FIX}/typec_rank3_form.json", "-d", d]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: argument -d: d must be >= 0\n"


def test_qf_solve_terminates_outside_the_content_lattice(tmp_path):
    # 2(x1^2 + ... + x5^2) = 1 has no solution; the command must say so, not search forever
    proc = _qf_solve_in_subprocess(tmp_path, [2] * 5, 1)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")


def test_qf_solve_stops_at_the_box_point_budget(tmp_path):
    # 3(x1^2 + ... + x5^2) + x6^2 = 2: d is in the content lattice, but x6^2 is never 2 mod 3
    proc = _qf_solve_in_subprocess(tmp_path, [3] * 5 + [1], 2)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: no representation of 2")


@pytest.mark.parametrize("d, opts", [(10**30 + 3, ()), (7, ("--bound", str(10**12)))])
def test_qf_solve_on_huge_input_is_refused_in_little_memory(tmp_path, d, opts):
    # x1^2 + x2^2 + x3^2: the box is searched one block at a time, never listed
    start = time.monotonic()
    proc = _qf_solve_in_subprocess(tmp_path, [1, 1, 1], d, *opts, preexec_fn=_cap_address_space)
    assert time.monotonic() - start < 10
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: no representation of ") and proc.stderr.count("\n") == 1


def test_bg_switch_equiv_on_a_long_path(tmp_path):
    # a 2,000-arrow path and a switching of it; a search that recursed per vertex would overflow
    n = 2000
    ends = [[[i, 1], [i + 1, -1]] for i in range(1, n + 1)]
    switched = [[[n + 2 - i, -1], [n + 1 - i, 1]] for i in range(1, n + 1)]  # reversed, all signs flipped
    paths = []
    for name, arrows in (("path", ends), ("switched", switched)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"vertices": n + 1, "arrows": [{"ends": e} for e in arrows]}))
        paths.append(str(path))
    proc = _in_subprocess("-m", "bidiforms.cli", "bg-switch-equiv", *paths)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["equivalent"] is True
    assert payload["perm"] == list(range(n + 1, 0, -1))
    assert payload["signs"] == [-1] * (n + 1)


DEMOS = ["01_incidence_forms", "02_dynkin_classification", "03_walks_and_roots",
         "04_diophantine", "05_gentle_euler_forms"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_stdout_byte_identical_to_golden(demo):
    proc = _in_subprocess(f"demos/{demo}.py")
    assert proc.returncode == 0, proc.stderr
    with open(f"tests/golden/demos/{demo}.out") as fh:
        assert proc.stdout == fh.read()


def test_internal_check_failure_exits_3(capsys, monkeypatch):
    from bidiforms import classify

    def broken(*args, **kwargs):
        raise AssertionError("realization does not match the form")

    monkeypatch.setattr(classify, "realize", broken)
    code = run(["qf-realize", f"{FIX}/c4_form.json"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "error: internal check failed: realization does not match the form\n"


def test_help_documents_the_exit_codes(capsys):
    assert run(["--help"]) == 0
    out = " ".join(capsys.readouterr().out.split())
    assert "0 success, 1 domain rejection, 2 malformed input or usage error, 3 an internal check failed." in out


@pytest.mark.parametrize(
    "command, fixture",
    [("bg-line", f) for f in ("three_vertex_graph", "path_quiver")]
    + [("gentle-euler", f) for f in ("gentle_k", "gentle_loop_pair")],
)
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_bg_line_and_gentle_euler_byte_identical_to_golden(capsys, command, fixture, fmt):
    code = run([command, f"{FIX}/{fixture}.json", "--format", fmt])
    captured = capsys.readouterr()
    assert code == 0
    with open(f"tests/golden/{command}__{fixture}.{fmt}.out") as fh:
        assert captured.out + captured.err == fh.read()


@pytest.mark.parametrize("only, suffix", [([], ""), (["--only", "gen"], ".only-gen")])
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_verify_byte_identical_to_golden(capsys, only, suffix, fmt):
    code = run(["verify", FIX, *only, "--format", fmt])
    captured = capsys.readouterr()
    assert code == 0
    with open(f"tests/golden/verify__fixtures{suffix}.{fmt}.out") as fh:
        assert captured.out + captured.err == fh.read()


SUBCOMMANDS = ["qf-info", "qf-realize", "qf-canonical-c", "qf-solve", "bg-form", "bg-balance",
               "bg-roots", "bg-line", "bg-switch-equiv", "gentle-euler", "verify"]


@pytest.mark.parametrize("command", [None, *SUBCOMMANDS])
def test_help_byte_identical_to_golden(capsys, monkeypatch, command):
    # argparse wraps help text to the terminal width, which COLUMNS fixes
    monkeypatch.setenv("COLUMNS", "80")
    assert run(["--help"] if command is None else [command, "--help"]) == 0
    captured = capsys.readouterr()
    with open(f"tests/golden/help/{command or 'bidiforms'}.out") as fh:
        assert captured.out + captured.err == fh.read()


def test_usage_error_byte_identical_to_golden(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert run(["qf-solve", f"{FIX}/c4_form.json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    with open("tests/golden/usage/qf-solve__no-d.out") as fh:
        assert captured.err == fh.read()


def test_every_subcommand_has_a_golden_in_each_format(capsys):
    # the subcommands as `bidiforms --help` lists them, so a new one cannot land unpinned
    assert run(["--help"]) == 0
    listed = re.search(r"\{([a-z0-9,-]+)\}", capsys.readouterr().out).group(1).split(",")
    assert listed == SUBCOMMANDS
    for command in listed:
        for fmt in ("json", "text"):
            assert glob.glob(f"tests/golden/{command}__*.{fmt}.out"), (command, fmt)
        assert os.path.exists(f"tests/golden/help/{command}.out"), command
