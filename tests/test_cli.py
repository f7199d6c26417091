import json
import os
import subprocess
import sys

import pytest

import bidiforms
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


def test_bg_line(capsys):
    code, out = run_capture(capsys, ["bg-line", f"{FIX}/path_quiver.json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["vertices"] == 3
    assert payload["edges"] == [[1, 2, 1, -1], [2, 3, 1, -1]]


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


def test_verify_missing_fixture_file(tmp_path):
    # a present bundle directory with an absent file is malformed input
    src = open(f"{FIX}/three_vertex_graph.json").read()
    (tmp_path / "three_vertex_graph.json").write_text(src)
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
    ],
)
def test_non_integer_json_numbers_exit_2(capsys, tmp_path, command, payload):
    # bool, float and str are refused, not truncated or coerced by int()
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    assert run([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


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


@pytest.mark.parametrize("command", ["qf-realize", "qf-canonical-c", "qf-info"])
@pytest.mark.parametrize("fixture", ["c4_form", "typec_rank3_form"])
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_output_is_byte_identical_to_golden(capsys, command, fixture, fmt):
    code, out = run_capture(capsys, [command, f"{FIX}/{fixture}.json", "--format", fmt])
    assert code == 0
    with open(f"tests/golden/{command}__{fixture}.{fmt}.out") as fh:
        assert out == fh.read()


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


def _in_subprocess(*argv):
    """Run `python argv...` with this checkout's package importable."""
    src = os.path.dirname(os.path.dirname(bidiforms.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, timeout=60, env=env,
    )


def _qf_solve_in_subprocess(tmp_path, diag, d):
    form = tmp_path / "form.json"
    form.write_text(json.dumps({"n": len(diag), "diag": diag, "off": []}))
    return _in_subprocess("-m", "bidiforms.cli", "qf-solve", str(form), "-d", str(d))


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
