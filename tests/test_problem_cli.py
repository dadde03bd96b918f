"""Problem-file parsing and the command-line front end."""

import json
import subprocess
import sys
import pytest

from hopfquiver.cli import main, parse_element
from hopfquiver.errors import SpecError
from hopfquiver.problem import load_problem

from conftest import SPECS_DIR, make_taft_structure


def run_cli(*argv):
    return main(list(argv))


def base_spec():
    return json.loads((SPECS_DIR / "z2_taft.json").read_text())


def test_load_bundled_specs():
    for path in sorted(SPECS_DIR.glob("*.json")):
        spec = load_problem(path)
        assert spec.degree_cap >= 2, path.name
        assert spec.tasks, path.name


def test_problem_rejects_bad_schema():
    data = base_spec()
    data["schema"] = 2
    with pytest.raises(SpecError):
        load_problem(data)


def test_problem_rejects_bad_tasks():
    data = base_spec()
    data["tasks"] = []
    with pytest.raises(SpecError):
        load_problem(data)
    data["tasks"] = ["no_such_task"]
    with pytest.raises(SpecError):
        load_problem(data)


def test_problem_rejects_mismatched_cyclic_cocycle():
    data = base_spec()
    data["cocycle"] = {"kind": "cyclic_standard", "n": 3, "zeta_power": 1}
    with pytest.raises(SpecError):
        load_problem(data)


def test_problem_rejects_missing_field_order():
    data = base_spec()
    del data["field_order"]
    with pytest.raises(SpecError):
        load_problem(data)


# -- element expressions ----------------------------------------------------------


def test_parse_element_atoms():
    S = make_taft_structure(2)
    assert parse_element("a0", S) == S.arrow(0)
    assert parse_element("g1", S) == S.vertex(1)


def test_parse_element_left_associative():
    S = make_taft_structure(4)
    lhs = parse_element("a0*a1*g2", S)
    expected = S.multiply(S.multiply(S.arrow(0), S.arrow(1)), S.vertex(2))
    assert lhs == expected


def test_parse_element_parentheses():
    S = make_taft_structure(4)
    grouped = parse_element("a0*(a1*g2)", S)
    expected = S.multiply(S.arrow(0), S.multiply(S.arrow(1), S.vertex(2)))
    assert grouped == expected


def test_parse_element_errors():
    S = make_taft_structure(2)
    for bad in ("a9", "g7", "a0*", "(a0", "a0)", "b0", "a0 a1"):
        with pytest.raises(SpecError):
            parse_element(bad, S)


# -- CLI ---------------------------------------------------------------------------


def test_cli_run_verify_passes(tmp_path, capsys):
    code = run_cli(
        "run", "--spec", str(SPECS_DIR / "z2_taft.json"), "--out", str(tmp_path)
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "overall: PASS" in out
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["ok"] is True
    assert report["tasks"]["verify"]["axioms"]["ok"] is True
    assert (tmp_path / "report.txt").exists()


def test_cli_verify_sweeps_the_cocycle_once(tmp_path, monkeypatch):
    """The verify task hands its cocycle report to the axiom check, which
    reports it under `reassociator_*` without sweeping Phi again."""
    import hopfquiver.cli as cli
    import hopfquiver.groups as groups

    real = groups.verify_cocycle
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(groups, "verify_cocycle", counted)
    monkeypatch.setattr(cli, "verify_cocycle", counted)
    spec = SPECS_DIR / "z2_nontrivial_cocycle.json"
    assert run_cli("run", "--spec", str(spec), "--task", "verify", "--out", str(tmp_path)) == 0
    assert len(calls) == 1
    verify = json.loads((tmp_path / "report.json").read_text())["tasks"]["verify"]
    checked = verify["axioms"]["checked"]
    assert verify["cocycle"]["checked"]
    for check, n in verify["cocycle"]["checked"].items():
        assert checked["reassociator_" + check] == n


def test_cli_multiply_prints_zero(tmp_path, capsys):
    code = run_cli(
        "run",
        "--spec", str(SPECS_DIR / "z2_taft.json"),
        "--task", "multiply", "--lhs", "a0", "--rhs", "a0",
        "--out", str(tmp_path),
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "0"


def test_cli_corrupted_cocycle_exits_1(tmp_path, capsys):
    data = base_spec()
    one = "1"
    values = [[[one, one], [one, one]], [[one, one], [one, "2"]]]
    data["cocycle"] = {"kind": "table", "values": values}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code = run_cli("run", "--spec", str(bad), "--out", str(tmp_path))
    assert code == 1
    report = json.loads((tmp_path / "report.json").read_text())
    viols = report["tasks"]["verify"]["cocycle"]["violations"]
    assert viols, "expected cocycle violations with machine-readable witnesses"
    assert all("witness" in v for v in viols)


def test_cli_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("run", "--spec", str(bad), "--out", str(tmp_path)) == 2
    missing = tmp_path / "missing.json"
    assert run_cli("run", "--spec", str(missing), "--out", str(tmp_path)) == 2


def _exit_code_with_coeff(tmp_path, where, value, fill="1"):
    """Run `verify` on z2_taft with one coefficient replaced: the first
    action value's coefficient, or the cocycle-table entry Phi(1, 1, 1) of a
    table whose other entries are `fill`."""
    data = base_spec()
    if where == "action":
        data["action"]["left"][0]["value"][0]["coeff"] = value
    else:
        values = [[[fill, fill], [fill, fill]], [[fill, fill], [fill, value]]]
        data["cocycle"] = {"kind": "table", "values": values}
    bad = tmp_path / f"bad_{where}.json"
    bad.write_text(json.dumps(data))
    return run_cli("run", "--spec", str(bad), "--out", str(tmp_path))


@pytest.mark.parametrize("where", ["action", "cocycle"])
def test_cli_zero_denominator_exits_2(tmp_path, capsys, where):
    for value in ("1/0", [1, "2/0"]):
        assert _exit_code_with_coeff(tmp_path, where, value) == 2, value
        assert "zero denominator in '" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["action", "cocycle"])
def test_cli_boolean_coefficient_exits_2(tmp_path, capsys, where):
    # the int fill equals True and hashes like it, so a cocycle table whose
    # equal entries share one parse must not read `true` as a cached `1`
    for fill in ("1", 1) if where == "cocycle" else ("1",):
        for value in (True, [True, 0]):
            assert _exit_code_with_coeff(tmp_path, where, value, fill) == 2, (value, fill)
            assert "True is not a rational number" in capsys.readouterr().err


def test_cli_zero_cocycle_entry_exits_2(tmp_path, capsys):
    assert _exit_code_with_coeff(tmp_path, "cocycle", "0") == 2
    assert "cocycle.values[1][1][1] is zero" in capsys.readouterr().err


_NOT_DEGREE1 = "action.left: g=1 arrow=0: value is not homogeneous of degree 1"


def _exit_code_of(tmp_path, data):
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(data))
    return run_cli("run", "--spec", str(path), "--out", str(tmp_path))


@pytest.mark.parametrize(
    "entry, named",
    [
        ({"arrow": 0, "g": 7, "value": [{"arrow": 1, "coeff": "1"}]}, "g=7"),
        ({"arrow": 99, "g": 0, "value": []}, "arrow=99"),
    ],
    ids=["g_outside_group", "arrow_outside_quiver"],
)
def test_cli_out_of_range_action_key_exits_2(tmp_path, capsys, entry, named):
    for side in ("left", "right"):
        data = base_spec()
        data["action"][side].append(entry)
        assert _exit_code_of(tmp_path, data) == 2, side
        assert f"action.{side}: {named} " in capsys.readouterr().err


@pytest.mark.parametrize(
    "term, named",
    [
        ({"arrow": -1, "coeff": "-1"}, "no arrow -1"),
        ({"source": 0, "arrows": [5], "coeff": "1"}, "no arrow 5"),
        ({"source": 9, "arrows": [], "coeff": "1"}, "no vertex 9"),
        ({"arrow": 99, "coeff": "1"}, "no arrow 99"),
        ({"arrow": "0", "coeff": "1"}, "no arrow '0'"),
        ({"source": 1, "arrows": [1, 0], "coeff": "1"}, _NOT_DEGREE1),
        ({"source": 0, "arrows": [], "coeff": "1"}, _NOT_DEGREE1),
    ],
    ids=[
        "negative_arrow", "arrow_outside_quiver", "vertex_outside_group",
        "short_form_arrow_outside_quiver", "short_form_string_arrow",
        "two_arrow_path", "vertex_path",
    ],
)
def test_cli_out_of_range_action_value_exits_2(tmp_path, capsys, term, named):
    data = base_spec()
    data["action"]["left"][2]["value"] = [term]
    assert _exit_code_of(tmp_path, data) == 2
    assert named in capsys.readouterr().err


_PLANE = [["1", "1"], ["1", "1"]]


def _set_table(data, values):
    data["cocycle"] = {"kind": "table", "values": values}


@pytest.mark.parametrize(
    "field, edit",
    [
        ("class_rep", lambda data: data["ramification"][0].update(class_rep=5)),
        ("degree_cap", lambda data: data.update(degree_cap=True)),
        ("mult", lambda data: data["ramification"][0].update(mult=True)),
        ("action", lambda data: data.update(action=[])),
        ("action", lambda data: data.update(action=None)),
        ("tasks", lambda data: data.update(tasks=5)),
        ("tasks", lambda data: data.update(tasks="verify")),
        ("cocycle.values is not", lambda data: _set_table(data, [_PLANE] * 3)),
        ("cocycle.values[0] is not", lambda data: _set_table(data, [5, _PLANE])),
        ("cocycle.values[0] is not", lambda data: _set_table(data, [_PLANE + [["1", "1"]], _PLANE])),
        ("cocycle.values[0][0] is not", lambda data: _set_table(
            data, [[["1", "1", "1"], ["1", "1"]], _PLANE])),
        ("cocycle.values[0][1] is not", lambda data: _set_table(
            data, [[["1", "1"], ["1"]], _PLANE])),
        ("cocycle.values[1][1][1] is not a scalar", lambda data: _set_table(
            data, [_PLANE, [["1", "1"], ["1", {"re": 1}]]])),
    ],
    ids=[
        "class_rep_outside_group", "boolean_degree_cap", "boolean_mult",
        "action_list", "action_null", "tasks_int", "tasks_string",
        "cocycle_long_table", "cocycle_int_plane", "cocycle_long_plane",
        "cocycle_long_row", "cocycle_short_row", "cocycle_object_entry",
    ],
)
def test_cli_bad_integer_field_exits_2(tmp_path, capsys, field, edit):
    data = base_spec()
    edit(data)
    assert _exit_code_of(tmp_path, data) == 2
    assert field in capsys.readouterr().err


def test_cli_degree_cap_override(tmp_path, capsys):
    code = run_cli(
        "run", "--spec", str(SPECS_DIR / "z2_taft.json"),
        "--degree-cap", "2", "--out", str(tmp_path),
    )
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["degree_cap"] == 2


def test_cli_export_dot(tmp_path, capsys):
    out = tmp_path / "quiver.dot"
    code = run_cli(
        "export-quiver", "--spec", str(SPECS_DIR / "z2_taft.json"),
        "--format", "dot", "--out", str(out),
    )
    assert code == 0
    text = out.read_text()
    assert text.count("->") == 2


def test_cli_export_json_s3_quiver(tmp_path):
    # S3 transposition quiver: 6 nodes, 18 arrows
    from hopfquiver import symmetric_group

    g = symmetric_group(3)
    cls_rep = next(c[0] for c in g.classes if len(c) == 3)
    spec = {
        "schema": 1,
        "field_order": 1,
        "group": {"mult": [list(r) for r in g.mult]},
        "cocycle": {"kind": "trivial"},
        "ramification": [{"class_rep": cls_rep, "mult": 1}],
        "action": {},
        "degree_cap": 2,
        "tasks": ["verify"],
    }
    path = tmp_path / "s3.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "s3.quiver.json"
    code = run_cli("export-quiver", "--spec", str(path), "--format", "json", "--out", str(out))
    assert code == 0
    data = json.loads(out.read_text())
    assert data["vertices"] == 6
    assert len(data["arrows"]) == 18


def test_cli_export_nodes_only(tmp_path):
    data = base_spec()
    data["ramification"] = []
    data["action"] = {}
    path = tmp_path / "noarrows.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "q.dot"
    assert run_cli("export-quiver", "--spec", str(path), "--out", str(out)) == 0
    assert "->" not in out.read_text()


def test_cli_decompose_and_crossed_product(tmp_path, capsys):
    code = run_cli(
        "run", "--spec", str(SPECS_DIR / "z4_two_blocks_standard_cocycle.json"),
        "--out", str(tmp_path),
    )
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    dec = report["tasks"]["decompose"]["decomposition"]
    assert dec["normal_subgroup"] == [0, 2]
    cp = report["tasks"]["crossed_product"]
    assert cp["ok"] is True
    assert cp["reading"] == "literal"


def test_cli_primitives_task(tmp_path):
    code = run_cli(
        "run", "--spec", str(SPECS_DIR / "one_vertex_2_loop.json"),
        "--out", str(tmp_path),
    )
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["tasks"]["primitives"]["ok"] is True
    assert report["tasks"]["primitives"]["loops"] == [0, 1]


@pytest.mark.parametrize("cap", [0, 1, 2])
@pytest.mark.parametrize("task", ["primitives", "report"])
def test_cli_primitives_below_cap_3_reports_failure(tmp_path, task, cap):
    code = run_cli(
        "run", "--spec", str(SPECS_DIR / "one_vertex_2_loop.json"),
        "--task", task, "--degree-cap", str(cap), "--out", str(tmp_path),
    )
    assert code == 1
    report = json.loads((tmp_path / "report.json").read_text())
    res = report["tasks"]["primitives"]
    assert res["ok"] is False
    assert res["error"] == f"operation needs degree 3 but the structure is capped at {cap}"


@pytest.mark.parametrize("task, exprs, needed", [
    ("multiply", ["--lhs", "a0*a1", "--rhs", "a0"], 3),
    ("antipode", ["--arg", "a0*a1*a0"], 3),
])
def test_cli_over_cap_operation_still_reports(tmp_path, task, exprs, needed):
    """An operation above the cap fails its own task; the report is written
    and keeps the tasks that ran before it."""
    code = run_cli(
        "run", "--spec", str(SPECS_DIR / "one_vertex_2_loop.json"),
        "--task", "verify", "--task", task, *exprs,
        "--degree-cap", "2", "--out", str(tmp_path),
    )
    assert code == 1
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["tasks"]["verify"]["ok"] is True
    res = report["tasks"][task]
    assert res["ok"] is False
    assert res["error"] == f"operation needs degree {needed} but the structure is capped at 2"
    assert report["ok"] is False


def test_cli_antipode_task(tmp_path, capsys):
    code = run_cli(
        "run", "--spec", str(SPECS_DIR / "z2_taft.json"),
        "--task", "antipode", "--arg", "a0", "--out", str(tmp_path),
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "a1"  # S(a_0) = -q a_1 = a_1 at q = -1


def test_cli_report_task_aggregates(tmp_path, capsys):
    code = run_cli(
        "run", "--spec", str(SPECS_DIR / "z4_two_blocks_trivial.json"),
        "--task", "report", "--out", str(tmp_path),
    )
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert set(report["tasks"]) == {"verify", "decompose", "crossed_product"}
    code = run_cli(
        "run", "--spec", str(SPECS_DIR / "one_vertex_1_loop.json"),
        "--task", "report", "--out", str(tmp_path),
    )
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert "primitives" in report["tasks"]


def test_cli_subprocess_entry_point(tmp_path):
    """The module is runnable as `python -m hopfquiver.cli`."""
    result = subprocess.run(
        [
            sys.executable, "-m", "hopfquiver.cli", "run",
            "--spec", str(SPECS_DIR / "z2_taft.json"),
            "--out", str(tmp_path), "--format", "json",
        ],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["ok"] is True
