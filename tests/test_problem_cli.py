"""Problem-file parsing and the command-line front end."""

import json
import subprocess
import sys
import pytest

from hopfquiver import field_context
from hopfquiver.cli import build_parser, main, parse_element
from hopfquiver.errors import SpecError
import hopfquiver.problem
import hopfquiver.quiver
from hopfquiver.problem import MAX_BASIS, MAX_FIELD_ORDER, _element, load_problem

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


_NOT_ONE_ARROW = "action.left[2].value[0] is not one arrow"


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
        index = len(data["action"][side])
        data["action"][side].append(entry)
        assert _exit_code_of(tmp_path, data) == 2, side
        assert f"action.{side}[{index}]: {named} " in capsys.readouterr().err


@pytest.mark.parametrize(
    "term, named",
    [
        ({"arrow": -1, "coeff": "-1"}, "no arrow -1"),
        ({"source": 0, "arrows": [5], "coeff": "1"}, "no arrow 5"),
        ({"source": 9, "arrows": [], "coeff": "1"}, "no vertex 9"),
        ({"arrow": 99, "coeff": "1"}, "no arrow 99"),
        ({"arrow": "0", "coeff": "1"}, "no arrow '0'"),
        ({"source": 1, "arrows": [1, 0], "coeff": "1"}, _NOT_ONE_ARROW),
        ({"source": 0, "arrows": [], "coeff": "1"}, _NOT_ONE_ARROW),
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
        ("action.left is not a list", lambda data: data["action"].update(left=5)),
        ("action.left[0] needs g, arrow and value", lambda data: data["action"].update(left=[5])),
        ("action.right[1] needs g, arrow and value",
         lambda data: data["action"]["right"][1].pop("value")),
        ("action.left[1].value is not a list of terms",
         lambda data: data["action"]["left"][1].update(value={"x": 1})),
        ("action.left[1].value[0] is not a term object",
         lambda data: data["action"]["left"][1].update(value=[5])),
        ("action.left[1].value[0] needs a source and a list of arrows",
         lambda data: data["action"]["left"][1]["value"][0].update(arrows=5)),
        ("action.left[1].value[0]: cannot interpret {} as a scalar",
         lambda data: data["action"]["left"][1]["value"][0].update(coeff={})),
    ],
    ids=[
        "class_rep_outside_group", "boolean_degree_cap", "boolean_mult",
        "action_list", "action_null", "tasks_int", "tasks_string",
        "cocycle_long_table", "cocycle_int_plane", "cocycle_long_plane",
        "cocycle_long_row", "cocycle_short_row", "cocycle_object_entry",
        "action_left_int", "action_left_int_entry", "action_entry_without_value",
        "action_value_object", "action_term_int", "action_term_int_arrows",
        "action_term_object_coeff",
    ],
)
def test_cli_bad_integer_field_exits_2(tmp_path, capsys, field, edit):
    data = base_spec()
    edit(data)
    assert _exit_code_of(tmp_path, data) == 2
    assert field in capsys.readouterr().err


def test_cli_field_order_above_bound_exits_2(tmp_path, capsys, monkeypatch):
    """The bound is checked before any context of that order is built."""
    def refuse(m):
        raise AssertionError(f"field_context({m}) was built")

    monkeypatch.setattr(hopfquiver.problem, "field_context", refuse)
    data = base_spec()
    data["field_order"] = MAX_FIELD_ORDER + 1
    assert _exit_code_of(tmp_path, data) == 2
    assert f"field_order {MAX_FIELD_ORDER + 1} is above" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit, named",
    [
        (lambda d: d.update(ramificaton=d.pop("ramification"), actions=d.pop("action")),
         "problem file: unknown key 'ramificaton'"),
        (lambda d: d["group"].update(table=[]), "group: unknown key 'table'"),
        (lambda d: d.update(cocycle={"kind": "trivial", "n": 2}), "cocycle: unknown key 'n'"),
        (lambda d: d.update(cocycle={"kind": "table", "value": []}), "cocycle: unknown key 'value'"),
        (lambda d: d["ramification"][0].update(mul=1), "ramification[0]: unknown key 'mul'"),
        (lambda d: d["action"].update(middle=[]), "action: unknown key 'middle'"),
        (lambda d: d["action"]["right"][3].update(valu=d["action"]["right"][3].pop("value")),
         "action.right[3]: unknown key 'valu'"),
        (lambda d: d["action"]["left"][1].update(h=0), "action.left[1]: unknown key 'h'"),
        (lambda d: d["action"]["left"][2]["value"][0].update(target=0),
         "action.left[2].value[0]: unknown key 'target'"),
        (lambda d: d["action"]["left"][2].update(value=[{"arrow": 1, "coeff": "1", "source": 1}]),
         "action.left[2].value[0]: unknown key 'source'"),
    ],
    ids=["top_level", "group", "cocycle_trivial", "cocycle_table", "ramification_entry",
         "action", "action_entry_renamed", "action_entry_extra", "long_term", "short_term"],
)
def test_cli_unknown_key_exits_2(tmp_path, capsys, edit, named):
    """A misspelled key is refused, not read as an absent field."""
    data = base_spec()
    edit(data)
    assert _exit_code_of(tmp_path, data) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("conflicting", [False, True])
def test_cli_duplicate_action_entry_exits_2(tmp_path, capsys, side, conflicting):
    data = base_spec()
    entries = data["action"][side]
    copy = json.loads(json.dumps(entries[1]))
    if conflicting:
        copy["value"][0]["coeff"] = "2"
    entries.append(copy)
    assert _exit_code_of(tmp_path, data) == 2
    err = capsys.readouterr().err
    assert f"action.{side}[{len(entries) - 1}] repeats" in err
    assert f"of action.{side}[1]" in err


@pytest.mark.parametrize("where, field", [
    ("action", "action.left[0].value[0]: "),
    ("cocycle", "cocycle.values[1][1][1] is not a scalar: "),
])
@pytest.mark.parametrize("value", ["1e2000000", "1E-20000000", [1, "1e2000000"], "1" * 1001],
                         ids=["exponent", "negative_exponent", "coordinate", "digits"])
def test_cli_oversize_coefficient_exits_2(tmp_path, capsys, where, field, value):
    """A coefficient string past MAX_COEFF_DIGITS digits or exponent is
    refused at its place before `Fraction` expands it (10^20000000 took
    over a minute)."""
    assert _exit_code_with_coeff(tmp_path, where, value) == 2
    err = capsys.readouterr().err
    assert field in err and "past the bound of 1000" in err


def test_main_builds_its_parser_once(tmp_path, capsys):
    """`main` reuses one parser: a pass, a refused `--task verfy` and a pass
    in one process give the exit codes, reports and messages of calls that
    each build a fresh parser."""
    spec = str(SPECS_DIR / "z2_taft.json")
    tasks = ("verify", "verfy", "verify")

    def call(task):
        try:
            code = run_cli("run", "--spec", spec, "--task", task, "--out", str(tmp_path))
        except SystemExit as exc:
            code = exc.code
        report = tmp_path / "report.json"
        text = report.read_text() if report.exists() else None
        report.unlink(missing_ok=True)
        return code, text, tuple(capsys.readouterr())

    build_parser.cache_clear()
    reused = [call(task) for task in tasks]
    assert build_parser.cache_info()[:2] == (2, 1)  # hits, misses
    fresh = []
    for task in tasks:
        build_parser.cache_clear()
        fresh.append(call(task))
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 2, 0]
    assert reused[0][1] is not None and reused[1][1] is None
    assert "'verfy'" in reused[1][2][1]


def test_cli_unknown_task_option_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("run", "--spec", str(SPECS_DIR / "z2_taft.json"), "--task", "verfy",
                "--out", str(tmp_path))
    assert exc.value.code == 2
    assert "'verfy'" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_terms_on_one_arrow_sum_to_a_keyed_scalar():
    ctx = field_context(4)
    quiver = load_problem(base_spec()).quiver
    term = {"source": 0, "arrows": [0], "coeff": "1"}
    x = _element(ctx, quiver, [term, dict(term, coeff="2")], lambda: "value")
    (c,) = x.terms.values()
    assert c == ctx.scalar(3)
    assert c.key is not None


class _Built(Exception):
    pass


def _refuse_to_build(monkeypatch, quiver=True):
    """Make building the basis, and with `quiver` the quiver, raise _Built."""
    def built(*args):
        raise _Built

    monkeypatch.setattr(hopfquiver.quiver, "paths_up_to", built)
    if quiver:
        monkeypatch.setattr(hopfquiver.problem, "hopf_quiver", built)


def test_basis_bound_is_checked_before_the_quiver_is_built(monkeypatch):
    """One vertex with one loop holds (L+1)(L+2)/2 paths and arrow indices
    up to cap L: 4094 is the last cap within the bound."""
    assert (4094 + 1) * (4094 + 2) // 2 <= MAX_BASIS < (4095 + 1) * (4095 + 2) // 2
    _refuse_to_build(monkeypatch)
    data = json.loads((SPECS_DIR / "one_vertex_1_loop.json").read_text())
    data["degree_cap"] = 4095
    with pytest.raises(SpecError, match="degree_cap 4095 with ramification of 1 arrows"):
        load_problem(data)
    data["degree_cap"] = 4094
    with pytest.raises(_Built):
        load_problem(data)


@pytest.mark.parametrize(
    "spec, edit, argv, named",
    [
        ("one_vertex_1_loop", lambda d: d.update(degree_cap=100000), [], "degree_cap 100000"),
        ("one_vertex_1_loop", lambda d: None, ["--degree-cap", "100000"], "degree_cap 100000"),
        ("z2_taft", lambda d: d["ramification"][0].update(mult=1000000), [],
         "ramification of 1000000 arrows per vertex"),
        ("z2_taft", lambda d: d.update(degree_cap=0, ramification=[{"class_rep": 1, "mult": 2**22}]),
         [], "ramification of 4194304 arrows per vertex"),
    ],
    ids=["cap_in_file", "cap_option", "mult", "mult_at_cap_0"],
)
def test_cli_oversize_basis_exits_2(tmp_path, capsys, monkeypatch, spec, edit, argv, named):
    """With `--degree-cap`, the file's own quiver is built but no basis."""
    _refuse_to_build(monkeypatch, quiver=not argv)
    data = json.loads((SPECS_DIR / f"{spec}.json").read_text())
    edit(data)
    path = tmp_path / "big.json"
    path.write_text(json.dumps(data))
    assert run_cli("run", "--spec", str(path), *argv, "--out", str(tmp_path)) == 2
    assert named in capsys.readouterr().err


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
