"""The problem reader parses each scalar of a file once.

`problem._scalar` keys its per-file memo by the raw JSON value, or by the
tuple of a coordinate list, only when each is exactly a str or an int, and
`cyclotomic._parse_rational` reads a string by `int` before `Fraction`.
These tests fail if either accepts what the plain parse refuses, or reads
a value the plain parse reads otherwise.
"""

import contextlib
import io
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfquiver import FieldContext, cyclotomic
from hopfquiver.cli import main
from hopfquiver.cyclotomic import MAX_COEFF_DIGITS, _check_size, _parse_rational
from hopfquiver.errors import SpecError
from hopfquiver.problem import load_problem

from conftest import SPECS_DIR
from test_spec_fuzz import _mutants

PERFBENCH_SPECS = Path(__file__).resolve().parents[1] / "perfbench" / "specs"
BUNDLED = sorted(SPECS_DIR.glob("*.json")) + sorted(PERFBENCH_SPECS.glob("*.json"))

SPACES = " \t\n\r\x0b\x0c\x1c\x85\xa0 　"
CORPUS = [
    # integers, signed, padded, with underscores, in other scripts
    "0", "7", "-7", "+7", "007", "-0", " 12 ", "\t-3\n", "　" "5" "\xa0", "​5",
    "1_000", "-1_0", "1__0", "_1", "1_", "+_1", "١٢", "１２", "१२",
    "-٣", "²", "½", "0x10", "0b1", "1 2", "- 3", "+-1", "--1", "++1",
    # fractions, decimals and exponents
    "1/2", "-3/6", " 4/2 ", "1/0", "0/5", "1/-2", "1 / 2", "1_0/3", "٣/٤", "1/2/3",
    "0.5", "-.25", "1.", ".", "1e3", "1E-3", "-2.5e+2", "1e", "e1", "1e1_0",
    "1e1000", "1e1001", "1e-1001", "9" * MAX_COEFF_DIGITS, "9" * (MAX_COEFF_DIGITS + 1),
    "-" + "9" * MAX_COEFF_DIGITS, "1/" + "9" * (MAX_COEFF_DIGITS - 1),
    # junk
    "", " ", "+", "-", "/", "nan", "inf", "-inf", "1j", "x", "1x", "True", "None",
]


def _fraction_only(v: str):
    """The string reader before `int` came first: the size bound, then
    `Fraction`, whose zero denominator reads as a ValueError."""
    _check_size(v)
    try:
        f = Fraction(v)
    except ZeroDivisionError:
        raise ValueError(v) from None
    return f.numerator, f.denominator


def _outcome(parse, v):
    try:
        return parse(v)
    except Exception as exc:  # the type is compared, the message is not
        return type(exc)


@pytest.mark.parametrize("v", CORPUS)
def test_parse_rational_agrees_with_fraction(v):
    assert _outcome(_parse_rational, v) == _outcome(_fraction_only, v)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="0123456789+-_/.eE " + SPACES + "٣１", max_size=12))
def test_parse_rational_agrees_with_fraction_on_random_strings(v):
    assert _outcome(_parse_rational, v) == _outcome(_fraction_only, v)


def _expected_terms(ctx, quiver, raw_terms):
    """An action value's coefficients by path, each term parsed afresh and
    terms on one arrow summed; a zero sum is dropped."""
    out = {}
    for t in raw_terms:
        a = t["arrow"] if "arrow" in t else t["arrows"][0]
        p = quiver.arrow_path(a)
        c = ctx.scalar(t["coeff"])
        out[p] = out[p] + c if p in out else c
    return {p: c for p, c in out.items() if not c.is_zero()}


def _assert_reads_fresh(data):
    """Every table entry and action coefficient of the loaded `data` equals
    its parse in a fresh context of the same order, and every coefficient
    is interned."""
    spec = load_problem(data)
    fresh = FieldContext(spec.ctx.order)
    cocycle = data["cocycle"]
    if cocycle["kind"] == "table":
        for a, plane in enumerate(cocycle["values"]):
            for b, row in enumerate(plane):
                for c, raw in enumerate(row):
                    assert spec.cocycle.values[a][b][c] == fresh.scalar(raw), (a, b, c)
    action = data.get("action", {})
    for side, table in (("left", spec.action.left), ("right", spec.action.right)):
        for item in action.get(side, []):
            key = (item["g"], item["arrow"]) if side == "left" else (item["arrow"], item["g"])
            want = _expected_terms(fresh, spec.quiver, item["value"])
            got = table[key].terms if key in table else {}
            assert got == want, (side, key)
            assert all(c.key is not None for c in got.values())


@pytest.mark.parametrize("path", BUNDLED, ids=lambda p: p.stem)
def test_bundled_scalars_read_as_a_fresh_parse(path):
    _assert_reads_fresh(json.loads(path.read_text()))


def test_fuzz_mutant_scalars_read_as_a_fresh_parse():
    """The mutants of `test_spec_fuzz` that load at all read as a fresh
    parse, with their bundled spec's cocycle written out as a table so that
    table entries are read too."""
    loaded = 0
    for _, _, data in (m for path in sorted(SPECS_DIR.glob("*.json")) for m in _mutants(path)):
        try:
            spec = load_problem(json.loads(json.dumps(data)))
        except SpecError:
            continue
        n = spec.group.order
        phi = spec.cocycle
        data["cocycle"] = {"kind": "table", "values": [
            [[phi(a, b, c).to_json() for c in range(n)] for b in range(n)] for a in range(n)]}
        _assert_reads_fresh(data)
        loaded += 1
    assert loaded > 0


def test_each_distinct_scalar_is_parsed_once(monkeypatch):
    """Loading a file calls `FieldContext.scalar` once per distinct raw
    table entry and coefficient: the many repeated "1" and "-1" of a
    bundled spec with a written-out table are parsed once."""
    data = json.loads((SPECS_DIR / "z4_two_blocks_standard_cocycle.json").read_text())
    phi = load_problem(data).cocycle
    n = phi.group.order
    data["cocycle"] = {"kind": "table", "values": [
        [[phi(a, b, c).to_json() for c in range(n)] for b in range(n)] for a in range(n)]}
    raws = [v for plane in data["cocycle"]["values"] for row in plane for v in row]
    raws += [t["coeff"] for side in data["action"].values() for item in side for t in item["value"]]
    distinct = {tuple(v) if isinstance(v, list) else v for v in raws}
    calls = []
    scalar = cyclotomic.FieldContext.scalar
    monkeypatch.setattr(cyclotomic.FieldContext, "scalar",
                        lambda self, v: calls.append(v) or scalar(self, v))
    load_problem(data)
    assert len(calls) == len(distinct) < len(raws)


def _run(tmp_path, data):
    path = tmp_path / "memo.json"
    path.write_text(json.dumps(data))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["run", "--spec", str(path), "--out", str(tmp_path)])
    return code, err.getvalue()


@pytest.mark.parametrize("later", [True, 1.0, [True], [1.0]],
                         ids=["true", "float", "list_true", "list_float"])
def test_coefficient_equal_to_an_earlier_one_is_still_refused(tmp_path, later):
    """`true` and `1.0` equal the earlier coefficient `1` and hash like it,
    so a memo keyed by value alone would accept them; they exit 2 and name
    the later field."""
    data = json.loads((SPECS_DIR / "z2_taft.json").read_text())
    left = data["action"]["left"]
    left[0]["value"][0]["coeff"] = [1] if isinstance(later, list) else 1
    left[2]["value"][0]["coeff"] = later
    code, err = _run(tmp_path, data)
    assert code == 2
    assert "action.left[2].value[0]: " in err
    assert "action.left[0]" not in err


@pytest.mark.parametrize("later", [[True, 0], [1.0, 0], True, 1.0],
                         ids=["true", "float", "bare_true", "bare_float"])
def test_table_entry_equal_to_an_earlier_one_is_still_refused(tmp_path, later):
    """A cocycle table of [1, 0] entries with `[true, 0]` (or `[1.0, 0]`)
    at Phi(1, 1, 1) exits 2 naming that entry."""
    data = json.loads((SPECS_DIR / "z2_taft.json").read_text())
    values = [[[[1, 0], [1, 0]], [[1, 0], [1, 0]]], [[[1, 0], [1, 0]], [[1, 0], later]]]
    data["cocycle"] = {"kind": "table", "values": values}
    code, err = _run(tmp_path, data)
    assert code == 2
    assert "cocycle.values[1][1][1] is not a scalar: " in err
