import json

import pytest

from diskspdc.tables import emit_table, format_table


def test_csv_exact_text():
    text = format_table(["a", "b", "note"],
                        [[1, 0.1, "x"], [2, 136.49903647913348, "y"]])
    assert text == ("a,b,note\n"
                    "1,0.1,x\n"
                    "2,136.49903647913348,y\n")


def test_csv_float_repr_roundtrip():
    # repr is the shortest round-trip form, so parsing the cell back must
    # recover the exact float
    value = 0.30000000000000004
    text = format_table(["v"], [[value]])
    cell = text.splitlines()[1]
    assert float(cell) == value
    assert cell == "0.30000000000000004"


def test_json_document():
    text = format_table(["b", "a"], [[1.5, "x"]], fmt="json")
    doc = json.loads(text)
    assert doc == {"columns": ["b", "a"], "rows": [[1.5, "x"]]}
    # keys are sorted and the document is indented
    assert text.startswith('{\n  "columns"')
    assert text.endswith("\n")


def test_json_writes_non_finite_floats_as_null():
    # JSON (RFC 8259) has no NaN or Infinity: a strict parser rejects them
    def reject(constant):
        raise AssertionError(f"{constant} is not JSON")

    text = format_table(["a", "b", "c", "d"],
                        [[float("nan"), float("inf"), -float("inf"), 0.5]],
                        fmt="json")
    assert json.loads(text, parse_constant=reject)["rows"] == [
        [None, None, None, 0.5]]


def test_row_width_mismatch():
    with pytest.raises(ValueError, match="row width"):
        format_table(["a", "b"], [[1]])


def test_unknown_format():
    with pytest.raises(ValueError, match="unknown table format"):
        format_table(["a"], [[1]], fmt="tsv")


def test_emit_writes_returned_text(tmp_path):
    path = tmp_path / "out.csv"
    text = emit_table(["x", "y"], [[1, 2.0]], path=str(path))
    assert path.read_text() == text
    assert text == "x,y\n1,2.0\n"


def test_emit_without_path(tmp_path):
    text = emit_table(["x"], [[3]], fmt="json")
    assert json.loads(text)["rows"] == [[3]]
