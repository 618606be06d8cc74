"""svlab.records reads back only the JSON types that TrialRecord's fields declare."""
import json
import math
import re

import pytest

from svlab.matrixio import MatrixFormatError
from svlab.records import read_records, write_records

from test_experiments import synth_record


def _one_line(tmp_path, **fields):
    """A records file of one synthetic record with fields replaced, as json writes them."""
    path = tmp_path / "r.jsonl"
    write_records([synth_record()], path)
    path.write_text(json.dumps({**json.loads(path.read_text()), **fields}) + "\n")
    return path


@pytest.mark.parametrize("field, value", [
    ("n", True), ("n", 24.0), ("s_min", False), ("s_min", None), ("law_kind", 3),
    ("kth_values", {}), ("certificate", []), ("degenerate_flags", "false"),
])
def test_wrong_json_type_names_field_and_line(tmp_path, field, value):
    path = _one_line(tmp_path, **{field: value})
    with pytest.raises(MatrixFormatError, match=re.escape(f"{path}:1: not a trial record: field {field} must be ")):
        read_records(path)


def test_float_fields_take_any_number(tmp_path):
    # Gaussian cells carry alpha = inf, written as JSON's Infinity; an integer is a number too.
    rec, = read_records(_one_line(tmp_path, alpha=math.inf, s_min=3))
    assert (rec.alpha, rec.s_min) == (math.inf, 3)

