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



def _entry_line(tmp_path, change):
    """A records file of one synthetic record, as json writes it, after change(record dict)."""
    path = tmp_path / "r.jsonl"
    write_records([synth_record(k_vectors=2, epsilons=(0.1, 0.3))], path)
    rec = json.loads(path.read_text())
    change(rec)
    path.write_text(json.dumps(rec) + "\n")
    return path


@pytest.mark.parametrize("where, change", [
    ("kth_values[0] must be float", lambda r: r.update(kth_values=["x", 1.0])),
    ("kth_values[1] must be float", lambda r: r.update(kth_values=[1.0, True])),
    ("localization[0].threshold_mass must be float", lambda r: r["localization"][0].update(threshold_mass="x")),
    ("localization[1].k must be int", lambda r: r["localization"][1].update(k=2.0)),
    ("localization[0].c must be float", lambda r: r["localization"][0].update(c=None)),
    ("localization[1].ipr must be float", lambda r: r["localization"][1].pop("ipr")),
    ("localization[0].degenerate must be bool", lambda r: r["localization"][0].update(degenerate=0)),
    ("localization[0].min_mass_profile must be list", lambda r: r["localization"][0].update(min_mass_profile={})),
    ("localization[1].min_mass_profile[1] must be a pair", lambda r: r["localization"][1]["min_mass_profile"][1].pop()),
    ("localization[0].min_mass_profile[0] must be float",
     lambda r: r["localization"][0]["min_mass_profile"][0].__setitem__(1, "0.5")),
    ("localization[1] must be dict", lambda r: r["localization"].__setitem__(1, [])),
    ("certificate.valid must be bool", lambda r: r["certificate"].update(valid="false")),
    ("certificate.certified_upper must be float", lambda r: r["certificate"].pop("certified_upper")),
])
def test_wrong_entry_type_names_entry_and_line(tmp_path, where, change):
    # The entries the scans read inside kth_values, localization and certificate are checked too.
    path = _entry_line(tmp_path, change)
    with pytest.raises(MatrixFormatError, match=re.escape(f"{path}:1: not a trial record: {where}")):
        read_records(path)


def test_unread_entries_stay_unchecked(tmp_path):
    # Entries no scan reads keep whatever JSON value they hold.
    def change(rec):
        rec["localization"][0]["threshold_indices"] = "x"
        rec["certificate"]["note"] = 5

    rec, = read_records(_entry_line(tmp_path, change))
    assert rec.localization[0]["threshold_indices"] == "x" and rec.certificate["note"] == 5
