"""Byte-exact records.jsonl lines, pinned on hand-built records and on an R-route sweep.

The records hold the same Python objects run_trial puts there: dicts of a
LocalizationReport's and a CertificateReport's fields, with the report's own
lists and tuples inside. Every float is a literal, so the text is the same
on every platform. The R-route sweep's floats come from numpy's bundled
OpenBLAS, and its sha256 pins them there, one hash per kernel set.
"""
import dataclasses
import hashlib
import json
import math

from svlab import _lapack
from svlab.certificates import CertificateReport
from svlab.ensemble import EnsembleConfig, sample_matrix
from svlab.experiments import (
    SweepConfig,
    TrialRecord,
    derive_trial_seed,
    read_records,
    run_sweep,
    run_trial,
    write_records,
)
from svlab.localization import LocalizationReport
from svlab.spectra import full_svd


def _record(trial, columns, upper):
    loc = LocalizationReport(
        n=4,
        c_threshold=0.5,
        threshold_indices=[0, 3],
        threshold_mass=0.1 + 0.2,
        cardinality_bound=5.7707801635558535,
        min_mass_profile=[(0.1, 0.75), (0.3, 1.0)],
        ipr=1 / 3,
        degenerate=trial == 1,
    )
    cert = CertificateReport(
        tau=2.5,
        columns=columns,
        column_count=len(columns),
        minor_op_norm=upper * 4,
        minor_smin=upper,
        certified_upper=upper,
        observed_smin=0.125,
        valid=bool(columns),
        note="" if columns else "no columns below tau; certificate vacuous",
    ).with_note("finite-variance regime: census cutoff")
    return TrialRecord(
        alpha=2.5,
        n=4,
        aspect=2.0,
        law_kind="symmetric_pareto",
        trial_index=trial,
        seed=2**64 - 1 - trial,
        n_rows=8,
        s_min=0.125,
        s_top=1e300,
        kth_values=[0.125, 0.5],
        degenerate_flags=[False, trial == 1],
        bottom_vectors=[[0.5, -0.5, 0.5, -0.0], [0.7071067811865476, 0.0, -0.7071067811865475, 0.0]],
        localization=[
            {"k": k, "c": 0.5, **{f: getattr(loc, f) for f in loc.__dataclass_fields__}}
            for k in (1, 2)
        ],
        certificate={f: getattr(cert, f) for f in cert.__dataclass_fields__},
        heavy_count=3,
        census_c=0.1,
    )


LOC = (
    '"n":4,"c_threshold":0.5,"threshold_indices":[0,3],"threshold_mass":0.30000000000000004,'
    '"cardinality_bound":5.7707801635558535,"min_mass_profile":[[0.1,0.75],[0.3,1.0]],'
    '"ipr":0.3333333333333333,"degenerate":'
)

EXPECTED = [
    '{"alpha":2.5,"n":4,"aspect":2.0,"law_kind":"symmetric_pareto","trial_index":0,'
    '"seed":18446744073709551615,"n_rows":8,"s_min":0.125,"s_top":1e+300,'
    '"kth_values":[0.125,0.5],"degenerate_flags":[false,false],'
    '"bottom_vectors":[[0.5,-0.5,0.5,-0.0],[0.7071067811865476,0.0,-0.7071067811865475,0.0]],'
    f'"localization":[{{"k":1,"c":0.5,{LOC}false}},{{"k":2,"c":0.5,{LOC}false}}],'
    '"certificate":{"tau":2.5,"columns":[0,2],"column_count":2,"minor_op_norm":1.0,'
    '"minor_smin":0.25,"certified_upper":0.25,"observed_smin":0.125,"valid":true,'
    '"note":"finite-variance regime: census cutoff"},"heavy_count":3,"census_c":0.1}',
    '{"alpha":2.5,"n":4,"aspect":2.0,"law_kind":"symmetric_pareto","trial_index":1,'
    '"seed":18446744073709551614,"n_rows":8,"s_min":0.125,"s_top":1e+300,'
    '"kth_values":[0.125,0.5],"degenerate_flags":[false,true],'
    '"bottom_vectors":[[0.5,-0.5,0.5,-0.0],[0.7071067811865476,0.0,-0.7071067811865475,0.0]],'
    f'"localization":[{{"k":1,"c":0.5,{LOC}true}},{{"k":2,"c":0.5,{LOC}true}}],'
    '"certificate":{"tau":2.5,"columns":[],"column_count":0,"minor_op_norm":Infinity,'
    '"minor_smin":Infinity,"certified_upper":Infinity,"observed_smin":0.125,"valid":false,'
    '"note":"no columns below tau; certificate vacuous; finite-variance regime: census cutoff"},'
    '"heavy_count":3,"census_c":0.1}',
]


def test_write_records_bytes(tmp_path):
    path = tmp_path / "records.jsonl"
    records = [_record(0, [0, 2], 0.25), _record(1, [], math.inf)]
    write_records(records, path)
    assert path.read_bytes() == ("\n".join(EXPECTED) + "\n").encode("ascii")
    # Reading back and writing again reproduces the bytes.
    again = tmp_path / "again.jsonl"
    write_records(read_records(path), again)
    assert again.read_bytes() == path.read_bytes()


def test_run_trial_line_matches_deep_copy(tmp_path):
    # A sampled record writes the same bytes as its dataclasses.asdict deep copy.
    config = SweepConfig(alphas=(1.2,), ns=(12,), aspect=2.0, trials_per_cell=1, base_seed=3, k_vectors=2)
    rec = run_trial(config, 1.2, 12, 0)
    path = tmp_path / "records.jsonl"
    write_records([rec], path)
    deep = json.dumps(dataclasses.asdict(rec), separators=(",", ":")) + "\n"
    assert path.read_text(encoding="ascii") == deep


# The R-route sweep's sha256 on each OpenBLAS kernel set, as _lapack.core_name()
# names it, each measured in a fresh process under OPENBLAS_CORETYPE on one
# machine. OPENBLAS_CORETYPE=Zen selects the Haswell set, Atom the Nehalem set,
# and Prescott and Core2 the Katmai set.
R_ROUTE_SHA256 = {
    "SkylakeX": "8940cfaa10e86468919b6f97fcf8840e226b2142e8d433d2da30f21fd7aa0085",
    "Haswell": "a478a4e1dc99c801b7c7b92802dacb72f8d994515fef9994900bc03f6b4ca0b5",
    "Sandybridge": "6cfd5f00ca012ac0a8bce37d8d0dfe880661eb52b5353b7c525a42a308d4c27b",
    "Nehalem": "b13d99d98672f535795e6b664efd74f88b459171aeeb2b35353a1dc6e330bf63",
    "Katmai": "5b088bef4e4f8826ba6ea251796cef08aa648812f7279a26f30bfb2f981b51ec",
}


def test_r_route_sweep_bytes(tmp_path):
    # Both trials fail the column-norm rule, so X is decomposed through its R
    # factor (QR, then the bidiagonal form of R); any change to that route must
    # keep every byte. n = 40 keeps OpenBLAS single-threaded, so the bytes hold
    # at any thread count. The kernel set moves the last bits, so each set has
    # its own hash, and a set with none fails with the hash it wrote.
    config = SweepConfig(alphas=(0.5, 0.8), ns=(40,), aspect=2.0, trials_per_cell=1, base_seed=15, k_vectors=2)
    for alpha in config.alphas:
        seed = derive_trial_seed(config.base_seed, config.law_kind.value, alpha, 40, config.aspect, 0)
        x = sample_matrix(EnsembleConfig(n=40, aspect=config.aspect, law=config.law_for(alpha), seed=seed))
        assert full_svd(x, k_bottom=2).method == "gesdd"
    records, failures, _ = run_sweep(config)
    assert failures == []
    path = tmp_path / "records.jsonl"
    write_records(records, path)
    core, digest = _lapack.core_name(), hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == R_ROUTE_SHA256.get(core), f"kernel set {core}: records.jsonl sha256 {digest}"
