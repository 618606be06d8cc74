"""Byte-exact records.jsonl lines, pinned on hand-built records and on a sweep for each route.

The records hold the same Python objects run_trial puts there: dicts of a
LocalizationReport's and a CertificateReport's fields, with the report's own
lists and tuples inside. Every float is a literal, so the text is the same
on every platform. The sweeps' floats come from numpy's bundled OpenBLAS,
and each sweep's sha256 pins them there, one hash per kernel set: one sweep
whose trials take the R route, and one whose trials fail the GRAM_COND_LIMIT
rule and keep the gram route through the scaled enclosure.
"""
import dataclasses
import hashlib
import json
import math

import numpy as np

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
from svlab.spectra import GRAM_COND_LIMIT, full_svd


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


# Each pinned sweep's sha256 on each OpenBLAS kernel set, as _lapack.core_name()
# names it, each measured in a fresh process under OPENBLAS_CORETYPE on one
# machine. OPENBLAS_CORETYPE=Zen selects the Haswell set, Atom the Nehalem set,
# and Prescott and Core2 the Katmai set.
R_ROUTE_SHA256 = {
    "SkylakeX": "6eaf9e3c476a3577369fb2a67090d3d6667adae331b5f14db16a30d672092635",
    "Haswell": "4b56a7a91cb7ee6a936967272a276569d4a2c7fcab883d870185ac1b533f49ae",
    "Sandybridge": "fec3162a790d4f2f6fdb9560d75a1deca8cb0ed56c037451c96c094223242fa5",
    "Nehalem": "4b8cd1692e82880ba10062619873f87ac6de9a078f5ce9bdea8c2e94d60b6118",
    "Katmai": "982eac1f3c92e4f4de34d8fc2d68043829d92d391599bc77a0741d1785ff131e",
}
VERIFIED_GRAM_SHA256 = {
    "SkylakeX": "dc591b95179ac22eee97bdf14f3e3819d71098eb7b31206e2006aa270371abb7",
    "Haswell": "7ca686a8d7eb0c9f35796a342d88f82ab3baa1c7dc7fa581a1c5be317c9081fe",
    "Sandybridge": "ab0e6860a88c77222ec8002a1e1c4ca47947672c4576690f679dc365c5cc613f",
    "Nehalem": "c1627fc754ee5e35b923aef1bb4289b3a05c99289b43b9e10178c5e827179907",
    "Katmai": "4f7996d89296870587791bf479534c482184430a22da6ae24dd3638e112897e6",
}


def _eigenvalues_fail_rule(x):
    w = np.linalg.eigvalsh(x.T @ x)
    return not (w[0] > 0 and np.finfo(float).eps * w[-1] <= GRAM_COND_LIMIT * w[0])


def _sweep_digest(config, tmp_path, route):
    for alpha in config.alphas:
        for trial in range(config.trials_per_cell):
            seed = derive_trial_seed(config.base_seed, config.law_kind.value, alpha, 40, config.aspect, trial)
            x = sample_matrix(EnsembleConfig(n=40, aspect=config.aspect, law=config.law_for(alpha), seed=seed))
            assert route(x)
    records, failures, _ = run_sweep(config)
    assert failures == []
    path = tmp_path / "records.jsonl"
    write_records(records, path)
    return _lapack.core_name(), hashlib.sha256(path.read_bytes()).hexdigest()


def test_r_route_sweep_bytes(tmp_path):
    # Each trial's X^T X resolves s_min neither by the rule nor by the scaled
    # enclosure, so X is decomposed through its R factor (QR, then the bidiagonal
    # form of R); any change to that route must keep every byte. n = 40 keeps
    # OpenBLAS single-threaded, so the bytes hold at any thread count. The kernel
    # set moves the last bits, so each set has its own hash, and a set with none
    # fails with the hash it wrote.
    config = SweepConfig(alphas=(0.1, 0.3), ns=(40,), aspect=2.0, trials_per_cell=1, base_seed=15, k_vectors=2)
    core, digest = _sweep_digest(config, tmp_path, lambda x: full_svd(x, k_bottom=2).method == "gesdd")
    assert digest == R_ROUTE_SHA256.get(core), f"kernel set {core}: records.jsonl sha256 {digest}"


def test_verified_gram_sweep_bytes(tmp_path):
    # Each trial's eigenvalues fail the GRAM_COND_LIMIT rule, and the scaled
    # enclosure keeps it on the gram route: s_min and bottom vector 1 come from
    # the proven Rayleigh quotient and its vector, the rest from dsterf and dstein.
    config = SweepConfig(alphas=(0.8,), ns=(40,), aspect=2.0, trials_per_cell=2, base_seed=15, k_vectors=2)
    core, digest = _sweep_digest(
        config, tmp_path, lambda x: _eigenvalues_fail_rule(x) and full_svd(x, k_bottom=2).method == "gram")
    assert digest == VERIFIED_GRAM_SHA256.get(core), f"kernel set {core}: records.jsonl sha256 {digest}"
