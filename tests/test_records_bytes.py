"""Byte-exact records.jsonl lines, pinned on hand-built records and on a sweep for each route.

The records hold the same Python objects run_trial puts there: dicts of a
LocalizationReport's and a CertificateReport's fields, with the report's own
lists and tuples inside. Every float is a literal, so the text is the same
on every platform. The sweeps' floats come from numpy's bundled OpenBLAS
and its SIMD loops, and each sweep's sha256 pins them there, one hash per
kernel set and SIMD class: one sweep whose trials take the R route, and one
whose trials fail the GRAM_COND_LIMIT rule and keep the gram route through
the scaled enclosure.
"""
import dataclasses
import hashlib
import json
import math

import numpy as np

from svlab import _lapack
from svlab.certificates import CertificateReport
from svlab.ensemble import EnsembleConfig, sample_matrix, simd_target
from svlab.experiments import SweepConfig, derive_trial_seed, run_sweep, run_trial
from svlab.records import TrialRecord, read_records, write_records
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


# Each pinned sweep's sha256 on each pair of OpenBLAS kernel set, as _lapack.core_name()
# names it, and class of numpy's float64 log and exp loops, as ensemble.simd_target()
# names it: the pair a CPU of that class gets. Each was measured in a fresh process under
# OPENBLAS_CORETYPE, and NPY_DISABLE_CPU_FEATURES for the "generic" class, on one machine
# with AVX-512. OPENBLAS_CORETYPE=Zen selects the Haswell set, Atom the Nehalem set, and
# Prescott and Core2 the Katmai set. numpy's AVX2 loops and its baseline ones wrote the
# same bytes.
R_ROUTE_SHA256 = {
    ("SkylakeX", "avx512"): "489de9248cba50c05e5e7906d54047a6fa3e2afbe48689c86d4d06967d0ac237",
    ("Haswell", "generic"): "b61d38dea4e43a945f0edbf4694d7d3a8b1e1931b5515f0765176d031f834b76",
    ("Sandybridge", "generic"): "b7e22c5b3c18cd92d9c440494e591950ee53045dfb3474e592f0482114463d5d",
    ("Nehalem", "generic"): "8840779d8983412906ec25df628b0e7912cba3f49f63c104ad6de157b8efbae2",
    ("Katmai", "generic"): "6169ddccb818ec5b51f608988c60a8874b5ef980315e42c8801549cff36033c0",
}
VERIFIED_GRAM_SHA256 = {
    ("SkylakeX", "avx512"): "88b653682a4043a1e8d2b67bf3e1e4b5de7c9b04f1222616ae78b835cacbf0ed",
    ("Haswell", "generic"): "d09885e93df4a68e05b8a4b823290a904d6f251de5aa168c0272eab39953a578",
    ("Sandybridge", "generic"): "353a46bb92f626f8904462b8ca56855320be564d1b2da331c634fcf2c05f7e72",
    ("Nehalem", "generic"): "78ef412e71c784a3012bc84688e84da4840a953df3d80124a4e4589edca19f59",
    ("Katmai", "generic"): "f5340b56b88bcf234a8bd23412c414a76108039847aff4e5a9dd28ca36e4b4cb",
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
    return (_lapack.core_name(), simd_target()), hashlib.sha256(path.read_bytes()).hexdigest()


def test_r_route_sweep_bytes(tmp_path):
    # Each trial's X^T X resolves s_min neither by the rule nor by the scaled
    # enclosure, so X is decomposed through its R factor (QR, then the bidiagonal
    # form of R); any change to that route must keep every byte. Each trial's
    # certificate minor is partial and takes the gram route, so its s_min and s_top
    # are bisected values of G[J, J] (one dstebz each). n = 40 keeps
    # OpenBLAS single-threaded, so the bytes hold at any thread count. The kernel
    # set and the SIMD class move the last bits, so each pair has its own hash,
    # and a pair with none fails with the hash it wrote.
    config = SweepConfig(alphas=(0.1, 0.3), ns=(40,), aspect=2.0, trials_per_cell=1, base_seed=15, k_vectors=2)
    key, digest = _sweep_digest(config, tmp_path, lambda x: full_svd(x, k_bottom=2).method == "gesdd")
    assert digest == R_ROUTE_SHA256.get(key), f"kernel set, SIMD class {key}: records.jsonl sha256 {digest}"


def test_verified_gram_sweep_bytes(tmp_path):
    # Each trial's eigenvalues fail the GRAM_COND_LIMIT rule, and the scaled
    # enclosure keeps it on the gram route: s_min and bottom vector 1 come from
    # the proven Rayleigh quotient and its vector, s_2 and s_top from one bisection
    # each, the third smallest value (bottom vector 2's flag reads it) from dsterf,
    # and vector 2 and the top one from dstein.
    config = SweepConfig(alphas=(0.8,), ns=(40,), aspect=2.0, trials_per_cell=2, base_seed=23, k_vectors=2)
    key, digest = _sweep_digest(
        config, tmp_path, lambda x: _eigenvalues_fail_rule(x) and full_svd(x, k_bottom=2).method == "gram")
    assert digest == VERIFIED_GRAM_SHA256.get(key), f"kernel set, SIMD class {key}: records.jsonl sha256 {digest}"
