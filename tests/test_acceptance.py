"""Acceptance gate: nine binding criteria, one verdict line each.

Run with `pytest tests/test_acceptance.py -s -v` to see the verdict lines
as they print. Every criterion is deterministic (frozen seeds) and checks
its own wall-clock budget. Statistical thresholds were calibrated on
pilot runs; the orderings themselves are the theory-level predictions.
"""
import itertools
import json
import math
import time

import numpy as np

from svlab.certificates import default_tau_for_rows, upper_certificate
from svlab.cli import main
from svlab.ensemble import EnsembleConfig, LawKind, TailLaw, derive_stream, sample_matrix
from svlab.experiments import SweepConfig, run_sweep
from svlab.records import TrialRecord, baiyin_check, bracket_check, fit_scaling, transition_scan
from svlab.localization import localization_report, min_mass_profile, subset_mass, top_mass
from svlab.spectra import full_svd

DEFAULT_ALPHA_GRID = (0.8, 1.2, 1.5, 1.8, 2.5, 3.0, 5.0)


def _verdict(num: int, name: str, ok: bool, detail: str) -> bool:
    print(f"\nACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def test_1_svd_correctness():
    t0 = time.time()
    worst_residual = 0.0
    worst_frob = 0.0
    for i in range(100):
        alpha = DEFAULT_ALPHA_GRID[i % len(DEFAULT_ALPHA_GRID)]
        n = 25 * (1 + (i % 8))  # 25..200, rows up to 400
        law = TailLaw(LawKind.SYMMETRIC_PARETO, alpha=alpha)
        x = sample_matrix(EnsembleConfig(n=n, aspect=2.0, law=law, seed=10000 + i))
        res = full_svd(x, k_bottom=2)
        pairs = [(res.singular_values[n - 1 - k], res.bottom_right_vectors[k]) for k in range(2)]
        pairs.append((res.s_top, res.top_right_vector))
        for s, u in pairs:
            resid = float(np.linalg.norm(x.T @ (x @ u) - s * s * u))
            worst_residual = max(worst_residual, resid / res.s_top**2)
        frob = float(np.sum(x * x))
        worst_frob = max(worst_frob, abs(float(np.sum(res.singular_values**2)) - frob) / frob)
    elapsed = time.time() - t0
    ok = worst_residual <= 1e-10 and worst_frob <= 1e-12 and elapsed < 60
    assert _verdict(
        1, "svd correctness", ok,
        f"100 matrices, worst residual {worst_residual:.2e} <= 1e-10, "
        f"worst Frobenius mismatch {worst_frob:.2e} <= 1e-12, {elapsed:.1f}s",
    )


def test_2_certificate_soundness():
    t0 = time.time()
    alphas = (0.8, 1.2, 1.5, 2.5, 5.0)
    nonempty = violations = 0
    for i in range(200):
        alpha = alphas[i % 5]
        n = 30 + (i * 7) % 120
        law = TailLaw(LawKind.SYMMETRIC_PARETO, alpha=alpha)
        x = sample_matrix(EnsembleConfig(n=n, aspect=2.0, law=law, seed=20000 + i))
        res = full_svd(x)
        if alpha < 2:
            tau = default_tau_for_rows(x.shape[0], alpha)
        else:
            # finite-variance laws have no auto cutoff; a column-max quantile
            # keeps J nonempty so the interlacing chain still gets exercised
            tau = float(np.quantile(np.max(np.abs(x), axis=0), 0.6))
        rep = upper_certificate(x, tau, res)
        if rep.column_count == 0:
            continue
        nonempty += 1
        slack = 1e-9 * res.s_top
        svals = np.linalg.svd(x[:, rep.columns], compute_uv=False)  # independent oracle
        chain_ok = (
            res.s_min <= rep.minor_smin + slack
            and rep.minor_smin <= rep.minor_op_norm + slack
            and abs(rep.minor_smin - svals[-1]) <= slack
            and rep.minor_op_norm >= svals[0] - slack
            and rep.valid
        )
        if not chain_ok:
            violations += 1
    elapsed = time.time() - t0
    ok = violations == 0 and nonempty > 0 and elapsed < 120
    assert _verdict(
        2, "certificate soundness", ok,
        f"{nonempty}/200 instances with nonempty J, {violations} interlacing violations, {elapsed:.1f}s",
    )


def test_3_brute_force_oracle():
    t0 = time.time()
    rng = np.random.default_rng(33333)
    eps_grid = (0.05, 0.1, 0.2, 0.3)
    mismatches = 0
    for i in range(500):
        n = int(rng.integers(3, 13))
        if i % 10 == 0:
            # equal magnitudes with random signs: stresses index tie-breaking
            # while keeping every subset sum order-invariant bit for bit
            u = rng.choice([-0.5, 0.5], size=n)
        else:
            u = rng.normal(size=n)
        u = u / np.linalg.norm(u)
        for eps, got in min_mass_profile(u, eps_grid):
            m = math.ceil((1 - eps) * n - 1e-9)
            brute = min(
                subset_mass(u, np.array(comb, dtype=np.intp))
                for comb in itertools.combinations(range(n), m)
            )
            if got != brute:  # bitwise equality: same floats, same summation
                mismatches += 1
    elapsed = time.time() - t0
    ok = mismatches == 0 and elapsed < 60
    assert _verdict(
        3, "brute-force oracle equivalence", ok,
        f"500 vectors x {len(eps_grid)} profile points, {mismatches} mismatches, {elapsed:.1f}s",
    )


def test_4_tail_certification():
    t0 = time.time()
    m = 10**6
    worst_z = 0.0
    for i, alpha in enumerate((0.8, 1.5, 3.0)):
        law = TailLaw(LawKind.SYMMETRIC_PARETO, alpha=alpha)
        draws = law.sample(derive_stream(40000 + i, 0), (m,))
        for t in (2.0, 4.0, 8.0):
            p = t**-alpha
            se = math.sqrt(p * (1 - p) / m)
            emp = float(np.mean(np.abs(draws) > t))
            worst_z = max(worst_z, abs(emp - p) / se)
    elapsed = time.time() - t0
    ok = worst_z <= 3.0 and elapsed < 60
    assert _verdict(
        4, "tail certification", ok,
        f"alpha in (0.8,1.5,3), t in (2,4,8), m=1e6: worst |z| = {worst_z:.2f} <= 3, {elapsed:.1f}s",
    )


def test_5_root_n_limit_gaussian():
    t0 = time.time()
    cfg = SweepConfig(
        alphas=(math.inf,), ns=(500,), aspect=2.0, trials_per_cell=20,
        base_seed=50001, k_vectors=1, c_grid=(1.0,), epsilons=(0.1,),
        law_kind=LawKind.GAUSSIAN,
    )
    records, failures, _ = run_sweep(cfg, workers=1)
    rep = baiyin_check(records)
    elapsed = time.time() - t0
    ok = not failures and 0.243 <= rep.mean_ratio <= 0.343 and elapsed < 300
    assert _verdict(
        5, "finite-variance extreme-value limit", ok,
        f"gaussian aspect 2, n=500, 20 trials: mean s_min/sqrt(N) = {rep.mean_ratio:.4f} "
        f"in [0.243, 0.343] (limit {rep.limit:.5f}), {elapsed:.1f}s",
    )


def test_6_phase_transition_contrast():
    t0 = time.time()
    cfg = SweepConfig(
        alphas=(1.2, 3.0), ns=(400,), aspect=2.0, trials_per_cell=50,
        base_seed=60001, k_vectors=1, c_grid=(1.0,), epsilons=(0.1,),
    )
    records, failures, _ = run_sweep(cfg, workers=1)
    assert not failures
    # compare in squared-mass units, the convention of every other mass
    # statistic here (threshold mass, top-coordinate fraction)
    mass = {1.2: [], 3.0: []}
    top = {1.2: [], 3.0: []}
    m_top = math.ceil(400 / math.log(400))
    for r in records:
        value = dict((e, v) for e, v in r.localization[0]["min_mass_profile"])[0.1]
        mass[r.alpha].append(value * value)
        top[r.alpha].append(top_mass(np.asarray(r.bottom_vectors[0]), m_top))
    med_lo, med_hi = float(np.median(mass[1.2])), float(np.median(mass[3.0]))
    top_lo, top_hi = float(np.median(top[1.2])), float(np.median(top[3.0]))
    ratio = med_hi / med_lo
    elapsed = time.time() - t0
    ok = ratio >= 2.0 and top_lo > top_hi and elapsed < 1200
    assert _verdict(
        6, "phase-transition contrast", ok,
        f"n=400, 50 trials/alpha: min-mass (eps=0.1, squared) medians "
        f"{med_hi:.3f} vs {med_lo:.3f}, ratio {ratio:.2f} >= 2; "
        f"top-{m_top} mass {top_lo:.3f} (alpha=1.2) > {top_hi:.3f} (alpha=3.0), {elapsed:.1f}s",
    )


def test_7_scaling_sandwich():
    t0 = time.time()
    cfg = SweepConfig(
        alphas=(1.2,), ns=(200, 400, 800, 1600), aspect=2.0, trials_per_cell=20,
        base_seed=70001, k_vectors=1, c_grid=(1.0,), epsilons=(0.1,),
    )
    records, failures, _ = run_sweep(cfg, workers=1)
    assert not failures
    fit = fit_scaling(records, 1.2)
    bracket = bracket_check(fit, floor_coeff=0.3, slack=0.05)

    cert_by_n: dict[int, list[float]] = {}
    for r in records:
        upper = r.certificate["certified_upper"]
        if math.isfinite(upper):
            cert_by_n.setdefault(r.n, []).append(upper)
    consts = []
    for n in fit.ns:
        envelope = n ** (1 / 1.2) * math.log(n) ** ((1.2 - 2.0) / 2.4)
        consts.append(float(np.median(cert_by_n[n])) / envelope)
    cert_spread = max(consts) / min(consts)

    elapsed = time.time() - t0
    floor_ok = bracket.floor_violations == []
    cert_ok = len(cert_by_n) == 4 and cert_spread < 2.0
    slope_ok = 0.45 <= fit.slope <= 1 / 1.2 + 0.05
    ok = floor_ok and cert_ok and slope_ok and elapsed < 1800
    assert _verdict(
        7, "scaling sandwich (alpha=1.2)", ok,
        f"(a) floor violations {bracket.floor_violations}; "
        f"(b) certificate envelope constant spread {cert_spread:.3f} < 2; "
        f"(c) exponent {fit.slope:.4f} in [0.45, {1 / 1.2 + 0.05:.4f}], {elapsed:.1f}s",
    )


def _planted_record(alpha: float, n: int, trial: int, s_min: float, u: np.ndarray) -> TrialRecord:
    import dataclasses

    rep = localization_report(u, 1.0, (0.1,))
    return TrialRecord(
        alpha=alpha, n=n, aspect=2.0, law_kind="symmetric_pareto", trial_index=trial,
        seed=trial, n_rows=2 * n, s_min=s_min, s_top=10 * s_min, kth_values=[s_min],
        degenerate_flags=[False], bottom_vectors=[[float(v) for v in u]],
        localization=[{"k": 1, "c": 1.0, **dataclasses.asdict(rep)}],
        certificate={"certified_upper": math.inf, "valid": False, "note": ""},
        heavy_count=0, census_c=0.1,
    )


def test_8_planted_model_recovery():
    t0 = time.time()
    ns = (100, 200, 400, 800)

    plain = [
        _planted_record(1.2, n, t, 1.7 * n**0.75, np.ones(4) / 2.0)
        for n in ns for t in range(5)
    ]
    fit_plain = fit_scaling(plain, 1.2)
    err_plain = abs(fit_plain.slope - 0.75)

    enveloped = [
        _planted_record(
            1.2, n, t,
            1.7 * n ** (1 / 1.2) * math.log(n) ** ((1.2 - 2.0) / 2.4),
            np.ones(4) / 2.0,
        )
        for n in ns for t in range(5)
    ]
    fit_env = fit_scaling(enveloped, 1.2)
    err_env = abs(fit_env.slope_corrected - 1 / 1.2)

    n_vec = 400
    e1 = np.zeros(n_vec)
    e1[0] = 1.0
    uniform = np.ones(n_vec) / math.sqrt(n_vec)
    planted = [_planted_record(1.0, n_vec, t, 1.0, e1) for t in range(5)]
    planted += [_planted_record(3.0, n_vec, t, 1.0, uniform) for t in range(5)]
    table = transition_scan(planted, c=1.0, epsilon=0.1, delta=0.25)
    low = [r for r in table.rows if r.alpha == 1.0][0]
    high = [r for r in table.rows if r.alpha == 3.0][0]
    separated = (
        low.median_threshold_mass == 1.0
        and high.median_threshold_mass == 0.0
        and low.median_min_mass == 0.0
        and high.median_min_mass > 0.9
        and table.crossing_alpha == 3.0
    )

    elapsed = time.time() - t0
    ok = err_plain <= 1e-12 and err_env <= 1e-12 and separated and elapsed < 10
    assert _verdict(
        8, "planted-model recovery", ok,
        f"plain exponent error {err_plain:.2e}, enveloped exponent error {err_env:.2e} "
        f"(both <= 1e-12); localized/delocalized separation {separated}, {elapsed:.2f}s",
    )


def test_9_sweep_determinism(tmp_path):
    t0 = time.time()
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({
        "alphas": [1.2, 2.5],
        "ns": [24, 32],
        "aspect": 2.0,
        "trials_per_cell": 3,
        "base_seed": 4242,
        "c_grid": [1.0],
        "epsilons": [0.1],
    }))
    outs = []
    for name, workers in (("w1a", 1), ("w1b", 1), ("w8", 8)):
        dest = tmp_path / name
        code = main(["sweep", "--config", str(cfg_path), "--out-dir", str(dest),
                     "--workers", str(workers)])
        assert code == 0
        outs.append(dest)
    blobs = [(d / "records.jsonl").read_bytes() for d in outs]
    summaries = [(d / "summary.csv").read_bytes() for d in outs]
    elapsed = time.time() - t0
    identical = blobs[0] == blobs[1] == blobs[2] and summaries[0] == summaries[1] == summaries[2]
    ok = identical and elapsed < 300
    assert _verdict(
        9, "sweep determinism", ok,
        f"records.jsonl byte-identical across rerun and workers 1 vs 8: {identical}, "
        f"{len(blobs[0])} bytes, {elapsed:.1f}s",
    )
