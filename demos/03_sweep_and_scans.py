"""
A miniature sweep, end to end
=============================

Run a small Monte Carlo grid through the same harness the command line
uses, then feed the records to the analysis scans: the scaling fit with
its sandwich check, and the localization transition table. A full-size
run is the same code with a bigger grid (see the sweep-config example in
README.md).
"""
from svlab import (
    SweepConfig,
    bracket_check,
    fit_scaling,
    run_sweep,
    transition_scan,
)

config = SweepConfig(
    alphas=(1.2, 3.0),
    ns=(50, 100, 200),
    aspect=2.0,
    trials_per_cell=8,
    base_seed=20260814,
    c_grid=(1.0,),
    epsilons=(0.1,),
)

records, failures, elapsed = run_sweep(config, workers=1)
print(f"{len(records)} records, {len(failures)} failures, {elapsed:.1f}s")
print()

# scaling fit for the heavy-tailed cells, with the floor/envelope check
fit = fit_scaling(records, 1.2)
bracket = bracket_check(fit)
print(f"alpha=1.2 exponent: {fit.slope:.3f} "
      f"(bracket [{bracket.exponent_low:.2f}, {bracket.exponent_high:.2f}], "
      f"inside: {bracket.exponent_in_bracket})")
print(f"root-n floor violations: {bracket.floor_violations}")
print(f"envelope constant spread across n: {bracket.ratio_spread:.3f}")
print()

# transition table across the two tail regimes
table = transition_scan(records, c=1.0, epsilon=0.1, delta=0.25)
print(f"{'alpha':>6} {'n':>5} {'thresh mass':>12} {'min mass':>9} {'ipr':>7}")
for row in table.rows:
    print(f"{row.alpha:>6} {row.n:>5} {row.median_threshold_mass:>12.4f} "
          f"{row.median_min_mass:>9.4f} {row.median_ipr:>7.4f}")
print(f"crossing at alpha = {table.crossing_alpha}")
