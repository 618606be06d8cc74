"""
How far one sweep's exponent moves with its seed
================================================

A scaling exponent fitted from one sweep is one draw: the same grid with
another base seed gives another value. Sweep the same small grid under
several base seeds through a two-worker pool, fit the exponent of the
median smallest singular value in n at each tail index, and print the
spread across seeds next to the heavy-tailed bracket. One process runs
every sweep, so the pool's workers are forked by the first sweep and
reused by the rest.
"""
import statistics

from svlab import SweepConfig, bracket_check, fit_scaling, run_sweep

alphas = (1.2, 3.0)
base_seeds = range(20260901, 20260909)

slopes = {alpha: [] for alpha in alphas}
inside = []
print(f"{'base seed':>10} {'sweep s':>7} " + " ".join(f"{'slope a=' + str(a):>11}" for a in alphas))
for seed in base_seeds:
    config = SweepConfig(
        alphas=alphas,
        ns=(50, 100, 200),
        aspect=2.0,
        trials_per_cell=5,
        base_seed=seed,
        c_grid=(1.0,),
        epsilons=(0.1,),
    )
    records, failures, elapsed = run_sweep(config, workers=2)
    assert not failures, failures
    fits = [fit_scaling(records, alpha) for alpha in alphas]
    for fit in fits:
        slopes[fit.alpha].append(fit.slope)
    inside.append(bracket_check(fits[0]).exponent_in_bracket)
    print(f"{seed:>10} {elapsed:>7.2f} " + " ".join(f"{fit.slope:>11.3f}" for fit in fits))
print()

for alpha in alphas:
    values = slopes[alpha]
    print(f"alpha={alpha}: exponent {statistics.mean(values):.3f} "
          f"+- {statistics.stdev(values):.3f} (sd over {len(values)} seeds), "
          f"range [{min(values):.3f}, {max(values):.3f}]")
bracket = bracket_check(fits[0])  # the bounds depend on alpha alone
print(f"alpha={alphas[0]} bracket [{bracket.exponent_low:.2f}, {bracket.exponent_high:.2f}]: "
      f"inside for {sum(inside)} of {len(inside)} seeds")
