"""Self-tests of the workload generator and of BENCHMARK.json.

Run with: python3 -m pytest perfbench/tests
"""
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))

from layers import END_TO_END, PER_LAYER  # noqa: E402
from workloads import WORKLOADS, cli_chain, sweep_config_kwargs  # noqa: E402


def generated(seed):
    out = {}
    for name, w in WORKLOADS.items():
        if w.kind == "sweep":
            out[name] = [sweep_config_kwargs(w, seed, rep) for rep in range(3)]
        else:
            out[name] = [cli_chain(w, seed, i, "work") for i in range(4)]
    return out


def test_same_seed_same_inputs():
    assert generated(7) == generated(7)


def test_other_seed_other_inputs():
    a, b = generated(7), generated(8)
    for name in WORKLOADS:
        assert a[name] != b[name], name


def test_repetitions_and_workloads_get_distinct_seeds():
    sweeps = [w for w in WORKLOADS.values() if w.kind == "sweep"]
    seeds = {sweep_config_kwargs(w, 7, rep)["base_seed"] for w in sweeps for rep in range(3)}
    assert len(seeds) == 3 * len(sweeps)


def test_cli_chains_alternate_alpha_on_new_matrices():
    w = WORKLOADS["cli_single"]
    chains = [cli_chain(w, 7, i, "work") for i in range(4)]
    assert [c.alpha for c in chains] == [1.2, 3.0, 1.2, 3.0]
    assert len({c.seed for c in chains}) == 4


def test_benchmark_json_matches_the_metrics_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
