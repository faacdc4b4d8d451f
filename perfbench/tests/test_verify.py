import dataclasses
import random

import workloads
from workloads import Checks, check_against_reference, mismatched_fields


def tiny_specs():
    from repro.core.config import scheme
    from repro.experiments.parallel import RunSpec
    from repro.experiments.runner import RunBudget

    budget = RunBudget(warmup_cycles=50, measure_cycles=150,
                       functional_warmup_instructions=300, rotations=1)
    return [RunSpec(config=scheme("ICOUNT", 2, 8, n_threads=2),
                    rotation=r, budget=budget) for r in range(2)]


def test_mismatched_fields_names_each_difference():
    assert mismatched_fields({"a": 1, "b": 2}, {"a": 1, "b": 2}) == []
    assert mismatched_fields({"a": 1, "b": 2}, {"a": 1, "b": 3}) == ["b"]
    assert mismatched_fields({"a": 1}, {"a": 1, "c": 0}) == ["c"]


def test_campaign_results_match_the_reference_path():
    from repro.experiments.parallel import execute_runs

    specs = tiny_specs()
    results = execute_runs(specs, jobs=1, use_cache=False)
    checks = Checks()
    check_against_reference(checks, specs, results, random.Random(0), "t")
    assert checks.failures == []
    assert checks.passed == len(specs)


def test_a_corrupted_sample_is_counted_as_failed():
    from repro.experiments.parallel import execute_runs

    specs = tiny_specs()
    results = execute_runs(specs, jobs=1, use_cache=False)
    results[1] = dataclasses.replace(results[1],
                                     committed=results[1].committed + 1)
    checks = Checks()
    check_against_reference(checks, specs, results, random.Random(0), "t")
    assert checks.passed == 1
    assert len(checks.failures) == 1
    assert "committed" in checks.failures[0]
    assert checks.attempted == 2


def test_a_missing_sample_is_counted_as_failed():
    specs = tiny_specs()
    checks = Checks()
    check_against_reference(checks, specs[:1], [None], random.Random(0), "t")
    assert checks.attempted == 1 and len(checks.failures) == 1


def test_digest_is_a_pure_function_of_the_statistics():
    assert workloads.digest({"b": 1, "a": [1, 2]}) == \
        workloads.digest({"a": [1, 2], "b": 1})
    assert workloads.digest({"a": 1}) != workloads.digest({"a": 2})


def test_alloc_open_runs_the_same_systems_for_every_seed():
    def arrival_seeds(seed):
        return [spec.arrival.seed
                for spec in workloads.AllocOpen(seed, "unused").run_specs()]

    assert arrival_seeds(1) == arrival_seeds(1)
    orders = {tuple(arrival_seeds(seed)) for seed in range(1, 11)}
    assert len(orders) > 1
    assert {tuple(sorted(order)) for order in orders} == \
        {tuple(sorted(workloads.AllocOpen.systems))}
