"""Self-tests of the benchmark harness, on a small workload.

    python3 -m pytest perfbench/tests -q
"""
import json
from functools import partial

import pytest

import oracles
import run
import workloads
from workloads import Job, Workload


def _small(inputs, rng):
    jobs, warmup = workloads.su2_sweep((4, 10))(inputs, rng)
    jobs += workloads.cyclic_sweep((8,), 1)(inputs, rng)[0]
    jobs += workloads.certify((6,), (4,), ("s3",))(inputs, rng)[0]
    return jobs, warmup


SMALL = Workload("small", "every job kind at toy sizes", _small)


def _measure(workload, trace=False, seed=5):
    return run.measure(workload.name, seed, 0.05, trace, workload=workload)["result"]


def _benchmark_json():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_small_workload_is_correct():
    result = _measure(SMALL)
    assert result == {**result, "correct": True, "failed": 0}
    assert result["attempted"] >= 7


def test_job_that_raises_counts_as_failed(monkeypatch):
    import fusionkit.cli
    real = fusionkit.cli.main

    def main(argv):
        if argv[0] == "explode":
            raise RuntimeError("boom")
        return real(argv)

    monkeypatch.setattr(fusionkit.cli, "main", main)

    def make(inputs, rng):
        jobs, warmup = workloads.su2_sweep((4,))(inputs, rng)
        return jobs + [Job("explode", ("explode",), lambda out: None)], warmup

    result = _measure(Workload("raises", "", make))
    assert result["correct"] is True  # a crash is a failure, not a wrong answer
    assert result["failed"] * 2 == result["attempted"]
    assert result["metrics"]["ok_frac"]["value"] == 0.5


def test_job_with_wrong_output_counts_as_failed():
    def make(inputs, rng):
        jobs, warmup = workloads.su2_sweep((6,))(inputs, rng)
        wrong = oracles.su2_expected(workloads.helpers, 4)  # one invariant only
        return [Job(j.name, j.argv, partial(oracles.check_su2_invariants, wrong))
                for j in jobs], warmup

    result = _measure(Workload("wrong", "", make))
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]


@pytest.mark.parametrize("trace, key", [(False, "end_to_end"), (True, "per_layer")])
def test_printed_metrics_are_declared(trace, key):
    declared = {m["name"]: m["unit"] for m in _benchmark_json()[key]}
    metrics = _measure(SMALL, trace)["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == declared


def test_traced_counts_repeat_exactly():
    def counts(seed):
        metrics = _measure(SMALL, True, seed)["metrics"]
        return {name: m["value"] for name, m in metrics.items() if m["unit"] == "count"}

    first, second = counts(5), counts(6)
    assert first == second
    assert first["invariants.found"] > 0 and first["trace.spans"] > 0


def test_oracles_know_the_literature():
    assert [oracles.divisor_count(m) for m in (8, 10, 12, 16)] == [4, 4, 6, 5]
    assert [f for _, f in oracles.su2_expected(workloads.helpers, 16)] == ["yes", "yes", "no"]
    assert oracles.product_degrees((2, 1, 1), (1, 1)) == (2, 2, 1, 1, 1, 1)
