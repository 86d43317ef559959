"""The repeatability check flags disagreement in either direction."""

import json

import pytest

from bench import ROOT, noise

with open(ROOT / "BENCHMARK.json") as _fh:
    SPEC = json.load(_fh)


def _fake_runs(monkeypatch, value):
    """Replace the child process: ``value(workload, seed, call, metric)``
    gives each metric, ``call`` counting the runs of one workload x seed."""
    calls = {}

    def one_run(workload, seed, seconds):
        call = calls[workload, seed] = calls.get((workload, seed), -1) + 1
        return {
            "host": {"seed": seed, "blocks": 8},
            "correct": True,
            "attempted": 100,
            "failed": 0,
            "metrics": {
                m["name"]: {"value": value(workload, seed, call, m["name"]), "unit": m["unit"]}
                for m in SPEC["end_to_end"]
            },
        }

    monkeypatch.setattr(noise, "one_run", one_run)


def test_agreeing_sets_pass_and_share_their_seeds(monkeypatch, capsys):
    _fake_runs(monkeypatch, lambda w, seed, call, m: 100.0 + seed * 0.1)
    assert noise.main(sets=2, runs=4, seconds=1.0) == 0
    out = capsys.readouterr().out
    assert "\nPASS: 0 miss(es)" in out and "\nMET: 0 of 24 sets" in out
    assert "| 4 | 1 | 8 |" in out and "| 4 | 2 | 8 |" in out  # every run is listed


@pytest.mark.parametrize("factor", [1.3, 1 / 1.3])
def test_a_second_set_that_reads_much_better_or_worse_is_a_miss(monkeypatch, capsys, factor):
    def value(workload, seed, call, metric):
        moved = workload == "store-write" and metric == "ops_per_s" and call == 1
        return 100.0 * (factor if moved else 1.0)

    _fake_runs(monkeypatch, value)
    assert noise.main(sets=2, runs=4, seconds=1.0) == 1
    assert "\nFAIL: 1 miss(es)" in capsys.readouterr().out


def test_a_count_that_does_not_repeat_for_its_seed_is_a_miss(monkeypatch, capsys):
    def value(workload, seed, call, metric):
        drifted = metric == "elem_io_per_op" and (workload, seed, call) == ("serve-zipf", 3, 1)
        return 3.2 + (1e-12 if drifted else 0.0)

    _fake_runs(monkeypatch, value)
    assert noise.main(sets=2, runs=4, seconds=1.0) == 1
    assert "MISS, seeds [3] differ" in capsys.readouterr().out


def test_one_run_a_tenth_from_its_median_is_reported_not_gated(monkeypatch, capsys):
    def value(workload, seed, call, metric):
        stray = (workload, seed, call, metric) == ("engine-batch", 2, 0, "read_p50_us")
        return 100.0 * (1.12 if stray else 1.0)

    _fake_runs(monkeypatch, value)
    assert noise.main(sets=2, runs=8, seconds=1.0) == 0
    out = capsys.readouterr().out
    assert "| FAR |" in out and "\nNOT MET: 1 of 24 sets" in out
