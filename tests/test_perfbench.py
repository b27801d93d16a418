"""The benchmark's output checks, run on tiny sizes.

Each workload's ``check`` compares the program's outputs with a reference
(byte-identical fits, greedy tokens against the teacher-forced argmax, beam
captions against a full-prefix beam search), so a decoder that drifts fails
here and not only in a benchmark run.  The traced runs also fail here when
a name that the tracer wraps or that the greedy step recorder patches is
renamed or deleted.
"""

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench_run(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("run")


@pytest.mark.parametrize("name", ["desk-train", "desk-eval", "full-infer"])
def test_tiny_workload_passes_its_checks(perfbench_run, tmp_path, name):
    record = perfbench_run.run_workload(name, seed=0, seconds=0.01, trace=False, tiny=True,
                                        results=tmp_path)
    assert record["result"]["failed"] == 0
    assert record["result"]["correct"]


@pytest.mark.parametrize("name", ["desk-train", "desk-eval", "full-infer"])
def test_tiny_traced_workload_passes_its_checks(perfbench_run, tmp_path, name):
    record = perfbench_run.run_workload(name, seed=0, seconds=0.01, trace=True, tiny=True,
                                        results=tmp_path)
    assert record["result"]["failed"] == 0
    assert record["result"]["correct"]
    assert record["spans"] is not None


@pytest.mark.parametrize("name", ["desk-train", "desk-eval"])
def test_tiny_traced_counters_repeat_with_one_seed(perfbench_run, tmp_path, name):
    """A change that trims an op's cost must not change its work: every
    counter and every share of a traced run repeats exactly under one seed."""
    records = [perfbench_run.run_workload(name, seed=3, seconds=0.01, trace=True, tiny=True,
                                          results=tmp_path / str(i)) for i in range(2)]
    exact = [{key: m["value"] for key, m in r["result"]["metrics"].items()
              if m["unit"] in ("count", "fraction")} for r in records]
    assert exact[0] and "numerics.layer_norm.calls" in exact[0]
    assert exact[0] == exact[1]
