"""The benchmark calls the library through `perfbench/workloads.py`; binding
and checking the first operation of every kind here makes a changed
signature fail the suite instead of the benchmark."""
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads imports refs
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_first_operation_of_every_kind_binds_and_checks(monkeypatch):
    workloads = _load_workloads(monkeypatch)
    first = {}
    for workload in workloads.WORKLOADS:
        for block in workloads.specs(workload, seed=1):
            for spec in block:
                first.setdefault(spec["kind"], spec)
    assert len(first) == 11
    binder = workloads.Binder(lambda name, oracle: oracle)
    checker = workloads.Checker()
    for kind, spec in first.items():
        result = workloads.to_plain(binder.bind(spec)())
        assert checker.check(spec, result) is None, (kind, spec["id"])
