"""The benchmark's traced run wraps library attributes by name; installing
and removing its wrappers here makes a rename fail the suite instead of the
benchmark."""
import importlib.util
from pathlib import Path

from widecount import lattice
from widecount.functors import extraction

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_layers_install_and_uninstall():
    tracing = _load_tracing()
    fingerprint = extraction.StratumAnalysis.fingerprint
    tracer = tracing.Tracer()
    try:
        tracing.install_layers(tracer)
        assert extraction.StratumAnalysis.fingerprint is not fingerprint
        assert extraction.count_level is not lattice.count_level
    finally:
        tracer.uninstall()
    assert extraction.StratumAnalysis.fingerprint is fingerprint
    assert extraction.count_level is lattice.count_level
