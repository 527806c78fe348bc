"""The benchmark's traced run wraps library attributes by name; installing
and removing its wrappers here makes a rename fail the suite instead of the
benchmark."""
import importlib.util
from pathlib import Path

from widecount import gallery, lattice, quasipoly
from widecount.actions import Permutation
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


def test_interpolation_counter_counts_one_call_per_residue_class():
    # quasipoly.candidates_per_fit divides the interpolate counter by the
    # fits; both builds below interpolate each of their classes once
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    try:
        tracing.install_layers(tracer)
        tracer.begin(0)
        level = lattice.level_quasipolynomial(
            lattice.DownwardClosedSet.full(2), Permutation.from_cycles("(1 2)", 2)
        )
        assert level.qp.period == 2
        assert tracer.calls["quasipoly.interpolate"] == 2
        tracer.close_pass()
        fitted = quasipoly.fit({n: n // 3 for n in range(40)}, max_period=4, max_degree=2)
        assert fitted.qp.period == 3
        assert tracer.calls["quasipoly.interpolate"] == 3
        assert tracing.layer_metrics(tracer)["quasipoly.candidates_per_fit"] == 3
        tracer.end()
    finally:
        tracer.uninstall()


def test_rank_programme_counts_its_elimination_steps():
    # gallery.matrices_ranked reads the rank_mod counter, so the fixed-rank
    # counts must make their elimination steps through gallery._rank_mod
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    try:
        tracing.install_layers(tracer)
        tracer.begin(0)
        assert gallery.fixed_rank_orbit_counts([0, 1], 4) == {0: 1, 1: 4, 2: 14, 3: 31, 4: 40}
        assert tracer.calls["gallery.rank_mod"] > 0
        assert tracing.layer_metrics(tracer)["gallery.matrices_ranked"] > 0
        tracer.end()
    finally:
        tracer.uninstall()
