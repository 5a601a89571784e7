"""The benchmark's per-layer tracing still finds the library names it wraps.

`perfbench/tracing.py` wraps methods by name, reading each from its own
class (`vars(cls)[name]`), so a wrapped method that moves to a helper or a
base class breaks `perfbench/run.py --trace 1`. This runs the wrappers on one
small patch."""

import importlib.util
from pathlib import Path

from annulus import levinwen

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_instrument_records_the_lattice_spans_and_removes_its_wrappers():
    tracing = _tracing()
    plain = dict(vars(levinwen.LatticePatch))
    rec = tracing.Recorder()
    remove = tracing.instrument(rec)
    try:
        assert levinwen.hexagon_chain_patch(2, 1).ground_space_dim() == 1
    finally:
        remove()
    calls, _ = rec.self_times()
    assert calls.get("levinwen.trace") == 1
    assert calls.get("levinwen.face_group_check") == 1
    assert rec.counters["reps.act.calls"] > 0
    assert dict(vars(levinwen.LatticePatch)) == plain
