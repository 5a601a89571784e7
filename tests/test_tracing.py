"""The benchmark's per-layer tracing still finds the library names it wraps.

`perfbench/tracing.py` wraps methods by name, reading each from its own
class (`vars(cls)[name]`), so a wrapped method that moves to a helper or a
base class breaks `perfbench/run.py --trace 1`. This runs the wrappers on one
small patch and one associator call."""

import importlib.util
from pathlib import Path

import sys

from annulus import engine, fusion, levinwen
from annulus.walls import BimoduleLabel

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _wrapped_names():
    """Every annulus module's globals and the traced classes' attributes."""
    modules = {name: dict(vars(m)) for name, m in sys.modules.items()
               if m is not None and name.split(".")[0] == "annulus"}
    classes = {cls: dict(vars(cls)) for cls in (
        levinwen.LatticePatch, engine.QuotientRep)}
    return modules, classes


def _record(run):
    tracing = _tracing()
    plain = _wrapped_names()
    rec = tracing.Recorder()
    remove = tracing.instrument(rec)
    try:
        run()
    finally:
        remove()
    assert _wrapped_names() == plain
    return rec


def test_instrument_records_the_lattice_spans_and_removes_its_wrappers():
    """A patch's ground space solves its basis through the engine's one
    enumerator, so it shows under engine.enumerate_basis."""
    def run():
        assert levinwen.hexagon_chain_patch(2, 1).ground_space_dim() == 1

    rec = _record(run)
    calls, _ = rec.self_times()
    assert calls.get("levinwen.trace") == 1
    assert calls.get("levinwen.face_group_check") == 1
    assert calls.get("engine.enumerate_basis") == 1
    assert calls.get("engine.quotient") == 1
    assert rec.counters["reps.act.calls"] > 0


def test_instrument_records_the_compound_spans():
    walls = [BimoduleLabel.parse(t, 3) for t in ("R", "Fq:2", "R")]
    rec = _record(lambda: fusion.associator(*walls))
    calls, _ = rec.self_times()
    assert calls.get("fusion.driver") == 1
    for span in ("engine.enumerate_basis", "engine.quotient",
                 "engine.decompose"):
        assert calls.get(span, 0) > 0, span
    assert rec.counters["engine.basis_vectors"] > 0
