"""The quotient, built on the solved coordinates without listing a state,
against the state walk in state_walk.py; and a check that building it acts
on no concrete local vector."""

import itertools

import pytest

from annulus import engine, fusion
from annulus.defects import parse_defect
from annulus.engine import QuotientRep
from annulus.levinwen import defect_line_patch, hexagon_chain_patch
from annulus.reps import BivalentRep, TrivalentRep
from annulus.structures import StructureError
from annulus.walls import BimoduleLabel
from state_walk import WalkedQuotient
from test_engine import _associators, _verticals_p3
from test_orbit_quotient import _criterion_2_p5


def _outcome(fn, *args):
    try:
        return fn(*args)
    except StructureError as exc:
        return str(exc)


def _assert_walked(qr, walked, boundary: bool) -> None:
    if not qr.raw_basis:
        assert walked.states == []
        return
    assert list(qr.grades.items()) == list(walked.grades.items())
    assert qr._gens == walked.gens
    assert qr._orbits == walked.orbits
    if not boundary:
        return
    for grade in qr.grades:
        for g, h in itertools.product(range(qr.cd.p), repeat=2):
            assert _outcome(qr._orbit_map, grade, g, h) == _outcome(
                walked.orbit_map, grade, g, h)
            assert _outcome(qr.character, grade, g, h) == _outcome(
                walked.character, grade, g, h)


def _patches():
    for p in (2, 3, 5):
        for nf in (1, 2, 3):
            yield hexagon_chain_patch(p, nf)
        yield defect_line_patch(p)
    # every free chain whose basis is within the default ANNULUS_MAX_BASIS
    for p, nf in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)):
        yield hexagon_chain_patch(p, nf, pin=False)


@pytest.mark.parametrize("family", ["associator-p2", "associator-p3",
                                    "vertical-p3", "criterion-2-p5",
                                    "patches"])
def test_quotient_equals_the_state_walk(family):
    """Index tables, grades, orbits, and every orbit map and character of a
    two-stub compound, equal to the walk's."""
    if family == "patches":
        count = 0
        for patch in _patches():
            walked = WalkedQuotient(patch.compound, patch.pinned,
                                    patch.cavities)
            _assert_walked(patch.ground_space, walked, False)
            count += 1
        assert count == 18
        return
    compounds = {"associator-p2": lambda: _associators(2),
                 "associator-p3": lambda: _associators(3),
                 "vertical-p3": _verticals_p3,
                 "criterion-2-p5": _criterion_2_p5}[family]()
    count = 0
    for cd in compounds:
        _assert_walked(QuotientRep(cd), WalkedQuotient(cd), True)
        count += 1
    assert count == {"associator-p2": 696, "associator-p3": 2816,
                     "vertical-p3": 512, "criterion-2-p5": 19}[family]


def test_the_quotient_acts_on_symbols_only(monkeypatch):
    """Every rep's `act` refuses a local vector that is not made of the
    engine's `_Form` symbols, and a p = 3 associator cell over all its
    corners, a p = 5 horizontal fusion and a patch's ground space are
    built all the same: each action is read once, as a form."""
    calls = []
    for cls in (BivalentRep, TrivalentRep):
        def act(self, vec, args, plain=cls.act):
            if not all(isinstance(x, engine._Form) for x in vec):
                raise AssertionError(f"act on the local vector {vec!r}")
            calls.append(vec)
            return plain(self, vec, args)
        monkeypatch.setattr(cls, "act", act)
    walls = [BimoduleLabel.parse(t, 3) for t in ("R", "Fq:2", "R")]
    assert fusion.associator(*walls).outcomes
    p = 5
    assert fusion.horizontal_fuse(parse_defect("FqR(x=1;q=2)", p),
                                  parse_defect("LL(a=1,x=2)", p)).outcomes
    assert hexagon_chain_patch(3, 2).ground_space_dim() == 1
    assert calls
