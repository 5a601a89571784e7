"""The consistent basis as the solutions of linear equations over F_p."""

import pytest

from annulus import engine
from annulus.defects import enumerate_defects, parse_defect
from annulus.engine import SizeLimitError, _symbolic_labels, enumerate_basis
from annulus.levinwen import hexagon_chain_patch
from annulus.reps import BIVALENT, TRI12, TRI21, BivalentRep, TrivalentRep
from annulus.structures import StructureError, horizontal_compound
from annulus.walls import STAR, all_walls


def _value(label, vec, p):
    """A symbolic label evaluated at one local vector."""
    if label is STAR:
        return STAR
    if isinstance(label, tuple):
        return tuple(_value(x, vec, p) for x in label)
    return (label.const + sum(a * x for a, x in zip(label.coef, vec))) % p


def _every_rep(p):
    walls = all_walls(p)
    for lower in walls:
        for upper in walls:
            for d in enumerate_defects(lower, upper):
                yield BivalentRep(d)
    for direction, table in (("tri21", TRI21), ("tri12", TRI12)):
        for first in walls:
            for second in walls:
                entry = table.get((first.ekind(), second.ekind()))
                if entry is None:
                    continue
                for corner in (range(p) if entry["mu"] else (None,)):
                    yield TrivalentRep(direction, first, second, corner)


def test_symbolic_labels_equal_the_tables_on_every_local_vector():
    """Every entry of BIVALENT, TRI21 and TRI12, at every parameter and
    corner value for p = 2, 3, 5 and 7: the labels evaluated once on symbols
    give rep.edge_labels on every local vector."""
    covered = set()
    for p in (2, 3, 5, 7):
        for rep in _every_rep(p):
            covered.add(id(rep.entry))
            symbolic = _symbolic_labels(rep, "v")
            assert set(symbolic) == set(rep.slots)
            for vec in rep.basis():
                got = {slot: _value(lab, vec, p)
                       for slot, lab in symbolic.items()}
                assert got == rep.edge_labels(vec), (rep.key, vec)
    tables = (BIVALENT, TRI21, TRI12)
    assert covered == {id(entry) for t in tables for entry in t.values()}


@pytest.mark.parametrize("edges", [
    lambda v, mu, w: (v[0], v[1], v[0] * v[1]),
    lambda v, mu, w: (v[0], v[1], v[0] if v[0] < v[1] else v[1]),
])
def test_edge_labels_that_are_not_affine_are_refused(monkeypatch, edges):
    """A product of two free labels, or a comparison, in a rep's `edges`
    entry is a structure error that names the vertex."""
    monkeypatch.setitem(TRI21[("X", "X")], "edges", edges)
    with pytest.raises(StructureError,
                       match=r"vertex h0_\w+: edge labels are not affine"):
        hexagon_chain_patch(3, 1).consistent_basis()


def test_compound_labels_that_are_not_affine_are_refused(monkeypatch):
    monkeypatch.setitem(
        BIVALENT[("L", "L", None)], "edges",
        lambda v, d, w: (v[0], d["a"] + v[0] if v[0] else v[0]))
    cd = horizontal_compound(parse_defect("FqR(x=1;q=2)", 3),
                             parse_defect("LL(a=1,x=2)", 3), corner_top=2)
    with pytest.raises(StructureError,
                       match=r"vertex d2: edge labels are not affine"):
        enumerate_basis(cd)


def test_size_limit_counts_the_solutions_before_building_any(monkeypatch):
    """ANNULUS_MAX_BASIS bounds the final p^(free variables), and trips
    before any state or table is built; partial labelings no longer
    count."""
    want = hexagon_chain_patch(3, 2).consistent_basis()
    monkeypatch.setenv("ANNULUS_MAX_BASIS", str(len(want)))
    assert hexagon_chain_patch(3, 2).consistent_basis() == want

    def build(*args):
        raise AssertionError("a state was built")

    monkeypatch.setattr(engine.SolvedBasis, "values", build)
    monkeypatch.setenv("ANNULUS_MAX_BASIS", str(len(want) - 1))
    with pytest.raises(SizeLimitError, match=r"3\^2 consistent labelings"):
        hexagon_chain_patch(3, 2).consistent_basis()
