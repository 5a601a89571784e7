"""The process-wide shape table: structures of one topology share what
validation and face tracing produce, and every per-build check still runs."""

import pytest

from annulus import engine, structures
from annulus.defects import parse_defect
from annulus.engine import QuotientRep, decompose
from annulus.fusion import associator
from annulus.levinwen import hexagon_chain_patch
from annulus.structures import (
    TEMPLATE_SLOTS, CompoundDefect, DomainWallStructure, Edge,
    StructureError, associator_compound, compound_from_json,
    compound_to_json, horizontal_compound, vertical_compound,
)
from annulus.walls import BimoduleLabel


def _walls(p, *names):
    return [BimoduleLabel.parse(t, p) for t in names]


def _support_point(m, n, pw):
    """A corner dict at which the [M,N,P] cell decomposes to something."""
    result = associator(m, n, pw)
    values = next(v for v, out in result.outcomes if out)
    return dict(zip(associator_compound(m, n, pw).corner_names, values))


def test_compounds_of_one_topology_share_their_shape_not_their_walls():
    """Two associator cells with different walls, and at different p,
    share one shape: its cavities, faces and generator args. Each keeps
    its own edges, and so its own walls."""
    a = associator_compound(*_walls(3, "R", "Fq:2", "R"))
    b = associator_compound(*_walls(3, "T", "T", "T"))
    c = associator_compound(*_walls(5, "L", "F0", "Xk:2"))
    s = a.structure.shape
    assert b.structure.shape is s and c.structure.shape is s
    assert len(structures._SHAPES) == 1
    for cd in (a, b, c):
        assert cd.structure.cavities is s.cavities
        assert cd.structure.left_face is s.left_face
        assert cd.structure.right_face is s.right_face
    QuotientRep(a)
    assert ("bubble", 1, 1) in s.generator_args
    assert engine._bubble_args(b, 1, 1) is engine._bubble_args(a, 1, 1)
    assert engine._boundary_args(c, 1, 2) is engine._boundary_args(a, 1, 2)
    assert a.structure.edges is not b.structure.edges
    assert a.structure._edge_at("v1", "tl").wall.name() == "R"
    assert b.structure._edge_at("v1", "tl").wall.name() == "T"
    assert c.structure._edge_at("v1", "tl").wall.p == 5


def test_patches_of_one_topology_share_their_shape():
    one, other = hexagon_chain_patch(2, 3), hexagon_chain_patch(3, 3)
    shape = one.compound.structure.shape
    assert other.compound.structure.shape is shape
    assert one.cavities == other.cavities
    assert one.ground_space_dim() == other.ground_space_dim() == 1
    assert hexagon_chain_patch(2, 2).compound.structure.shape is not shape


def test_a_kept_topology_still_checks_every_wall():
    """A cached shape skips no per-build check: an edge wall of another
    modulus, and a rep whose wall differs from its edge's, are refused."""
    cd = associator_compound(*_walls(3, "T", "T", "T"))
    s = cd.structure
    shape = s.shape
    wrong_p = [Edge(e.eid, BimoduleLabel.parse("T", 5), e.ends)
               if e.eid == "N" else e for e in s.edges]
    with pytest.raises(StructureError, match="wall modulus 5 != structure p=3"):
        DomainWallStructure(3, s.vertices, wrong_p, s.external)
    other = associator_compound(*_walls(3, "R", "Fq:2", "R"), {"mu0": 0,
                                                               "nu1": 0})
    assert other.structure.shape is shape
    with pytest.raises(StructureError, match="representation wall"):
        CompoundDefect(s, other.reps)
    assert len(structures._SHAPES) == 1


@pytest.mark.parametrize("change, message", [
    (lambda s: (s.vertices, s.edges, s.external[:1]),
     "external list must name exactly the stub edges"),
    (lambda s: (s.vertices, s.edges[1:], s.external),
     r"slot \('v1', 'bottom'\) not connected"),
    (lambda s: ({**s.vertices, "v2": "tri21"}, s.edges, s.external),
     "edge W2: vertex v2 has no slot 'bottom'"),
    (lambda s: (s.vertices, [Edge(e.eid, e.wall, (e.ends[0], ("v3", "br")))
                             if e.eid == "M" else e for e in s.edges],
                s.external),
     r"slot \('v3', 'br'\) used twice"),
], ids=["external", "missing-edge", "template", "moved-end"])
def test_a_refused_topology_is_refused_on_every_build(change, message):
    s = associator_compound(*_walls(3, "T", "T", "T")).structure
    kept = dict(structures._SHAPES)
    for _ in range(3):
        with pytest.raises(StructureError, match=message):
            DomainWallStructure(3, *change(s))
        assert structures._SHAPES == kept
    with pytest.raises(StructureError, match="declared cavities do not match"):
        DomainWallStructure(3, s.vertices, s.edges, s.external,
                            s.cavities[:1])
    assert structures._SHAPES == kept


def test_declared_cavities_in_reverse_keep_their_own_bubble_order():
    """A structure document that declares its two cavities in the reverse
    of the traced order gets its own shape: its cavity 0 is the traced
    cavity 1, and its bubbles follow, though the derived order's shape
    has filled its generator args first. Its decomposition is the derived
    order's."""
    m, n, pw = _walls(3, "R", "Fq:2", "R")
    corners = _support_point(m, n, pw)
    derived = associator_compound(m, n, pw, corners)
    QuotientRep(derived)
    doc = compound_to_json(derived)
    doc["cavities"].reverse()
    reverse = compound_from_json(doc)
    assert reverse.structure.shape is not derived.structure.shape
    assert reverse.structure.cavities == derived.structure.cavities[::-1]
    for g in range(3):
        assert (engine._bubble_args(reverse, 0, g)
                == engine._bubble_args(derived, 1, g))
    want = decompose(QuotientRep(derived))
    assert want
    assert decompose(QuotientRep(reverse)) == want
    assert decompose(QuotientRep(compound_from_json(doc))) == want


def _first_meetings(structure) -> list:
    """Every edge with an attached end, with those ends, ordered by the
    first (vertex, slot) of the vertex order and template slot order that
    attaches it."""
    position = {(vid, slot): (i, j)
                for i, (vid, template) in enumerate(structure.vertices.items())
                for j, slot in enumerate(TEMPLATE_SLOTS[template])}
    edges = [(e.eid, tuple(end for end in e.ends if end is not None))
             for e in structure.edges]
    return sorted(edges, key=lambda edge: min(map(position.get, edge[1])))


def test_the_edge_plan_lists_each_edge_once_in_first_meeting_order():
    p = 3
    d1, d2 = parse_defect("FqR(x=1;q=1)", p), parse_defect("LL(a=1,x=2)", p)
    tt = parse_defect("TT(a=0,b=0)", p)
    for cd in (vertical_compound(tt, tt),
               horizontal_compound(d1, d2),
               associator_compound(*_walls(p, "R", "Fq:2", "R")),
               hexagon_chain_patch(p, 2).compound):
        structure = cd.structure
        plan = engine._edge_plan(structure)
        assert plan == _first_meetings(structure)
        assert len(plan) == len(structure.edges)
        assert structure.shape.edge_plan is plan


def test_one_edge_plan_serves_every_structure_of_a_topology():
    """Two associator cells with other walls, one at another p, solve
    their labels along the one plan their shape keeps."""
    a = associator_compound(*_walls(3, "R", "Fq:2", "R"))
    b = associator_compound(*_walls(3, "T", "T", "T"))
    c = associator_compound(*_walls(5, "L", "F0", "Xk:2"))
    assert a.structure.shape.edge_plan is None
    plan = engine._edge_plan(a.structure)
    assert engine._edge_plan(b.structure) is plan
    assert engine._edge_plan(c.structure) is plan
    assert QuotientRep(b).raw_basis.size == (
        engine.enumerate_basis(b).size)
