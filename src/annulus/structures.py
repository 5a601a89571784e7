"""Domain wall structures: planar graphs with wall edges and defect vertices.

A structure is combinatorial: vertices carry a template fixing the cyclic
(counterclockwise) order of their edge slots, so faces can be traced from the
rotation system alone; no geometric embedding is ever computed. Cavities are
declared by callers (or derived) and validated against the traced faces, as
multisets of corners; the two external regions are always derived. A
Levin-Wen lattice patch is read as a structure too, its dangling edges the
stubs and its faces among the derived cavities.

Nothing of this reads a wall. So the process keeps, per topology (the
vertex ids and templates in order, each edge's id and ends, the external
list and the declared cavities), the `Shape` it validated and traced, and
every structure of that topology shares it, with the generator args the
engine reads on it: the drivers and patches build the same few graphs
with many labelings. A topology that fails validation is kept nowhere and
fails on every build. Each edge's wall modulus, and each rep's wall
against its edge's (`CompoundDefect`), are checked on every build.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass

from .defects import DefectLabel, parse_defect
from .reps import TRI12, TRI21, VARIABLE, BivalentRep, TrivalentRep
from .walls import STAR, BimoduleLabel, wall_product

TEMPLATE_SLOTS = {
    "bivalent": ("lower", "upper"),
    "tri21": ("bl", "br", "top"),
    "tri12": ("bottom", "tl", "tr"),
}

# Counterclockwise slot order, and the region between each slot and the next.
TEMPLATE_CCW = {
    "bivalent": ("upper", "lower"),
    "tri21": ("top", "bl", "br"),
    "tri12": ("tr", "tl", "bottom"),
}
REGION_AFTER = {
    "bivalent": {"upper": "left", "lower": "right"},
    "tri21": {"top": "left", "bl": "mid", "br": "right"},
    "tri12": {"tr": "mid", "tl": "left", "bottom": "right"},
}

# Sign a bubble labeled u enters each region slot with (ascending-string
# convention; fixed by the worked bubble computations).
BUBBLE_SIGN = {
    ("bivalent", "left"): -1, ("bivalent", "right"): 1,
    ("tri21", "left"): -1, ("tri21", "right"): 1, ("tri21", "mid"): 1,
    ("tri12", "left"): -1, ("tri12", "right"): 1, ("tri12", "mid"): -1,
}

_OUTSIDE = object()  # the outside "vertex": no vertex id equals it


@dataclass(frozen=True)
class Edge:
    """An edge of a structure or a lattice patch."""
    eid: str
    wall: BimoduleLabel
    ends: tuple  # two entries, each (vid, slot) or None for a dangling end


class StructureError(ValueError):
    pass


def check_incidence(templates: dict, edges: list) -> dict:
    """Validate how `edges` attach to the vertices `templates` {vid:
    template} and return {(vid, slot): edge}. Edge ids are unique; every
    edge has two ends, not both dangling; every vertex has a known template;
    every end names a known vertex and one of its template's slots; and
    every slot of every vertex is used by exactly one edge."""
    for vid, template in templates.items():
        if template not in TEMPLATE_SLOTS:
            raise StructureError(
                f"vertex {vid}: unknown template {template!r}")
    first = {}
    for i, e in enumerate(edges):
        if first.setdefault(e.eid, i) != i:
            raise StructureError(f"duplicate edge ids: edges {first[e.eid]} "
                                 f"and {i} are both {e.eid!r}")
    slot_edge = {}
    for e in edges:
        if len(e.ends) != 2:
            raise StructureError(f"edge {e.eid} must have two ends")
        if all(end is None for end in e.ends):
            raise StructureError(f"edge {e.eid} has no attached vertex")
        for end in e.ends:
            if end is None:
                continue
            vid, slot = end
            if vid not in templates:
                raise StructureError(
                    f"edge {e.eid} references unknown vertex {vid}")
            if slot not in TEMPLATE_SLOTS[templates[vid]]:
                raise StructureError(
                    f"edge {e.eid}: vertex {vid} has no slot {slot!r}")
            if (vid, slot) in slot_edge:
                raise StructureError(f"slot {(vid, slot)} used twice")
            slot_edge[(vid, slot)] = e
    for vid, template in templates.items():
        for slot in TEMPLATE_SLOTS[template]:
            if (vid, slot) not in slot_edge:
                raise StructureError(f"slot {(vid, slot)} not connected")
    return slot_edge


def corner_multiset(corners) -> frozenset:
    """The corners [(vid, region), ...] of a face or cavity as a hashable
    multiset: order does not count, and a corner listed twice counts twice,
    as it adds its argument twice to a loop."""
    return frozenset(Counter((vid, region) for vid, region in corners).items())


class Shape:
    """What a structure's topology fixes, whatever its walls and its
    defects: the incidence `slot_eid` {(vid, slot): edge id}, the
    `cavities`, the `left_face` and `right_face` of a 2-string structure,
    and `generator_args`, the engine's per-vertex args of every bubble and
    boundary generator read on it so far (`engine._bubble_args`). Built by
    validating the incidence, the external list and the declared cavities
    and tracing the faces (`_trace_faces`); a topology that fails any of
    these raises, and no shape is made."""

    def __init__(self, vertices: dict, edges: list, external: list,
                 cavities):
        slot_edge = check_incidence(vertices, edges)
        if (sorted(e.eid for e in edges if None in e.ends)
                != sorted(external)):
            raise StructureError("external list must name exactly the stub edges")
        self.slot_eid = {slot: e.eid for slot, e in slot_edge.items()}
        internal = []
        self.left_face = self.right_face = None
        for corners, outer in _trace_faces(vertices, self.slot_eid, edges,
                                           external):
            if not outer:
                internal.append(corners)
            elif len(external) == 2:
                # a face arriving at the outer end of the bottom stub leaves
                # the outside along the top one: it is the left region
                if 0 in outer:
                    self.left_face = corners
                if 1 in outer:
                    self.right_face = corners
        if cavities is None:
            self.cavities = internal
        else:
            self.cavities = [list(c) for c in cavities]
            if (Counter(map(corner_multiset, self.cavities))
                    != Counter(map(corner_multiset, internal))):
                raise StructureError(
                    "declared cavities do not match the internal faces of the structure")
        self.generator_args: dict = {}


def _trace_faces(vertices: dict, slot_eid: dict, edges: list,
                 external: list) -> list:
    """Every face as (corners, outer): an orbit of h -> twin[rot[h]].

    A half-edge is (vid, slot), or (_OUTSIDE, i) for the outer end of the
    i-th stub in `external`. `twin` pairs the two ends of an edge; `rot` is
    the next half-edge counterclockwise about the same vertex (about the
    outside, the next stub). Each arrival at a vertex adds the corner (vid,
    region after the slot); `outer` lists the stubs whose outer end the
    face arrives at. Each face starts at its least (edge id, arrival
    vertex, slot), an outer end first.
    """
    n = len(external)
    twin, rot, key, outer_end = {}, {}, {}, {}
    for i, eid in enumerate(external):
        h = outer_end[eid] = (_OUTSIDE, i)
        rot[h], key[h] = (_OUTSIDE, (i + 1) % n), (eid,)
    for vid, template in vertices.items():
        ccw = TEMPLATE_CCW[template]
        for slot, nxt in zip(ccw, ccw[1:] + ccw[:1]):
            rot[(vid, slot)] = (vid, nxt)
            key[(vid, slot)] = (slot_eid[(vid, slot)], vid, slot)
    for e in edges:
        a, b = (end or outer_end[e.eid] for end in e.ends)
        twin[a], twin[b] = b, a
    faces, seen = [], set()
    for h in sorted(rot, key=key.__getitem__):
        if h in seen:
            continue
        corners, outer = [], []
        while h not in seen:
            seen.add(h)
            vid, slot = h
            if vid is _OUTSIDE:
                outer.append(slot)
            else:
                corners.append((vid, REGION_AFTER[vertices[vid]][slot]))
            h = twin[rot[h]]
        faces.append((corners, outer))
    return faces


# for the life of the process, as a topology fixes its shape
_SHAPES: dict = {}  # `_topology` -> `Shape`


def _topology(vertices: dict, edges: list, external: list, cavities) -> tuple:
    """The key of a structure's shape: its vertex ids and templates in
    order, each edge's id and ends, the external list and the declared
    cavities (None when derived); no wall."""
    return (tuple(vertices.items()), tuple((e.eid, e.ends) for e in edges),
            tuple(external),
            None if cavities is None else tuple(map(tuple, cavities)))


class DomainWallStructure:
    """Validated combinatorial structure with traced faces.

    vertices: ordered {vid: template}; edges: list of Edge; external: stub
    edge ids in disc-boundary order ([bottom, top] for 2-string structures);
    cavities: list of corner lists [(vid, region), ...] (None derives them
    from the internal faces). Declared cavities must be the internal faces,
    in any order, each compared as a `corner_multiset`.

    Every structure of one topology (`_topology`) shares its `Shape`, made
    and kept the first time that topology validates; each edge's wall is
    checked against p on every build. `cavities`, `left_face` and
    `right_face` are the shape's.
    """

    def __init__(self, p: int, vertices: dict, edges: list, external: list,
                 cavities=None):
        self.p = p
        self.vertices = dict(vertices)
        self.edges = list(edges)
        self.edge_by_id = {e.eid: e for e in self.edges}
        self.external = list(external)
        for e in self.edges:
            if e.wall.p != self.p:
                raise StructureError(
                    f"edge {e.eid}: wall modulus {e.wall.p} != structure p={self.p}")
        key = _topology(self.vertices, self.edges, self.external, cavities)
        shape = _SHAPES.get(key)
        if shape is None:
            shape = _SHAPES[key] = Shape(self.vertices, self.edges,
                                         self.external, cavities)
        self.shape = shape
        self.cavities = shape.cavities
        self.left_face, self.right_face = shape.left_face, shape.right_face

    def _edge_at(self, vid, slot):
        try:
            return self.edge_by_id[self.shape.slot_eid[(vid, slot)]]
        except KeyError:
            raise StructureError(f"no edge at {(vid, slot)}") from None

    def external_walls(self):
        return tuple(self.edge_by_id[eid].wall for eid in self.external)

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "vertices": [
                {"id": vid, "template": tpl} for vid, tpl in self.vertices.items()
            ],
            "edges": [
                {
                    "id": e.eid,
                    "wall": e.wall.name(),
                    "from": list(e.ends[0]) if e.ends[0] else None,
                    "to": list(e.ends[1]) if e.ends[1] else None,
                }
                for e in self.edges
            ],
            "cavities": [[list(c) for c in cav] for cav in self.cavities],
            "external": list(self.external),
        }


class CompoundDefect:
    """A structure with a representation assigned to every vertex.

    `corner_names` names the corners its vertices carry, in vertex order,
    as the built-in templates name them (`_trivalent_reps`); a compound
    read from an explicit graph or a patch names none."""

    def __init__(self, structure: DomainWallStructure, reps: dict,
                 corner_names: tuple = ()):
        self.structure = structure
        self.p = structure.p
        self.reps = dict(reps)
        self.corner_names = corner_names
        if set(self.reps) != set(structure.vertices):
            raise StructureError("assignment must cover exactly the vertices")
        for vid, rep in self.reps.items():
            template = structure.vertices[vid]
            expected = TEMPLATE_SLOTS[template]
            if tuple(rep.slots) != expected:
                raise StructureError(
                    f"vertex {vid}: representation of wrong template")
            for slot in expected:
                e = structure._edge_at(vid, slot)
                if rep.wall_of_slot(slot) != e.wall:
                    raise StructureError(
                        f"vertex {vid} slot {slot}: representation wall "
                        f"{rep.wall_of_slot(slot).name()} != edge wall {e.wall.name()}")

    @property
    def vertex_order(self):
        return list(self.structure.vertices)

    def __repr__(self):
        return f"<compound defect on {len(self.reps)} vertices, p={self.p}>"


# --------------------------------------------------------------------------
# Built-in templates
# --------------------------------------------------------------------------


class CornerError(StructureError):
    """Given corner values that do not name exactly a compound's corners."""


def _trivalent_reps(corners: dict | None, vertex_of: dict,
                    vertices: list) -> tuple:
    """({vid: TrivalentRep}, corner names) for `vertices`, a list of
    (corner name, direction, first wall, second wall) in vertex order, the
    vertex of each name `vertex_of[name]`: the names are those of the
    vertices whose family carries a corner, in that order. With no
    `corners` each carried corner is `reps.VARIABLE`, an unknown of the
    basis solve; a dict must give a value to each carried corner and to no
    other name (else CornerError)."""
    carried = tuple(name for name, direction, first, second in vertices
                    if (TRI21 if direction == "tri21" else TRI12)[
                        (first.ekind(), second.ekind())]["mu"])
    if corners is None:
        corners = dict.fromkeys(carried, VARIABLE)
    elif corners.keys() != set(carried):
        unknown = corners.keys() - set(carried)
        if unknown:
            raise CornerError(f"unknown corner names {sorted(unknown)}")
        raise CornerError("missing corner values "
                          f"{sorted(set(carried) - corners.keys())}")
    reps = {vertex_of[name]: TrivalentRep(direction, first, second,
                                          corner=corners.get(name))
            for name, direction, first, second in vertices}
    return reps, carried


def vertical_compound(d1: DefectLabel, d2: DefectLabel,
                      corners: dict | None = None) -> CompoundDefect:
    """d1 stacked below d2; d1's upper wall must equal d2's lower wall. It
    has no corner, so `corners`, when given, must be empty."""
    _trivalent_reps(corners, {}, [])
    if d1.upper != d2.lower:
        raise StructureError(
            f"wall mismatch: {d1.name()} upper is {d1.upper.name()}, "
            f"{d2.name()} lower is {d2.lower.name()}")
    p = d1.p
    edges = [
        Edge("bottom", d1.lower, (None, ("v1", "lower"))),
        Edge("mid", d1.upper, (("v1", "upper"), ("v2", "lower"))),
        Edge("top", d2.upper, (("v2", "upper"), None)),
    ]
    s = DomainWallStructure(
        p, {"v1": "bivalent", "v2": "bivalent"}, edges, ["bottom", "top"])
    return CompoundDefect(s, {"v1": BivalentRep(d1), "v2": BivalentRep(d2)})


# the vertex of each corner name, by template
HORIZONTAL_CORNERS = {"bottom": "vb", "top": "vt"}
ASSOCIATOR_CORNERS = {"mu0": "v1", "mu1": "v2", "nu0": "v3", "nu1": "v4"}


def horizontal_compound(d1: DefectLabel, d2: DefectLabel,
                        corners: dict | None = None) -> CompoundDefect:
    """The diamond: d1 on the left, d2 on the right, one internal cavity.

    Corner names: bottom at the split (vb), top at the merge (vt), each
    carried when its vertex's family has a corner parameter. With no
    `corners`, each carried corner is an unknown of the basis solve
    (`reps.VARIABLE`); a dict must give exactly the carried ones
    (`_trivalent_reps`)."""
    reps, names = _trivalent_reps(corners, HORIZONTAL_CORNERS, [
        ("bottom", "tri12", d1.lower, d2.lower),
        ("top", "tri21", d1.upper, d2.upper)])
    vb, vt = reps["vb"], reps["vt"]
    edges = [
        Edge("bottom", vb.third, (None, ("vb", "bottom"))),
        Edge("a1", d1.lower, (("vb", "tl"), ("d1", "lower"))),
        Edge("a2", d2.lower, (("vb", "tr"), ("d2", "lower"))),
        Edge("b1", d1.upper, (("d1", "upper"), ("vt", "bl"))),
        Edge("b2", d2.upper, (("d2", "upper"), ("vt", "br"))),
        Edge("top", vt.third, (("vt", "top"), None)),
    ]
    structure = DomainWallStructure(
        d1.p,
        {"vb": "tri12", "d1": "bivalent", "d2": "bivalent", "vt": "tri21"},
        edges, ["bottom", "top"])
    return CompoundDefect(structure, {"vb": vb, "d1": BivalentRep(d1),
                                      "d2": BivalentRep(d2), "vt": vt},
                          names)


def associator_compound(m: BimoduleLabel, n: BimoduleLabel, pwall: BimoduleLabel,
                        corners: dict | None = None) -> CompoundDefect:
    """The triangle [M,N,P]: two 1:2 splits, two 2:1 merges, two cavities.

    Corner names: mu0 at the bottom split (W1 -> M, N*P), mu1 at the upper
    split (N*P -> N, P), nu0 at the M,N merge, nu1 at the top merge, each
    carried when its vertex's family has a corner parameter. With no
    `corners`, each carried corner is an unknown of the basis solve
    (`reps.VARIABLE`); a dict must give exactly the carried ones
    (`_trivalent_reps`).
    """
    reps, names = _trivalent_reps(corners, ASSOCIATOR_CORNERS, [
        ("mu0", "tri12", m, wall_product(n, pwall)),
        ("mu1", "tri12", n, pwall), ("nu0", "tri21", m, n),
        ("nu1", "tri21", wall_product(m, n), pwall)])
    v1, v2, v3, v4 = reps.values()
    if v1.third != v4.third:
        raise StructureError("wall product is not associative?!")
    edges = [
        Edge("bottom", v1.third, (None, ("v1", "bottom"))),
        Edge("M", m, (("v1", "tl"), ("v3", "bl"))),
        Edge("W2", v2.third, (("v1", "tr"), ("v2", "bottom"))),
        Edge("N", n, (("v2", "tl"), ("v3", "br"))),
        Edge("P", pwall, (("v2", "tr"), ("v4", "br"))),
        Edge("W3", v3.third, (("v3", "top"), ("v4", "bl"))),
        Edge("top", v4.third, (("v4", "top"), None)),
    ]
    structure = DomainWallStructure(
        m.p, {"v1": "tri12", "v2": "tri12", "v3": "tri21", "v4": "tri21"},
        edges, ["bottom", "top"])
    return CompoundDefect(structure, reps, names)


# --------------------------------------------------------------------------
# JSON interchange
# --------------------------------------------------------------------------


def _shaped(value, shape: tuple, what: str):
    """value, a document entry that must be a list [shape...] of strings;
    anything else is a StructureError that names `what`, or `what` and the
    part that is no string."""
    if not isinstance(value, (list, tuple)) or len(value) != len(shape):
        raise StructureError(f"{what} must be [{', '.join(shape)}], got "
                             f"{json.dumps(value)}")
    for name, part in zip(shape, value):
        _document_kind(part, str, f"{what}: {name}")
    return value


_KIND_NAMES = {dict: "an object", list: "a list", str: "a string"}


def _document_kind(value, kind: type, what: str):
    """value, a document entry that must be a JSON object (kind dict), list
    (kind list) or string (kind str); anything else is a StructureError
    that names `what`."""
    if not isinstance(value, kind):
        raise StructureError(f"{what} must be {_KIND_NAMES[kind]}, got "
                             f"{json.dumps(value)}")
    return value


def _document_entries(value, what: str, entry: str, kind: type) -> list:
    """value, a document list named `what`, each of whose entries must be
    of `kind` (`_document_kind`), and an object (a vertex or an edge) have
    a string id; a wrong entry is named by `entry` and its position."""
    for i, item in enumerate(_document_kind(value, list, what)):
        _document_kind(item, kind, f"{entry} {i}")
        if kind is dict:
            _document_kind(item["id"], str, f"{entry} {i}: id")
    return value


def _document_int(value, what: str) -> int:
    """value, a document entry that must be an integer; anything else, a
    bool or a float included, is a StructureError that names `what`."""
    if type(value) is not int:
        raise StructureError(f"{what} must be an integer, got "
                             f"{json.dumps(value)}")
    return value


def _document_object(value, what: str):
    """value, a document entry that must be an object: an integer
    (`_document_int`), a list of two, read as a tuple, or "*"; anything
    else is a StructureError that names `what`."""
    if value == STAR:
        return STAR
    if type(value) is int:
        return value
    if (isinstance(value, list) and len(value) == 2
            and all(type(x) is int for x in value)):
        return tuple(value)
    raise StructureError(f'{what} must be an integer, a list of two integers '
                         f'or "*", got {json.dumps(value)}')


def _document_p(doc: dict) -> int:
    return _document_int(doc["p"], "p")


def _document_trivalent(vdoc: dict, vid, direction: str,
                        first: BimoduleLabel, second: BimoduleLabel):
    """The `TrivalentRep` of a vertex document, whose corner is None when
    it gives none, else an integer (`_document_int`); a corner its family
    carries and the document lacks, or one it gives and the family does
    not carry, is a StructureError that names the vertex."""
    corner = (_document_int(vdoc["corner"], f"vertex {vid}: corner")
              if "corner" in vdoc else None)
    try:
        return TrivalentRep(direction, first, second, corner=corner)
    except ValueError as exc:
        raise StructureError(f"vertex {vid}: {exc}") from None


def compound_from_json(doc: dict) -> CompoundDefect:
    """Build a compound defect from the structure document format.

    Besides explicit graphs, the built-in templates are accepted as
    shorthand: {"p", "template": "vertical"|"diamond", "defects": [d1, d2],
    "corners": {...}} and {"p", "template": "associator", "walls":
    [M, N, P], "corners": {...}}. "corners" must give exactly the corners
    the template's builder carries (`CornerError`).
    """
    p = _document_p(doc)
    template = doc.get("template")
    if template is not None:
        corners = {k: _document_int(v, f"corner {k}")
                   for k, v in _document_kind(doc.get("corners") or {}, dict,
                                              "corners").items()}
        if template in ("vertical", "diamond"):
            d1, d2 = (parse_defect(t, p) for t in _shaped(
                doc["defects"], ("d1", "d2"), f"{template} template defects"))
            build = (vertical_compound if template == "vertical"
                     else horizontal_compound)
            return build(d1, d2, corners)
        if template == "associator":
            walls = [BimoduleLabel.parse(t, p) for t in _shaped(
                doc["walls"], ("M", "N", "P"), "associator template walls")]
            return associator_compound(*walls, corners=corners)
        raise StructureError(f"unknown template {template!r}")
    vertex_docs = {}
    for v in _document_entries(doc["vertices"], "vertices", "vertex", dict):
        if v["id"] in vertex_docs:
            raise StructureError(f"duplicate vertex id {v['id']!r}")
        vertex_docs[v["id"]] = v
    vertices = {vid: _document_kind(v["template"], str,
                                    f"vertex {vid}: template")
                for vid, v in vertex_docs.items()}
    edges = []
    for e in _document_entries(doc["edges"], "edges", "edge", dict):
        ends = []
        for key in ("from", "to"):
            end = e.get(key)
            ends.append(tuple(_shaped(end, ("vertex", "slot"),
                                      f"edge {e['id']}: an end"))
                        if end else None)
        wall = _document_kind(e["wall"], str, f"edge {e['id']}: wall")
        edges.append(Edge(e["id"], BimoduleLabel.parse(wall, p), tuple(ends)))
    cavities = doc.get("cavities")
    if cavities is not None:
        cavities = [[tuple(_shaped(c, ("vertex", "region"),
                                   f"cavity {i}: a corner"))
                     for c in cavity] for i, cavity in enumerate(
                         _document_entries(cavities, "cavities", "cavity",
                                           list))]
    structure = DomainWallStructure(p, vertices, edges, _document_entries(
        doc["external"], "external", "external stub", str), cavities)
    reps = {}
    for vid, template in vertices.items():
        vdoc = vertex_docs[vid]
        if template == "bivalent":
            if "defect" not in vdoc:
                raise StructureError(f"bivalent vertex {vid} needs a defect label")
            reps[vid] = BivalentRep(parse_defect(_document_kind(
                vdoc["defect"], str, f"vertex {vid}: defect"), p))
        else:
            slots = TEMPLATE_SLOTS[template]
            pair = slots[:2] if template == "tri21" else slots[1:]
            w1 = structure._edge_at(vid, pair[0]).wall
            w2 = structure._edge_at(vid, pair[1]).wall
            reps[vid] = _document_trivalent(vdoc, vid, template, w1, w2)
    return CompoundDefect(structure, reps)


def compound_to_json(cd: CompoundDefect) -> dict:
    doc = cd.structure.to_json()
    for vdoc in doc["vertices"]:
        rep = cd.reps[vdoc["id"]]
        if isinstance(rep, BivalentRep):
            vdoc["defect"] = rep.defect.name()
        elif rep.has_corner:
            vdoc["corner"] = rep.corner
    return doc
