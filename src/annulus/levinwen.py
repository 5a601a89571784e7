"""Generalized string-net model on honeycomb patches with walls and defects.

Degrees of freedom live on edges (one simple object of the edge's wall) and
on vertices (a basis vector of the assigned trivalent representation). Vertex
terms match each incident edge label against the vertex state's grading;
face terms insert a group-labeled loop in the face and absorb it into the six
surrounding vertices, shifting the face's edge labels accordingly. All
operators are exact projectors on the finite patch.

A patch is a compound defect: its vertices and edges form a domain wall
structure whose stubs are the dangling edges, and its faces are internal
faces of that structure. The structure validates the patch and traces its
faces, and the ground space is the engine's `QuotientRep` of that compound,
with the pinned edges as pins and the faces as the cavities it symmetrizes.
"""

from __future__ import annotations

import functools
import itertools
import json

from .engine import (
    QuotientRep, _act_on_state, _bubble_args, _commutator, _loop_forms,
    edge_labels_of, enumerate_basis,
)
from .reps import TrivalentRep
from .scalars import cyc_field
from .structures import (
    CompoundDefect, DomainWallStructure, StructureError, _document_entries,
    _document_kind, _document_object, _document_p, _document_trivalent,
    _shaped, corner_multiset,
)
from .structures import Edge as PatchEdge  # the lattice's name for it
from .walls import STAR, BimoduleLabel


class _FaceQuotient(QuotientRep):
    """A patch's ground space: its compound's quotient by the face loops,
    each refusal worded for faces."""

    basis_name = "patch"
    left_grade = "face {} left the consistent subspace"
    not_cyclic = "face {} does not carry a strict group action"
    not_commuting = "face relabelings do not commute"


class LatticePatch:
    """Finite honeycomb fragment with explicit faces and boundary policy.

    edges: `structures.Edge`s; faces: list of corner lists [(vid, region),
    ...]; pinned: {eid: object} fixing dangling edge values (free dangling
    edges enumerate all objects). `compound` is the patch read as a
    compound defect, over a `DomainWallStructure` whose stubs are the
    dangling edges: the structure checks the edges, walls and incidence,
    and every face must be one of its traced internal faces, as a multiset
    of corners; any subset of them may be given. `cavities[f]` is the index
    of face f among the traced ones, so face f's loop is that cavity's
    bubble (`engine._bubble_args`). `ground_space` is the compound's
    `QuotientRep` with the pins and these cavities: its basis solve,
    bounded by ANNULUS_MAX_BASIS before any state is built, each H_{f,1}
    read and checked as an affine form in the free labels, and its orbit
    count.
    """

    def __init__(self, p: int, vertices: dict, edges: list, faces: list,
                 pinned: dict | None = None):
        self.p = p
        self.field = cyc_field(p)
        self.vertices: dict[str, TrivalentRep] = dict(vertices)
        self.edges = list(edges)
        self.faces = [list(f) for f in faces]
        self.pinned = dict(pinned or {})
        structure = DomainWallStructure(
            p, {vid: rep.direction for vid, rep in self.vertices.items()},
            self.edges, [e.eid for e in self.edges if None in e.ends])
        self.compound = CompoundDefect(structure, self.vertices)
        self._edge_at = structure._edge_at
        for eid in self.pinned:
            e = structure.edge_by_id.get(eid)
            if e is None:
                raise StructureError(f"pinned edge {eid!r} is no edge of the "
                                     "patch")
            if all(end is not None for end in e.ends):
                raise StructureError(f"cannot pin interior edge {eid}")
            if self.pinned[eid] not in e.wall.simple_objects():
                raise StructureError(f"pin value for {eid} is not an object")
        traced = {corner_multiset(c): i
                  for i, c in enumerate(structure.cavities)}
        self.cavities = []
        for i, face in enumerate(self.faces):
            cavity = traced.get(corner_multiset(face))
            if cavity is None:
                raise StructureError(f"face {i} is no face of the patch")
            self.cavities.append(cavity)

    # -- basis ------------------------------------------------------------

    def vertex_order(self):
        return self.compound.vertex_order

    def consistent_basis(self):
        """States where every edge label equals both endpoint gradings and
        pinned values; these span the common kernel of all vertex terms.
        Solved and listed on each call, in `ground_space`'s state order."""
        return list(enumerate_basis(self.compound, self.pinned, "patch"))

    def edge_labels_of(self, state):
        return edge_labels_of(self.compound, state)

    # -- operators ---------------------------------------------------------

    def face_action(self, face_idx: int, g: int, state):
        """H_{f,g} on a consistent basis state: (phase, new state), the
        phase a `Cyc`, by the plain path (`engine._act_on_state`), which
        reads none of the forms below."""
        loop = _bubble_args(self.compound, self.cavities[face_idx], g)
        return _act_on_state(self.compound, state, loop, self.field)

    @functools.cached_property
    def ground_space(self) -> QuotientRep:
        """The compound's quotient with the pins and the faces' cavities,
        built and checked on first read."""
        return _FaceQuotient(self.compound, self.pinned, self.cavities)

    def violated_terms(self, edge_values: dict, state) -> dict:
        """Per-vertex count of violated edge-match terms for a raw state whose
        edge degrees of freedom are given explicitly. Each given edge must be
        an edge of the patch and its value an object of its wall, and the
        state must hold one local basis vector per vertex, in vertex order."""
        edge_by_id = self.compound.structure.edge_by_id
        for eid, value in edge_values.items():
            if eid not in edge_by_id:
                raise StructureError(f"edge {eid!r} is no edge of the patch")
            if value not in edge_by_id[eid].wall.simple_objects():
                raise StructureError(f"edge {eid}: {json.dumps(value)} is not "
                                     "an object of its wall")
        if len(state) != len(self.vertices):
            raise StructureError(
                f"state has {len(state)} vertex vectors, patch has "
                f"{len(self.vertices)} vertices")
        report = {}
        for vid, vec in zip(self.vertex_order(), state):
            rep = self.vertices[vid]
            if vec not in rep.basis():
                raise StructureError(
                    f"vertex {vid}: {list(vec)} is not a local basis vector")
            bad = sum(edge_values.get(self._edge_at(vid, slot).eid, lab) != lab
                      for slot, lab in rep.edge_labels(vec).items())
            if bad:
                report[vid] = bad
        return report

    def check_commutation(self) -> dict:
        """Verify all Hamiltonian terms commute exactly.

        H_z terms are diagonal (trivially mutually commuting); H_{z}/H_f
        commute because face actions shift edge and grading labels equally
        (asserted structurally). Each vertex action is a translation with
        an affine phase (`engine._loop_forms`), so two face loops commute up
        to one state-independent phase, the sum over their shared vertices
        of L_i.t_j - L_j.t_i in Z/N (`engine._commutator`); a face pair
        whose phase is nonzero for some (g, h) is a violation.
        """
        N = self.field.N
        report = {"faces": len(self.faces), "face_pairs": 0, "ok": True}
        # at[f][g]: the forms of the g-labeled loop in face f
        at = [[_loop_forms(_bubble_args(self.compound, c, g), self.vertices)
               for g in range(self.p)] for c in self.cavities]
        for i, j in itertools.combinations(range(len(self.faces)), 2):
            if not {v for v, _ in self.faces[i]} & {v for v, _ in self.faces[j]}:
                continue
            report["face_pairs"] += 1
            for g, h in itertools.product(range(self.p), repeat=2):
                if _commutator(at[i][g], at[j][h], N):
                    report["ok"] = False
                    report.setdefault("violations", []).append(
                        {"faces": [i, j], "g": g, "h": h})
        return report

    def assert_face_group_rep(self) -> None:
        """Each face's operators form a strict Z/p action on the consistent
        basis (needed for H_f idempotency and the orbit count): H_{f,1}
        keeps the basis, H_{f,g} = H_{f,1}^g with equal phases for every g
        and every basis state, and H_{f,1}^p is the identity. The ground
        space checks this on each face's affine form as it is built."""
        self.ground_space

    def ground_space_dim(self) -> int:
        """Exact dimension of the joint +1 eigenspace of all terms.

        On the consistent subspace (the vertex-term kernel) each face term
        H_f = p^-1 sum_g U_{f,g} averages over the cyclic group of U_{f,1}.
        When the U_{f,1} commute, prod_f H_f averages over G = (Z/p)^F,
        which acts monomially on the consistent basis; its image has one
        vector per orbit whose stabilizer acts trivially, so the dimension
        is the number of such orbits, the ground space's `total_dim`,
        counted by linear algebra on the faces' affine forms.
        """
        self.assert_face_group_rep()
        return self.ground_space.total_dim()


# --------------------------------------------------------------------------
# Patch builders
# --------------------------------------------------------------------------


def _hex_vertex_names(i):
    # per hexagon i: t=top, ul/ll = upper/lower left, b=bottom, lr/ur = right
    return {k: f"h{i}_{k}" for k in ("t", "ul", "ll", "b", "lr", "ur")}


def hexagon_chain_patch(p: int, n_faces: int, wall_name: str = "Xk:1",
                        pin: bool = True) -> LatticePatch:
    """A horizontal chain of hexagons, all edges on one wall (the bulk model).

    Interior vertices alternate 2:1 / 1:2; dangling edges are pinned to the
    wall's first simple object unless pin=False. Every 2:1 vertex holds one
    rep, and so does every 1:2 vertex.
    """
    w = BimoduleLabel.parse(wall_name, p)
    tri21, tri12 = TrivalentRep("tri21", w, w), TrivalentRep("tri12", w, w)
    vertices: dict[str, TrivalentRep] = {}
    edges: list[PatchEdge] = []
    faces = []
    pinned = {}
    pin_value = w.simple_objects()[0]

    def add_edge(eid, ends):
        edges.append(PatchEdge(eid, w, ends))

    def dangle(eid, end):
        add_edge(eid, (end, None))
        if pin:
            pinned[eid] = pin_value

    for i in range(n_faces):
        names = _hex_vertex_names(i)
        # left column shared with previous hexagon
        if i == 0:
            vertices[names["ul"]] = tri12
            vertices[names["ll"]] = tri21
            add_edge(f"h{i}_w", ((names["ul"], "bottom"), (names["ll"], "top")))
            dangle(f"h{i}_ul_r", (names["ul"], "tl"))
            dangle(f"h{i}_ll_r", (names["ll"], "bl"))
        vertices[names["t"]] = tri21
        vertices[names["b"]] = tri12
        vertices[names["ur"]] = tri12
        vertices[names["lr"]] = tri21
        ul = names["ul"] if i == 0 else _hex_vertex_names(i - 1)["ur"]
        ll = names["ll"] if i == 0 else _hex_vertex_names(i - 1)["lr"]
        add_edge(f"h{i}_nw", ((ul, "tr"), (names["t"], "bl")))
        add_edge(f"h{i}_ne", ((names["t"], "br"), (names["ur"], "tl")))
        add_edge(f"h{i}_e", ((names["ur"], "bottom"), (names["lr"], "top")))
        add_edge(f"h{i}_se", ((names["lr"], "bl"), (names["b"], "tr")))
        add_edge(f"h{i}_sw", ((names["b"], "tl"), (ll, "br")))
        dangle(f"h{i}_t_r", (names["t"], "top"))
        dangle(f"h{i}_b_r", (names["b"], "bottom"))
        if i == n_faces - 1:
            dangle(f"h{i}_ur_r", (names["ur"], "tr"))
            dangle(f"h{i}_lr_r", (names["lr"], "br"))
        faces.append([
            (names["t"], "mid"),
            (names["ur"], "left"), (names["lr"], "left"),
            (names["b"], "mid"),
            (ll, "right"), (ul, "right"),
        ])
    return LatticePatch(p, vertices, edges, faces, pinned)


def defect_line_patch(p: int) -> LatticePatch:
    """Two hexagons in an X_1 bulk crossed by F_0, T and L defect lines
    meeting at a junction on the shared edge (the defect-line ground-state
    configuration). Vertices with equal templates and walls hold one rep."""
    tri = functools.cache(TrivalentRep)
    x1 = BimoduleLabel("X", 1, p)
    f0 = BimoduleLabel("F", 0, p)
    tw = BimoduleLabel("T", None, p)
    lw = BimoduleLabel("L", None, p)

    vertices = {
        # hexagon boundary, left cell
        "ul0": tri("tri12", x1, x1),
        "ll0": tri("tri21", x1, x1),
        "t0": tri("tri21", x1, x1),
        # junction: F_0 (from hexagon 0) and T (hexagon 1) merge into L
        "b0": tri("tri12", x1, f0),      # lower-left of hexagon 0
        "jn": tri("tri21", f0, tw),      # bottom of the shared edge
        "tj": tri("tri12", x1, lw),      # top of the shared edge
        "t1": tri("tri21", lw, x1),      # L line exits upward here
        "b1": tri("tri12", tw, x1),      # lower-right, T line enters
        "ur1": tri("tri12", x1, x1),
        "lr1": tri("tri21", x1, x1),
    }
    edges = [
        PatchEdge("w0", x1, (("ul0", "bottom"), ("ll0", "top"))),
        PatchEdge("nw0", x1, (("ul0", "tr"), ("t0", "bl"))),
        PatchEdge("ne0", x1, (("t0", "br"), ("tj", "tl"))),
        PatchEdge("mid", lw, (("tj", "bottom"), ("jn", "top"))),
        PatchEdge("se0", f0, (("jn", "bl"), ("b0", "tr"))),
        PatchEdge("sw0", x1, (("b0", "tl"), ("ll0", "br"))),
        PatchEdge("nw1", lw, (("tj", "tr"), ("t1", "bl"))),
        PatchEdge("ne1", x1, (("t1", "br"), ("ur1", "tl"))),
        PatchEdge("e1", x1, (("ur1", "bottom"), ("lr1", "top"))),
        PatchEdge("se1", x1, (("lr1", "bl"), ("b1", "tr"))),
        PatchEdge("sw1", tw, (("b1", "tl"), ("jn", "br"))),
        # dangling
        PatchEdge("d_ul0", x1, (("ul0", "tl"), None)),
        PatchEdge("d_ll0", x1, (("ll0", "bl"), None)),
        PatchEdge("d_t0", x1, (("t0", "top"), None)),
        PatchEdge("d_b0", f0, (("b0", "bottom"), None)),
        PatchEdge("d_t1", lw, (("t1", "top"), None)),
        PatchEdge("d_b1", tw, (("b1", "bottom"), None)),
        PatchEdge("d_ur1", x1, (("ur1", "tr"), None)),
        PatchEdge("d_lr1", x1, (("lr1", "br"), None)),
    ]
    faces = [
        [("t0", "mid"), ("tj", "left"), ("jn", "left"), ("b0", "mid"),
         ("ll0", "right"), ("ul0", "right")],
        [("t1", "mid"), ("ur1", "left"), ("lr1", "left"), ("b1", "mid"),
         ("jn", "right"), ("tj", "right")],
    ]
    pinned = {
        "d_ul0": 0, "d_ll0": 0, "d_t0": 0, "d_b0": STAR,
        "d_t1": 0, "d_b1": (0, 0), "d_ur1": 0, "d_lr1": 0,
    }
    return LatticePatch(p, vertices, edges, faces, pinned)


# --------------------------------------------------------------------------
# JSON interchange
# --------------------------------------------------------------------------


def patch_from_json(doc: dict) -> LatticePatch:
    p = _document_p(doc)
    vertices = {}
    for v in _document_entries(doc["vertices"], "vertices", "vertex", dict):
        if v["id"] in vertices:
            raise StructureError(f"duplicate vertex id {v['id']!r}")
        w1, w2 = (BimoduleLabel.parse(w, p) for w in _shaped(
            v["walls"], ("first", "second"), f"vertex {v['id']}: walls"))
        vertices[v["id"]] = _document_trivalent(
            v, v["id"], _document_kind(v["template"], str,
                                       f"vertex {v['id']}: template"), w1, w2)
    edges = []
    for e in _document_entries(doc["edges"], "edges", "edge", dict):
        ends = _document_kind(e["ends"], list, f"edge {e['id']}: ends")
        ends = tuple(tuple(_shaped(end, ("vertex", "slot"),
                                   f"edge {e['id']}: an end"))
                     if end else None for end in ends)
        wall = _document_kind(e["wall"], str, f"edge {e['id']}: wall")
        edges.append(PatchEdge(e["id"], BimoduleLabel.parse(wall, p), ends))
    pinned = {eid: _document_object(value, f"pinned edge {eid}")
              for eid, value in _document_kind(doc.get("pinned") or {}, dict,
                                               "pinned").items()}
    faces = [[tuple(_shaped(c, ("vertex", "region"), f"face {i}: a corner"))
              for c in face] for i, face in enumerate(
                  _document_entries(doc["faces"], "faces", "face", list))]
    return LatticePatch(p, vertices, edges, faces, pinned)


def patch_to_json(patch: LatticePatch) -> dict:
    return {
        "p": patch.p,
        "vertices": [
            {"id": vid, "template": rep.direction,
             "walls": [rep.first.name(), rep.second.name()],
             **({"corner": rep.corner} if rep.has_corner else {})}
            for vid, rep in patch.vertices.items()
        ],
        "edges": [
            {"id": e.eid, "wall": e.wall.name(),
             "ends": [list(end) if end else None for end in e.ends]}
            for e in patch.edges
        ],
        "faces": [[list(c) for c in face] for face in patch.faces],
        "pinned": {
            eid: (list(v) if isinstance(v, tuple) else v)
            for eid, v in patch.pinned.items()
        },
    }
