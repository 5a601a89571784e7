"""Lattice model checks: projectors, commutation, exact ground spaces."""

import itertools
import json

import pytest

from annulus import engine
from annulus.levinwen import (
    LatticePatch, PatchEdge, defect_line_patch, hexagon_chain_patch,
    patch_from_json, patch_to_json,
)
from annulus.linalg import ExactMatrix
from annulus.reps import TrivalentRep
from annulus.structures import DomainWallStructure, StructureError
from annulus.walls import BimoduleLabel
from matrix_quotient import dense_ground_dim, face_matrix, face_projector
from state_walk import loop_table


def cyc_trace_dim(patch):
    """Reference for `ground_space_dim`: the same character formula, but
    composed with `face_action` and summed as general `Cyc` values."""
    basis = patch.consistent_basis()
    field = patch.field
    nf = len(patch.faces)
    total = field.zero
    for gs in itertools.product(range(patch.p), repeat=nf):
        for state in basis:
            phase = field.one
            cur = state
            for f, g in enumerate(gs):
                ph, cur = patch.face_action(f, g, cur)
                phase = phase * ph
            if cur == state:
                total = total + phase
    for _ in range(nf):
        total = total * field.inv_p
    value = total.as_rational()
    assert value is not None and value.denominator == 1
    return int(value)


def brute_force_basis(patch):
    """Reference for `consistent_basis`: the product of the local bases in
    vertex order, keeping a state when both ends of every edge agree and
    every dangling edge carries an object of its wall (its pin, if pinned).
    A prefix that already breaks an edge is dropped, which keeps product
    order."""
    order = patch.vertex_order()
    ends_of = {}
    for e in patch.edges:
        for end in e.ends:
            if end is not None:
                ends_of[end] = e

    def ok(labels_by_vertex, vid):
        for slot, lab in labels_by_vertex[vid].items():
            e = ends_of[(vid, slot)]
            if e.eid in patch.pinned and lab != patch.pinned[e.eid]:
                return False
            if lab not in e.wall.simple_objects():
                return False
            for other in e.ends:
                if other is not None and other != (vid, slot) \
                        and other[0] in labels_by_vertex \
                        and labels_by_vertex[other[0]][other[1]] != lab:
                    return False
        return True

    out = []

    def extend(prefix, labels_by_vertex):
        if len(prefix) == len(order):
            out.append(tuple(prefix))
            return
        vid = order[len(prefix)]
        rep = patch.vertices[vid]
        for vec in rep.basis():
            labels_by_vertex[vid] = rep.edge_labels(vec)
            if ok(labels_by_vertex, vid):
                extend(prefix + [vec], labels_by_vertex)
            del labels_by_vertex[vid]

    extend([], {})
    return out


def test_single_hexagon_dims():
    for p in (2, 3):
        patch = hexagon_chain_patch(p, 1)
        assert len(patch.consistent_basis()) == p
        assert patch.check_commutation()["ok"]
        assert patch.ground_space_dim() == 1
        assert dense_ground_dim(patch) == 1


def test_chain_dims_against_dense_oracle():
    for p in (2, 3):
        for nf in (1, 2, 3):
            patch = hexagon_chain_patch(p, nf)
            assert len(patch.consistent_basis()) == p ** nf
            dim = patch.ground_space_dim()
            assert dim == dense_ground_dim(patch)
            assert dim == 1


def test_face_term_removed_multiplies_dimension_by_p():
    for p in (2, 3):
        full = hexagon_chain_patch(p, 2)
        reduced = LatticePatch(p, full.vertices, full.edges, full.faces[:-1],
                               full.pinned)
        assert reduced.ground_space_dim() == p * full.ground_space_dim()
        assert dense_ground_dim(reduced) == p


def test_zero_face_patch_counts_consistent_labelings():
    p = 3
    full = hexagon_chain_patch(p, 2)
    bare = LatticePatch(p, full.vertices, full.edges, [], full.pinned)
    assert bare.ground_space_dim() == len(bare.consistent_basis()) == p * p


def test_face_operators_are_monomial_group_action():
    p = 3
    patch = hexagon_chain_patch(p, 2)
    patch.assert_face_group_rep()
    basis = patch.consistent_basis()
    for f in range(2):
        hfg = face_matrix(patch, f, 1)
        acc = hfg
        for _ in range(p - 1):
            acc = hfg @ acc
        assert acc == ExactMatrix.identity(patch.field, len(basis))


def test_h_z_eigenvalues():
    p = 2
    patch = hexagon_chain_patch(p, 1)
    state = patch.consistent_basis()[0]
    edges = patch.edge_labels_of(state)
    vid = patch.vertex_order()[0]
    assert vid not in patch.violated_terms(edges, state)
    # a mismatched edge drops exactly the terms naming it
    bad = dict(edges)
    eid = next(e.eid for e in patch.edges
               if (vid, patch.vertices[vid].slots[0]) in e.ends)
    bad[eid] = (bad[eid] + 1) % p
    report = patch.violated_terms(bad, state)
    assert report[vid] == 1
    assert all(count >= 1 for count in report.values())


def test_open_string_violates_two_vertex_terms():
    """Flipping one interior edge value away from both endpoint gradings
    (an open string end pair) violates exactly one term at each endpoint."""
    p = 2
    patch = hexagon_chain_patch(p, 1)
    state = patch.consistent_basis()[0]
    edges = patch.edge_labels_of(state)
    interior = next(e for e in patch.edges if all(end for end in e.ends))
    bad = dict(edges)
    bad[interior.eid] = (bad[interior.eid] + 1) % p
    report = patch.violated_terms(bad, state)
    assert sorted(report.values()) == [1, 1]
    assert set(report) == {end[0] for end in interior.ends}


def test_defect_line_patch():
    for p in (2, 3):
        patch = defect_line_patch(p)
        rep = patch.check_commutation()
        assert rep["ok"]
        dim = patch.ground_space_dim()
        assert dim == dense_ground_dim(patch)
        for f in range(len(patch.faces)):
            proj = face_projector(patch, f)
            assert (proj @ proj) == proj


def test_free_boundary_mode():
    # 12 vertex labels minus 6 interior matching constraints; the face move
    # then identifies states along one loop orbit.
    p = 2
    patch = hexagon_chain_patch(p, 1, pin=False)
    assert len(patch.consistent_basis()) == p ** 6
    dim = patch.ground_space_dim()
    assert dim == dense_ground_dim(patch) == p ** 5


def test_face_move_toggles_loop_edges_p2():
    """H_{f,1} on the all-X_1 p=2 hexagon is the string-net loop move: all six
    face edges toggle, radiating edges stay put."""
    p = 2
    patch = hexagon_chain_patch(p, 1)
    face_eids = set()
    for vid, _ in patch.faces[0]:
        for slot in patch.vertices[vid].slots:
            e = patch._edge_at(vid, slot)
            if all(end is not None for end in e.ends):
                face_eids.add(e.eid)
    assert len(face_eids) == 6
    for state in patch.consistent_basis():
        before = patch.edge_labels_of(state)
        phase, new = patch.face_action(0, 1, state)
        after = patch.edge_labels_of(new)
        assert phase == patch.field.one
        for eid in before:
            if eid in face_eids:
                assert after[eid] == (before[eid] + 1) % 2
            else:
                assert after[eid] == before[eid]


def test_uniform_loop_superposition_is_ground_state():
    """The uniform superposition over closed-loop configurations on a single
    hexagon has H_f eigenvalue 1."""
    for p in (2, 3):
        patch = hexagon_chain_patch(p, 1)
        basis = patch.consistent_basis()
        proj = face_projector(patch, 0)
        uniform = {i: patch.field.one for i in range(len(basis))}
        for i in range(len(basis)):
            acc = patch.field.zero
            for j, v in uniform.items():
                entry = proj.get(i, j)
                if entry:
                    acc = acc + entry * v
            assert acc == patch.field.one


def test_patch_size_limit(monkeypatch):
    import pytest as _pytest

    from annulus.engine import SizeLimitError

    monkeypatch.setenv("ANNULUS_MAX_BASIS", "2")
    patch = hexagon_chain_patch(3, 2)
    with _pytest.raises(SizeLimitError,
                        match="patch basis exceeds ANNULUS_MAX_BASIS=2"):
        patch.consistent_basis()


def test_patch_json_round_trip():
    patch = defect_line_patch(2)
    doc = json.loads(json.dumps(patch_to_json(patch)))
    patch2 = patch_from_json(doc)
    assert patch2.ground_space_dim() == patch.ground_space_dim()
    assert len(patch2.consistent_basis()) == len(patch.consistent_basis())


def test_patch_validation():
    p = 2
    x1 = BimoduleLabel("X", 1, p)
    v = {"a": TrivalentRep("tri21", x1, x1)}
    edges = [
        PatchEdge("e1", x1, (("a", "bl"), None)),
        PatchEdge("e2", x1, (("a", "br"), None)),
        PatchEdge("e3", x1, (("a", "top"), None)),
    ]
    LatticePatch(p, v, edges, [])
    with pytest.raises(StructureError):
        LatticePatch(p, v, edges[:2], [])  # unconnected slot
    with pytest.raises(StructureError):
        LatticePatch(p, v, edges, [], pinned={"e1": 7})
    with pytest.raises(StructureError):
        t = BimoduleLabel("T", None, p)
        LatticePatch(p, v, [PatchEdge("e1", t, (("a", "bl"), None))] + edges[1:], [])


def _one_vertex_edges():
    """The three dangling edges of one tri21 vertex "a" at p = 2."""
    x1 = BimoduleLabel("X", 1, 2)
    return [PatchEdge(eid, x1, (("a", slot), None))
            for eid, slot in (("e1", "bl"), ("e2", "br"), ("e3", "top"))]


@pytest.mark.parametrize("change, message", [
    (lambda es: es[:2] + [PatchEdge("e1", es[2].wall, es[2].ends)],
     "duplicate edge ids: edges 0 and 2 are both 'e1'"),
    (lambda es: es[:2] + [PatchEdge("e3", es[2].wall, es[2].ends + (None,))],
     "edge e3 must have two ends"),
    (lambda es: es + [PatchEdge("e4", es[0].wall, (None, None))],
     "edge e4 has no attached vertex"),
    (lambda es: es + [PatchEdge("e4", es[0].wall, (("b", "bl"), None))],
     "edge e4 references unknown vertex b"),
    (lambda es: es + [PatchEdge("e4", es[0].wall, (("a", "tl"), None))],
     "edge e4: vertex a has no slot 'tl'"),
    (lambda es: es + [PatchEdge("e4", es[0].wall, (("a", "bl"), None))],
     "slot ('a', 'bl') used twice"),
    (lambda es: es[:2], "slot ('a', 'top') not connected"),
], ids=["duplicate-id", "three-ends", "no-vertex", "unknown-vertex",
        "unknown-slot", "slot-used-twice", "unconnected-slot"])
def test_structures_and_patches_share_one_incidence_check(change, message):
    """The same malformed edge list gets the same refusal from a domain wall
    structure and from a lattice patch on the same vertex."""
    x1 = BimoduleLabel("X", 1, 2)
    good = _one_vertex_edges()
    DomainWallStructure(2, {"a": "tri21"}, good, ["e1", "e2", "e3"])
    LatticePatch(2, {"a": TrivalentRep("tri21", x1, x1)}, good, [])
    edges = change(_one_vertex_edges())
    stubs = [e.eid for e in edges if None in e.ends]
    for build in (
            lambda: DomainWallStructure(2, {"a": "tri21"}, edges, stubs),
            lambda: LatticePatch(2, {"a": TrivalentRep("tri21", x1, x1)},
                                 edges, [])):
        with pytest.raises(StructureError) as info:
            build()
        assert str(info.value) == message


def test_unknown_vertex_template_is_refused_by_name():
    """A template the incidence check does not know is a StructureError
    that names it, not a KeyError from the slot table."""
    with pytest.raises(StructureError,
                       match="^vertex a: unknown template 'tri99'$"):
        DomainWallStructure(2, {"a": "tri99"}, _one_vertex_edges(),
                            ["e1", "e2", "e3"])


def test_unknown_pinned_edge_is_refused_by_name():
    """A pin on an edge the patch does not have is a StructureError that
    names the edge, not a KeyError from the edge table."""
    b = hexagon_chain_patch(2, 1)
    with pytest.raises(StructureError,
                       match="^pinned edge 'nope' is no edge of the patch$"):
        LatticePatch(2, b.vertices, b.edges, b.faces, {"nope": 0})


def test_a_face_must_be_a_traced_face_of_the_patch():
    """A face is one internal face of the patch's structure, compared as a
    multiset of corners: two merged hexagons, a corner listed twice and an
    open loop are refused; reordered corners and any subset of the faces
    are not."""
    full = hexagon_chain_patch(3, 2)
    merged = [full.faces[0] + full.faces[1]]
    twice = [full.faces[0], full.faces[1] + full.faces[1][:1]]
    open_loop = [full.faces[0][:-1]]
    for faces in (merged, twice, open_loop):
        with pytest.raises(StructureError,
                           match=f"^face {len(faces) - 1} is no face of "
                                 "the patch$"):
            LatticePatch(3, full.vertices, full.edges, faces, full.pinned)
    for faces in ([full.faces[1][::-1]], full.faces[:1], []):
        LatticePatch(3, full.vertices, full.edges, faces, full.pinned)


def test_a_wall_at_another_prime_is_named():
    """A patch whose walls are at p = 2 built at p = 3 is refused by its
    structure's wall check, not by a face's group law."""
    b = hexagon_chain_patch(2, 1)
    with pytest.raises(StructureError,
                       match="wall modulus 2 != structure p=3"):
        LatticePatch(3, b.vertices, b.edges, b.faces, b.pinned)


def test_duplicate_edge_ids_are_refused():
    """An edge id used twice would merge two edges into one and drop the
    equations of the second, so the free chain would count 128 consistent
    states instead of 64."""
    doc = patch_to_json(hexagon_chain_patch(2, 1, pin=False))
    assert len(patch_from_json(doc).consistent_basis()) == 64
    for e in doc["edges"]:
        if e["id"] == "h0_w":
            e["id"] = "h0_nw"
    with pytest.raises(StructureError, match="duplicate edge ids"):
        patch_from_json(doc)


def _table_patches():
    for p in (2, 3, 5):
        for nf in (1, 2):
            yield hexagon_chain_patch(p, nf)
        yield defect_line_patch(p)


def test_face_tables_match_face_action():
    """The generator of each face, H_{f,1} read in the solved coordinates
    and applied to each state by digit arithmetic, is H_{f,1} as
    `face_action` computes it, and H_{f,g} from `face_action` is that table
    applied g times."""
    for patch in _table_patches():
        basis = patch.consistent_basis()
        qr = patch.ground_space
        gens = [loop_table(qr.raw_basis, loop, qr.field.N)
                for loop in qr._loops]
        assert len(gens) == len(patch.faces)
        for f, gen in enumerate(gens):
            assert len(gen) == len(basis)
            for i, state in enumerate(basis):
                j, k = i, 0
                for g in range(patch.p):
                    phase, new = patch.face_action(f, g, state)
                    assert j is not None and basis[j] == new
                    assert phase == patch.field.root_pow(k)
                    dk, j = gen[j]
                    k += dk


def test_ground_space_dim_matches_cyc_trace():
    patches = list(_table_patches())
    patches += [hexagon_chain_patch(p, 3) for p in (2, 3)]
    full = hexagon_chain_patch(3, 2)
    patches.append(LatticePatch(3, full.vertices, full.edges, full.faces[:1],
                                full.pinned))
    for patch in patches:
        assert patch.ground_space_dim() == cyc_trace_dim(patch)
    for p, nf in ((2, 2), (3, 1)):
        patch = hexagon_chain_patch(p, nf, pin=False)
        dim = patch.ground_space_dim()
        assert dim == cyc_trace_dim(patch) == dense_ground_dim(patch)
        assert dim == p ** (2 * nf + 3)


def test_pinned_chain_p5_n5_has_one_ground_state():
    """3125 consistent states and 5 faces: the orbit count, where a sum over
    the 5^5 group elements would cost minutes."""
    patch = hexagon_chain_patch(5, 5)
    assert len(patch.consistent_basis()) == 5 ** 5
    assert patch.ground_space_dim() == 1


def _loop_phase(monkeypatch, extra):
    """Add extra(vertex, local vector, args) to the exponent of every vertex
    action, multiplying its phase by zeta_N to that power."""
    orig = TrivalentRep.act

    def act(self, vec, args):
        e, new = orig(self, vec, args)
        return (e + extra(self, vec, args)) % self.N, new

    monkeypatch.setattr(TrivalentRep, "act", act)


def _args_of(patch, face, g, vid):
    """The args of the g-labeled loop in `face` at vertex `vid`."""
    (args,) = [a for _, v, a, _ in engine._bubble_args(
        patch.compound, patch.cavities[face], g) if v == vid]
    return dict(args)


def _swapped_images(monkeypatch, rep, args_once):
    """Swap the two entries of rep's image under args_once: no
    translation of the free labels."""
    orig = TrivalentRep.act

    def act(self, vec, args):
        e, new = orig(self, vec, args)
        if self is rep and args == args_once:
            new = (new[1], new[0])
        return e, new

    monkeypatch.setattr(TrivalentRep, "act", act)


def test_face_generators_that_do_not_commute_are_rejected(monkeypatch):
    """Two faces of a p = 2 chain share the vertices h0_ur and h0_lr. An
    extra phase i^(2 v_0) on face 1's loop at h0_ur, where face 0 moves
    v_0, makes H_{0,1} H_{1,1} = -H_{1,1} H_{0,1}; each face alone is
    still a strict Z/2 action. A sign there commutes, and the ground space
    stays one state. Swapped images, which could break commutation through
    the images alone, are no translation and are refused as such, at the
    first vertex with that rep and args: h0_ul, in face 0."""
    for extra, ok in ((lambda vec: 2 * vec[0], False), (lambda vec: 2, True)):
        with monkeypatch.context() as mp:
            engine._AFFINE.clear()
            patch = hexagon_chain_patch(2, 2)
            rep = patch.vertices["h0_ur"]
            once = _args_of(patch, 1, 1, "h0_ur")
            _loop_phase(mp, lambda r, vec, args:
                        extra(vec) if r is rep and args == once else 0)
            patch.assert_face_group_rep()
            assert patch.check_commutation()["ok"] is ok
            if ok:
                assert patch.ground_space_dim() == cyc_trace_dim(patch) == 1
            else:
                with pytest.raises(StructureError,
                                   match="face relabelings do not commute"):
                    patch.ground_space_dim()
    engine._AFFINE.clear()
    patch = hexagon_chain_patch(2, 2)
    _swapped_images(monkeypatch, patch.vertices["h0_ur"],
                    _args_of(patch, 1, 1, "h0_ur"))
    with pytest.raises(StructureError, match="^vertex h0_ul: action .* is not "
                                             "a translation"):
        patch.ground_space_dim()


def test_group_check_compares_phases(monkeypatch):
    """Relabelings that obey the group law, where H_{0,2} carries a phase
    other than H_{0,1}^2's: zeta_3^(v_0) at vertex h0_t, which is 1 on the
    first basis state and not on the others. That is no strict group
    action."""
    patch = hexagon_chain_patch(3, 1)
    rep = patch.vertices["h0_t"]
    at_t = patch.vertex_order().index("h0_t")
    assert {state[at_t][0] for state in patch.consistent_basis()} == {0, 1, 2}
    twice = _args_of(patch, 0, 2, "h0_t")
    _loop_phase(monkeypatch, lambda r, vec, args:
                vec[0] if r is rep and args == twice else 0)
    with pytest.raises(StructureError, match="strict group action"):
        patch.assert_face_group_rep()
    with pytest.raises(StructureError, match="strict group action"):
        patch.ground_space_dim()


def test_group_check_compares_images(monkeypatch):
    """H_{0,2} that moves the local vector of vertex h0_t one step further
    than H_{0,1}^2 does is no strict group action, although H_{0,1} alone
    keeps the consistent basis."""
    patch = hexagon_chain_patch(3, 1)
    rep = patch.vertices["h0_t"]
    twice = _args_of(patch, 0, 2, "h0_t")
    orig = TrivalentRep.act

    def act(self, vec, args):
        e, new = orig(self, vec, args)
        if self is rep and args == twice:
            new = ((new[0] + 1) % self.p,) + new[1:]
        return e, new

    monkeypatch.setattr(TrivalentRep, "act", act)
    with pytest.raises(StructureError, match="strict group action"):
        patch.assert_face_group_rep()


def test_group_check_needs_the_pth_power_to_vanish(monkeypatch):
    """At p = 2, H_{0,1} with a constant phase i at vertex h0_t keeps the
    basis and H_{0,0} is the identity, but H_{0,1}^2 is -1. Images that
    H_{0,1}^2 does not send home, (v_0, v_1) -> (v_1, v_0 + v_1) at h0_t,
    a 3-cycle of the nonzero local vectors, are no translation and are
    refused as such."""
    patch = hexagon_chain_patch(2, 2)
    rep = patch.vertices["h0_t"]
    once = _args_of(patch, 0, 1, "h0_t")
    with monkeypatch.context() as mp:
        _loop_phase(mp, lambda r, vec, args:
                    1 if r is rep and args == once else 0)
        with pytest.raises(StructureError, match="face 0 does not carry"):
            patch.assert_face_group_rep()
    engine._AFFINE.clear()
    patch = hexagon_chain_patch(2, 2)
    rep = patch.vertices["h0_t"]
    orig = TrivalentRep.act

    def act(self, vec, args):
        e, new = orig(self, vec, args)
        if self is rep and args == once:
            new = (new[1], (new[0] + new[1]) % 2)
        return e, new

    monkeypatch.setattr(TrivalentRep, "act", act)
    with pytest.raises(StructureError, match="^vertex h0_t: action .* is not "
                                             "a translation"):
        patch.assert_face_group_rep()


def test_phase_defects_that_cancel_between_vertices_pass(monkeypatch):
    """H_{0,2} gains zeta_3 at vertex h0_t and zeta_3^-1 at h0_b on every
    local vector: each vertex alone breaks H_{0,2} = H_{0,1}^2, but the
    product over the face does not, and the ground space is unchanged.
    With zeta_3 at both vertices the defects add up and are refused. The
    engine keeps each vertex action's form per rep key and args, so each
    branch starts from empty tables and fresh reps, and the phase is keyed
    the same way."""
    patch = hexagon_chain_patch(3, 1)
    want = patch.ground_space_dim()
    for shift_b, ok in ((-1, True), (1, False)):
        engine._SYMBOLIC.clear()
        engine._AFFINE.clear()
        patch = hexagon_chain_patch(3, 1)
        t, b = patch.vertices["h0_t"], patch.vertices["h0_b"]
        at_t = t.key, _args_of(patch, 0, 2, "h0_t")
        at_b = b.key, _args_of(patch, 0, 2, "h0_b")
        with monkeypatch.context() as mp:
            _loop_phase(mp, lambda r, vec, args:
                        1 if (r.key, args) == at_t
                        else shift_b if (r.key, args) == at_b else 0)
            if ok:
                patch.assert_face_group_rep()
                assert patch.ground_space_dim() == cyc_trace_dim(patch) == want
            else:
                with pytest.raises(StructureError,
                                   match="strict group action"):
                    patch.assert_face_group_rep()


def test_consistent_basis_matches_brute_force():
    patches = [hexagon_chain_patch(p, nf) for p in (2, 3) for nf in (1, 2)]
    patches += [defect_line_patch(p) for p in (2, 3, 5)]
    patches += [hexagon_chain_patch(p, nf, pin=False)
                for p, nf in ((2, 1), (2, 2), (3, 1))]
    patches.append(hexagon_chain_patch(5, 3))
    for patch in patches:
        want = brute_force_basis(patch)
        assert want
        assert patch.consistent_basis() == want


def _extra_phase(monkeypatch, extra):
    """Add extra(vec, args) to the exponent of every nontrivial vertex
    action, multiplying its phase by zeta_N to that power."""
    orig = TrivalentRep.act

    def act(self, vec, args):
        e, new = orig(self, vec, args)
        if any(args.values()):
            e = (e + extra(vec, args)) % self.N
        return e, new

    monkeypatch.setattr(TrivalentRep, "act", act)


def test_state_dependent_phase_is_rejected(monkeypatch):
    _extra_phase(monkeypatch, lambda vec, args: vec[0])
    patch = hexagon_chain_patch(2, 2)
    with pytest.raises(StructureError, match="state-dependent commutator"):
        patch.check_commutation()
    patch = hexagon_chain_patch(3, 2)
    assert not patch.check_commutation()["ok"]
    with pytest.raises(StructureError, match="strict group action"):
        patch.assert_face_group_rep()
    with pytest.raises(StructureError, match="strict group action"):
        patch.ground_space_dim()


def test_face_leaving_the_consistent_basis_is_rejected(monkeypatch):
    orig = TrivalentRep.act

    def act(self, vec, args):
        e, new = orig(self, vec, args)
        if self.direction == "tri21" and args.get("mid"):
            new = ((new[0] + 1) % self.p,) + new[1:]
        return e, new

    monkeypatch.setattr(TrivalentRep, "act", act)
    with pytest.raises(StructureError, match="left the consistent subspace"):
        hexagon_chain_patch(3, 1).assert_face_group_rep()


def test_character_twisted_faces_keep_the_trace_exact(monkeypatch):
    """An extra phase zeta_3^g at each "mid" corner of a g-labeled loop
    twists every face's Z/3 action by a character: the group law and the
    commutators still hold, but the trace now sums phases other than 1 over
    fixed states, and the table trace must still agree with both oracles."""
    untwisted = _f0_hexagon(3)
    assert untwisted.ground_space_dim() == dense_ground_dim(untwisted) == 1
    engine._AFFINE.clear()  # it holds the plain F_0 actions now
    _extra_phase(monkeypatch, lambda vec, args: abs(args.get("mid", 0)))
    for patch in (hexagon_chain_patch(3, 1), hexagon_chain_patch(3, 2),
                  defect_line_patch(3), _f0_hexagon(3)):
        assert patch.check_commutation()["ok"]
        dim = patch.ground_space_dim()
        assert dim == cyc_trace_dim(patch) == dense_ground_dim(patch)
    # the one F_0 state is fixed by every loop, now with phase zeta_3^(2g)
    assert _f0_hexagon(3).ground_space_dim() == 0


def _f0_hexagon(p, corner=1):
    """One free hexagon with every edge on F_0: a single consistent state,
    fixed by every face action."""
    f0 = BimoduleLabel("F", 0, p)
    base = hexagon_chain_patch(p, 1, pin=False)
    vertices = {vid: TrivalentRep(rep.direction, f0, f0, corner=corner)
                for vid, rep in base.vertices.items()}
    edges = [PatchEdge(e.eid, f0, e.ends) for e in base.edges]
    return LatticePatch(p, vertices, edges, base.faces)
