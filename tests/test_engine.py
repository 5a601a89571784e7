"""Engine checks: face tracing, the worked bubble computations, quotients."""

import itertools
import json
import random

import pytest

from annulus import structures
from annulus.defects import enumerate_defects, parse_defect, trivial_defect
from annulus.engine import (
    QuotientRep, SizeLimitError, apply_idempotent, boundary_action,
    bubble_action, decompose, edge_labels_of, enumerate_basis,
)
from annulus.levinwen import defect_line_patch, hexagon_chain_patch
from annulus.reps import BivalentRep
from annulus.scalars import CycField, mod_inverse
from annulus.structures import (
    BUBBLE_SIGN, TEMPLATE_CCW, CompoundDefect, Edge, DomainWallStructure,
    StructureError, associator_compound, compound_from_json,
    compound_to_json, horizontal_compound, vertical_compound,
)
from annulus.walls import all_walls, wall
from matrix_quotient import cavity_symmetrizer
from state_walk import WalkedQuotient


def _corners(face):
    return set(face)


def test_vertical_faces():
    d1 = parse_defect("RFr(x=1;r=2)", 5)
    d2 = parse_defect("FrR(z=0;r=2)", 5)
    cd = vertical_compound(d1, d2)
    s = cd.structure
    assert _corners(s.left_face) == {("v1", "left"), ("v2", "left")}
    assert _corners(s.right_face) == {("v1", "right"), ("v2", "right")}
    assert s.cavities == []


def test_diamond_faces():
    d1 = parse_defect("FqR(x=0;q=1)", 3)
    d2 = parse_defect("LL(a=0,x=0)", 3)
    cd = horizontal_compound(d1, d2, {"top": 0})
    s = cd.structure
    assert _corners(s.left_face) == {("vb", "left"), ("d1", "left"), ("vt", "left")}
    assert _corners(s.right_face) == {("vb", "right"), ("d2", "right"), ("vt", "right")}
    assert len(s.cavities) == 1
    assert _corners(s.cavities[0]) == {
        ("vb", "mid"), ("d1", "right"), ("d2", "left"), ("vt", "mid")}


def test_associator_faces():
    cd = associator_compound(wall(3, "F", 1), wall(3, "L"), wall(3, "X", 1))
    s = cd.structure
    assert _corners(s.left_face) == {("v1", "left"), ("v3", "left"), ("v4", "left")}
    assert _corners(s.right_face) == {("v1", "right"), ("v2", "right"), ("v4", "right")}
    cavs = [set(c) for c in s.cavities]
    assert {("v1", "mid"), ("v2", "left"), ("v3", "mid")} in cavs
    assert {("v2", "mid"), ("v3", "right"), ("v4", "mid")} in cavs


def _euler_characteristic(s):
    """V - E + F of a structure's traced faces, the outside counted as one
    vertex when there are stubs."""
    return (len(s.vertices) + bool(s.external) - len(s.edges)
            + len(structures._trace_faces(s.vertices, s.shape.slot_eid,
                                          s.edges, s.external)))


def _template_structures(p):
    walls = all_walls(p)
    for m, n, pw in itertools.product(walls, repeat=3):
        corners = dict.fromkeys(associator_compound(m, n, pw).corner_names, 0)
        yield associator_compound(m, n, pw, corners).structure
        yield vertical_compound(enumerate_defects(m, n)[0],
                                enumerate_defects(n, pw)[0]).structure
    for a, b, c, d in itertools.product(walls, repeat=4):
        d1, d2 = enumerate_defects(a, b)[0], enumerate_defects(c, d)[0]
        corners = dict.fromkeys(horizontal_compound(d1, d2).corner_names, 0)
        yield horizontal_compound(d1, d2, corners).structure


def _patch_structure(patch):
    """A lattice patch read as a structure, its dangling edges the stubs.
    `external` lists the stubs in the reverse of the order a walk around the
    outer boundary meets them, turning to the next slot counterclockwise at
    each vertex, as a face walk does."""
    templates = {vid: rep.direction for vid, rep in patch.vertices.items()}
    first = next(e for e in patch.edges if None in e.ends)
    (vid, slot), order, e = next(filter(None, first.ends)), [], None
    while e is not first:
        ccw = TEMPLATE_CCW[templates[vid]]
        slot = ccw[(ccw.index(slot) + 1) % len(ccw)]
        e = patch.compound.structure._edge_at(vid, slot)
        far = e.ends[1] if e.ends[0] == (vid, slot) else e.ends[0]
        if far is None:
            order.append(e.eid)  # out to the boundary and back
        else:
            vid, slot = far
    return DomainWallStructure(patch.p, templates, patch.edges, order[::-1])


def test_traced_faces_satisfy_eulers_formula():
    """V - E + F = 2 on the sphere: for every p = 2, 3 template structure,
    for hexagon chains and the defect line read as structures, and for a
    self-loop, whose two sides are two faces."""
    for p in (2, 3):
        for s in _template_structures(p):
            assert _euler_characteristic(s) == 2
        for patch in [defect_line_patch(p)] + [
                hexagon_chain_patch(p, n) for n in (1, 2, 4)]:
            s = _patch_structure(patch)
            assert len(s.cavities) == len(patch.faces)
            assert _euler_characteristic(s) == 2
    d = parse_defect("TT(a=0,b=0)", 3)
    loop = [Edge("loop", d.lower, (("v", "lower"), ("v", "upper")))]
    s = DomainWallStructure(3, {"v": "bivalent"}, loop, [])
    assert s.cavities == [[("v", "right")], [("v", "left")]]
    assert _euler_characteristic(s) == 2


def test_wall_mismatch_rejected():
    d1 = parse_defect("RFr(x=1;r=2)", 5)
    d2 = parse_defect("FrR(z=0;r=1)", 5)  # middle wall F_1 != F_2
    with pytest.raises(StructureError, match="wall mismatch"):
        vertical_compound(d1, d2)


def test_basis_counts():
    p = 3
    # vertical R F_r / F_r R: middle F edge forced, p^2 vectors, all grades 1-dim
    cd = vertical_compound(parse_defect("RFr(x=1;r=1)", p),
                           parse_defect("FrR(z=2;r=1)", p))
    basis = enumerate_basis(cd)
    assert len(basis) == p * p
    qr = QuotientRep(cd)
    assert set(qr.grade_dims().values()) == {1}
    # trivial TT defect alone: p^2 vectors
    cd = vertical_compound(parse_defect("TT(a=0,b=0)", p),
                           parse_defect("TT(a=0,b=0)", p))
    assert len(enumerate_basis(cd)) == p * p
    # diamond of the first horizontal example: p^3 before the quotient
    cd = horizontal_compound(parse_defect("FqR(x=1;q=1)", p),
                             parse_defect("LL(a=0,x=1)", p), {"top": 0})
    assert len(enumerate_basis(cd)) == p ** 3


def test_single_vertex_structure():
    # one 2-valent vertex carrying TT(0,0): p^2 vectors, one per (m,n)
    p = 3
    d = parse_defect("TT(a=0,b=0)", p)
    edges = [
        Edge("bottom", d.lower, (None, ("v", "lower"))),
        Edge("top", d.upper, (("v", "upper"), None)),
    ]
    s = DomainWallStructure(p, {"v": "bivalent"}, edges, ["bottom", "top"])
    from annulus.reps import BivalentRep
    from annulus.structures import CompoundDefect

    cd = CompoundDefect(s, {"v": BivalentRep(d)})
    assert len(enumerate_basis(cd)) == p * p
    assert decompose(QuotientRep(cd)) == [(d, 1)]


def test_boundary_action_composes_on_vertical():
    p = 5
    F = CycField(p)
    cd = vertical_compound(parse_defect("RFr(x=2;r=3)", p),
                           parse_defect("FrR(z=1;r=3)", p))
    basis = enumerate_basis(cd)
    rng = random.Random(4)
    for _ in range(40):
        vec = basis[rng.randrange(len(basis))]
        g, h, g2, h2 = (rng.randrange(p) for _ in range(4))
        p1, v1 = boundary_action(cd, vec, g, h, F)
        p2, v2 = boundary_action(cd, v1, g2, h2, F)
        ps, vs = boundary_action(cd, vec, g + g2, h + h2, F)
        # external walls are R/R: no F_q walls outside, so strict additivity
        assert v2 == vs and p1 * p2 == ps


def test_diamond_boundary_action_composes():
    """Pure-left and mixed boundary strings on the diamond compose strictly
    (external walls are T/T here, no center-associator phases outside)."""
    p = 3
    F = CycField(p)
    cd = horizontal_compound(parse_defect("FqR(x=1;q=2)", p),
                             parse_defect("LL(a=1,x=2)", p), {"top": 2})
    basis = enumerate_basis(cd)
    for vec in basis[:9]:
        for g in range(p):
            for g2 in range(p):
                p1, v1 = boundary_action(cd, vec, g, 0, F)
                p2, v2 = boundary_action(cd, v1, g2, 0, F)
                ps, vs = boundary_action(cd, vec, g + g2, 0, F)
                assert v2 == vs and p1 * p2 == ps
        p1, v1 = boundary_action(cd, vec, 1, 2, F)
        p2, v2 = boundary_action(cd, v1, 2, 2, F)
        ps, vs = boundary_action(cd, vec, 3, 4, F)
        assert v2 == vs and p1 * p2 == ps


def test_bubble_fqr_ll_phase():
    """g bubble on the F_qR x LL diamond: pure phase, no relabeling.

    The worked derivation gives w^(g(x+z-qt)) * w^(gqm) * w^(-g nu), i.e.
    exponent g(x+z-nu-q(t-m)), consistent with its conclusion
    t = q^{-1}(x+z-nu) + m and with the fusion outcome TT(q^{-1}(x+z-nu), c);
    the inline one-liner's -q(t+m) is a sign typo."""
    p, q, x, z, c, nu = 5, 2, 1, 3, 2, 4
    F = CycField(p)
    cd = horizontal_compound(parse_defect(f"FqR(x={x};q={q})", p),
                             parse_defect(f"LL(a={c},x={z})", p), {"top": nu})
    for vec in enumerate_basis(cd):
        (m, n), (t,), (_,), (_, _) = vec  # vb=(m,n), d1=(t,), d2=(n,), vt=(t,c+n)
        for g in range(p):
            phase, new = bubble_action(cd, 0, g, vec, F)
            assert new == vec
            assert phase == F.omega_pow(g * (x + z - nu - q * (t - m)))
            survives = (t - m) % p == mod_inverse(q, p) * (x + z - nu) % p
            if survives:
                assert phase == F.one


def test_bubble_xkxl_f0r_relabeling():
    """r bubble on the X_kX_l x F_0R diamond: no phase; m -> m+kr, s -> s+r,
    R label -> 0 when it began at r (the second worked bubble computation)."""
    p, k, l, z = 5, 1, 3, 2
    F = CycField(p)
    cd = horizontal_compound(parse_defect(f"XkXl(;k={k},l={l})", p),
                             parse_defect(f"F0R(x={z})", p))
    for vec in enumerate_basis(cd):
        (m6,), (m1, n1), (m2,), (m5, s5) = vec
        for r in range(p):
            phase, new = bubble_action(cd, 0, r, vec, F)
            assert phase == F.one
            (m6b,), (m1b, n1b), (m2b,), (m5b, s5b) = new
            assert m1b == (m1 + k * r) % p
            assert n1b == (n1 + r) % p
            assert m2b == (m2 - r) % p


def test_bubble_f0fr_tft_phase():
    """s bubble on the F_0F_r x TF_t diamond: phase w^(tsn + sr(alpha-m)),
    T label (s6,n) -> (s6-s, n) (the third worked bubble computation)."""
    p, r, t = 5, 2, 3
    F = CycField(p)
    cd = horizontal_compound(parse_defect(f"F0Fr(;r={r})", p),
                             parse_defect(f"TFr(;r={t})", p))
    for vec in enumerate_basis(cd):
        (s6, n6), (alpha,), (m2, n2), (m5,) = vec
        for s in range(p):
            phase, new = bubble_action(cd, 0, s, vec, F)
            assert phase == F.omega_pow(t * s * n6 + s * r * (alpha - m5))
            (s6b, n6b), (alphab,), (m2b, n2b), (m5b,) = new
            assert (s6b, n6b) == ((s6 - s) % p, n6)
            assert alphab == alpha and m5b == m5


def test_associator_bubble_phases():
    """[F_q, L, X_l]: bottom-cavity h bubble multiplies by w^(hq(m-t)); the
    top-cavity bubble only relabels."""
    p, q, l = 5, 2, 3
    F = CycField(p)
    cd = associator_compound(wall(p, "F", q), wall(p, "L"), wall(p, "X", l))
    cavs = [set(c) for c in cd.structure.cavities]
    bottom = cavs.index({("v1", "mid"), ("v2", "left"), ("v3", "mid")})
    top = 1 - bottom
    for vec in enumerate_basis(cd):
        (m, n), (s2, n2), (m3, n3), (m4, s4, n4) = vec
        for h in range(p):
            phase, new = bubble_action(cd, bottom, h, vec, F)
            assert new == vec
            assert phase == F.omega_pow(h * q * (m - m3))
        for u in range(p):
            phase, new = bubble_action(cd, top, u, vec, F)
            assert phase == F.one
            (_, _), (s2b, n2b), (m3b, n3b), (m4b, s4b, n4b) = new
            assert s2b == (s2 + u) % p and n2b == (n2 - u) % p


def test_symmetrizer_image_conditions():
    """Criterion-6 style checks: quotient dimensions and surviving labels of
    the worked diamonds match the known closed forms."""
    p = 3
    # F_qR(x) x LL(c,z): survivors have t = q^{-1}(x+z-nu) + m
    q, x, z, c, nu = 2, 1, 2, 1, 2
    cd = horizontal_compound(parse_defect(f"FqR(x={x};q={q})", p),
                             parse_defect(f"LL(a={c},x={z})", p), {"top": nu})
    qr = QuotientRep(cd)
    assert qr.total_dim() == p * p
    shift = mod_inverse(q, p) * (x + z - nu) % p
    for grade, dim in qr.grades.items():
        (m, n), (tt, _) = grade
        expected = 1 if tt == (shift + m) % p else 0
        assert dim == expected
    # X_kX_l x F_0R(z): image dimension p^2 of p^3
    cd = horizontal_compound(parse_defect("XkXl(;k=1,l=2)", p),
                             parse_defect("F0R(x=1)", p))
    qr = QuotientRep(cd)
    assert len(qr.raw_basis) == p ** 3 and qr.total_dim() == p * p
    # F_0F_r x TF_t: image dimension p^3 of p^4
    cd = horizontal_compound(parse_defect("F0Fr(;r=1)", p),
                             parse_defect("TFr(;r=2)", p))
    qr = QuotientRep(cd)
    assert len(qr.raw_basis) == p ** 4 and qr.total_dim() == p ** 3


def test_no_cavity_quotient_is_identity():
    p = 3
    cd = vertical_compound(parse_defect("RR(a=1,x=2)", p),
                           parse_defect("RR(a=0,x=1)", p))
    qr = QuotientRep(cd)
    assert qr.total_dim() == len(qr.raw_basis)


def test_apply_idempotent_mismatch_grade_rank0():
    p = 3
    cd = vertical_compound(parse_defect("RFr(x=0;r=1)", p),
                           parse_defect("FrR(z=0;r=1)", p))
    qr = QuotientRep(cd)
    # TT defects live on the wrong walls entirely; use an RR defect whose
    # source grade is present -- every RR(a, x) grade exists here, so instead
    # check the documented contract through a defect with absent grade:
    # grades are (m, n); all are present for RR, so craft the check via
    # multiplicity: only x+z-ra survives.
    d = parse_defect("RR(a=0,x=1)", p)  # x=1 != x+z-r*0=0
    mat = apply_idempotent(qr, d)
    assert mat.nrows and mat.rank() == 0


def test_vertical_identity_defects():
    """Fusing with the trivial defect on the wall leaves labels fixed."""
    for p in (2, 3):
        for w in all_walls(p):
            ident = trivial_defect(w)
            for other_upper in all_walls(p):
                from annulus.defects import enumerate_defects

                for d in enumerate_defects(w, other_upper):
                    got = decompose(QuotientRep(vertical_compound(ident, d)))
                    assert got == [(d, 1)], (w.name(), d.name())
                for d in enumerate_defects(other_upper, w):
                    got = decompose(QuotientRep(vertical_compound(d, ident)))
                    assert got == [(d, 1)], (w.name(), d.name())


def test_symmetrizers_commute_with_boundary():
    """Quotient grade dims are invariant under boundary relabeling, and the
    induced action solves exactly in the image basis (raises otherwise)."""
    p = 3
    F = CycField(p)
    cd = horizontal_compound(parse_defect("FqR(x=1;q=1)", p),
                             parse_defect("LL(a=2,x=0)", p), {"top": 1})
    qr = QuotientRep(cd)
    for grade in qr.grade_dims():
        for g in range(p):
            for h in range(p):
                target, entries = qr._orbit_map(grade, g, h)
                assert len(entries) == qr.grade_dim(grade)
                assert sorted(row for row, _ in entries) == list(
                    range(qr.grade_dim(target)))


def test_symmetrizers_fix_quotient_basis():
    """Every cavity symmetrizer fixes every orbit sum of the state walk
    exactly, and the walk has as many per grade as the quotient counts."""
    from annulus.scalars import CycField

    p = 3
    F = CycField(p)
    cd = associator_compound(wall(p, "R"), wall(p, "F", 2), wall(p, "R"),
                             {"mu0": 1, "nu1": 2})
    image = WalkedQuotient(cd).image()
    assert {grade: len(cols) for grade, cols in image.items()} == \
        QuotientRep(cd).grades
    syms = [cavity_symmetrizer(cd, cav, F)
            for cav in range(len(cd.structure.cavities))]
    for cols in image.values():
        for raw in cols:
            for sym in syms:
                out = {}
                for j, v in raw.items():
                    for i, s in sym.column(j).items():
                        cur = out.get(i, F.zero)
                        out[i] = cur + s * v
                out = {i: v for i, v in out.items() if v}
                assert out == raw


def test_quotient_boundary_matrices_between_grades():
    """Boundary generators permute the quotient grades and act invertibly."""
    p = 3
    cd = horizontal_compound(parse_defect("FqR(x=1;q=2)", p),
                             parse_defect("LL(a=1,x=0)", p), {"top": 0})
    qr = QuotientRep(cd)
    for grade in qr.grade_dims():
        (m, n), (t, u) = grade
        for g in range(p):
            for h in range(p):
                target, entries = qr._orbit_map(grade, g, h)
                assert target == (((m + g) % p, (n + h) % p),
                                  ((t + g) % p, (u + h) % p))
                # one orbit sum to each of the target's: a monomial matrix
                # of full rank
                assert qr.grade_dim(grade) == qr.grade_dim(target)
                assert sorted(row for row, _ in entries) == list(
                    range(qr.grade_dim(grade)))


def test_json_round_trip_and_decompose():
    p = 5
    cd = vertical_compound(parse_defect("RFr(x=1;r=2)", p),
                           parse_defect("FrR(z=3;r=2)", p))
    doc = compound_to_json(cd)
    cd2 = compound_from_json(doc)
    got = decompose(QuotientRep(cd2))
    want = {parse_defect(f"RR(a={a},x={(4 - 2 * a) % p})", p): 1 for a in range(p)}
    assert dict(got) == want
    # identity-defect structure document decomposes to itself
    ident = trivial_defect(wall(p, "X", 1))
    doc = compound_to_json(vertical_compound(ident, ident))
    got = decompose(QuotientRep(compound_from_json(doc)))
    assert got == [(ident, 1)]


def test_size_limit(monkeypatch):
    monkeypatch.setenv("ANNULUS_MAX_BASIS", "10")
    p = 5
    cd = horizontal_compound(parse_defect("FqR(x=1;q=1)", p),
                             parse_defect("LL(a=0,x=0)", p), {"top": 0})
    with pytest.raises(SizeLimitError,
                       match="compound basis exceeds ANNULUS_MAX_BASIS=10"):
        enumerate_basis(cd)


def test_cavity_symmetrizer_public_contract():
    from annulus.scalars import CycField

    p = 3
    F = CycField(p)
    cd = horizontal_compound(parse_defect("XkXl(;k=1,l=2)", p),
                             parse_defect("F0R(x=1)", p))
    proj = cavity_symmetrizer(cd, 0, F)
    assert (proj @ proj) == proj
    assert proj.rank() == p * p


def test_distinct_cavity_symmetrizers_commute():
    from annulus.scalars import CycField

    p = 3
    F = CycField(p)
    cd = associator_compound(wall(p, "T"), wall(p, "T"), wall(p, "T"),
                             {"mu0": 1, "mu1": 0, "nu0": 1, "nu1": 2})
    s0 = cavity_symmetrizer(cd, 0, F)
    s1 = cavity_symmetrizer(cd, 1, F)
    assert (s0 @ s1) == (s1 @ s0)


def test_non_two_string_boundary_returns_quotient_untouched():
    from annulus.reps import TrivalentRep

    p = 2
    x1 = wall(p, "X", 1)
    rep = TrivalentRep("tri21", x1, x1)
    edges = [
        Edge("e1", x1, (None, ("v", "bl"))),
        Edge("e2", x1, (None, ("v", "br"))),
        Edge("e3", x1, (("v", "top"), None)),
    ]
    s = DomainWallStructure(p, {"v": "tri21"}, edges, ["e1", "e2", "e3"])
    from annulus.structures import CompoundDefect

    qr = QuotientRep(CompoundDefect(s, {"v": rep}))
    assert decompose(qr) is qr
    assert qr.total_dim() == p * p


def test_bad_cavity_declaration_rejected():
    p = 3
    d1 = parse_defect("XkXl(;k=1,l=2)", p)
    d2 = parse_defect("F0R(x=1)", p)
    cd = horizontal_compound(d1, d2)
    doc = compound_to_json(cd)
    doc["cavities"] = [[["vb", "left"], ["vt", "mid"]]]
    with pytest.raises(StructureError, match="cavities"):
        compound_from_json(doc)


def test_a_cavity_listing_a_corner_twice_is_refused():
    """A declared cavity is a multiset of corners: listing ("v4", "mid")
    twice in cavity 1 of the p = 3 [T,R,L] associator would add its bubble
    argument twice, and the quotient would read 0 instead of 9. Cavities
    compared as sets let it pass."""
    p = 3
    walls = [wall(p, "T"), wall(p, "R"), wall(p, "L")]
    corners = dict.fromkeys(associator_compound(*walls).corner_names, 1)
    doc = compound_to_json(associator_compound(*walls, corners))
    assert QuotientRep(compound_from_json(doc)).total_dim() == 9
    assert ["v4", "mid"] in doc["cavities"][1]
    doc["cavities"][1].append(["v4", "mid"])
    with pytest.raises(StructureError, match="declared cavities"):
        compound_from_json(doc)
    # the same corners in another order are the same cavity
    doc["cavities"][1] = doc["cavities"][1][-2::-1]
    assert QuotientRep(compound_from_json(doc)).total_dim() == 9


def test_two_stub_structures_have_two_distinct_external_regions():
    """Every outer stub end lies in one traced face, so both external
    regions of a two-stub structure are found, non-empty and distinct."""
    for p in (2, 3):
        for s in _template_structures(p):
            assert len(s.external) == 2
            assert s.left_face and s.right_face
            assert s.left_face != s.right_face


def _assert_empty_quotient(qr):
    assert qr.raw_basis == []
    assert qr.grades == {} and qr.grade_dims() == {}
    assert qr.total_dim() == 0
    assert decompose(qr) == []
    for grade in ((0, 0), ((0, 0), (0, 0))):
        assert qr.grade_dim(grade) == 0
        assert qr._orbit_map(grade, 1, 0) == (grade, [])
        with pytest.raises(KeyError, match="no such grade"):
            qr.character(grade, 1, 0)
    d = enumerate_defects(*qr.cd.structure.external_walls())[0]
    mat = apply_idempotent(qr, d)
    assert (mat.nrows, mat.ncols) == (0, 0)


def test_inconsistent_assignment_gives_the_empty_quotient():
    """An associator corner assignment with no consistent labeling, built
    by the template and again from its structure document: the quotient
    ends at the solve, with an empty surface."""
    p = 3
    t, l = wall(p, "T"), wall(p, "L")
    assert associator_compound(t, l, t).corner_names == ("mu1", "nu1")
    cd = associator_compound(t, l, t, {"mu1": 0, "nu1": 1})
    _assert_empty_quotient(QuotientRep(cd))
    doc = compound_to_json(cd)
    assert "template" not in doc
    _assert_empty_quotient(QuotientRep(compound_from_json(doc)))
    # the consistent neighbour keeps its quotient
    assert QuotientRep(associator_compound(
        t, l, t, {"mu1": 1, "nu1": 1})).total_dim()


def test_inconsistent_structure_document_is_still_validated():
    """A document whose assignment has no consistent labeling is refused
    at construction when its cavities or its stubs are wrong, as before
    the quotient could stop at an empty solve."""
    p = 3
    t, l = wall(p, "T"), wall(p, "L")
    doc = compound_to_json(
        associator_compound(t, l, t, {"mu1": 0, "nu1": 1}))
    bad = json.loads(json.dumps(doc))
    bad["cavities"] = bad["cavities"][:1]
    with pytest.raises(StructureError, match="cavities"):
        compound_from_json(bad)
    bad = json.loads(json.dumps(doc))
    bad["external"] = bad["external"][:1]
    with pytest.raises(StructureError, match="stub edges"):
        compound_from_json(bad)


def _brute_force_basis(cd):
    """The product of the vertices' local bases, in product order, kept when
    every internal edge gets one label from both of its ends."""
    out = []
    local = [cd.reps[vid].basis() for vid in cd.vertex_order]
    for vec in itertools.product(*local):
        try:
            edge_labels_of(cd, vec)
        except StructureError:
            continue
        out.append(vec)
    return out


def _associators(p):
    for m, n, pw in itertools.product(all_walls(p), repeat=3):
        names = associator_compound(m, n, pw).corner_names
        for vals in itertools.product(range(p), repeat=len(names)):
            yield associator_compound(m, n, pw, dict(zip(names, vals)))


def _diamonds_p3():
    p = 3
    for q, x, z, c in itertools.product(range(1, p), range(p), range(p), range(p)):
        for nu in range(p):
            yield horizontal_compound(parse_defect(f"FqR(x={x};q={q})", p),
                                      parse_defect(f"LL(a={c},x={z})", p),
                                      {"top": nu})
    for k, l in ((1, 2), (2, 1)):
        for z in range(p):
            yield horizontal_compound(parse_defect(f"XkXl(;k={k},l={l})", p),
                                      parse_defect(f"F0R(x={z})", p))
    for r, t in itertools.product(range(1, p), repeat=2):
        yield horizontal_compound(parse_defect(f"F0Fr(;r={r})", p),
                                  parse_defect(f"TFr(;r={t})", p))


def _verticals_p3():
    """One structure per wall triple, with the first and the last defect."""
    p = 3
    for a, b, c in itertools.product(all_walls(p), repeat=3):
        yield vertical_compound(enumerate_defects(a, b)[0],
                                enumerate_defects(b, c)[-1])


def test_enumerate_basis_matches_brute_force():
    """The F_p solve and its column listing return exactly the consistent
    labelings of the plain product, in product order."""
    count = 0
    for structures in (_associators(2), _verticals_p3(), _diamonds_p3()):
        for cd in structures:
            assert enumerate_basis(cd) == _brute_force_basis(cd)
            count += 1
    assert count == 696 + 512 + 172


def test_enumerate_basis_self_loop_is_consistent():
    """A loop from a vertex back to itself keeps only the local vectors that
    give both of its slots the same label: all of TT(0,0), none of TT(1,0)."""
    p = 3
    for a, size in ((0, p * p), (1, 0)):
        d = parse_defect(f"TT(a={a},b=0)", p)
        edges = [Edge("loop", d.lower, (("v", "lower"), ("v", "upper")))]
        s = DomainWallStructure(p, {"v": "bivalent"}, edges, [])
        cd = CompoundDefect(s, {"v": BivalentRep(d)})
        basis = enumerate_basis(cd)
        assert basis == _brute_force_basis(cd)
        assert len(basis) == size


def _product_of_vertex_actions(cd, vec, corners_with_args, field):
    """The action of region arguments as the Cyc product of the phases of
    each vertex's own rep.act, with the arguments gathered from the corners
    directly."""
    args = {}
    for vid, region, value in corners_with_args:
        slot_args = args.setdefault(vid, {})
        slot_args[region] = slot_args.get(region, 0) + value
    phase = field.one
    out = []
    for vid, vvec in zip(cd.vertex_order, vec):
        if vid in args:
            e, vvec = cd.reps[vid].act(vvec, args[vid])
            phase = phase * field.root_pow(e)
        out.append(vvec)
    return phase, tuple(out)


def _phase_structures():
    yield associator_compound(wall(3, "F", 1), wall(3, "L"), wall(3, "X", 1))
    for p in (2, 3, 5):
        yield horizontal_compound(parse_defect("FqR(x=1;q=1)", p),
                                  parse_defect(f"LL(a=1,x={p - 1})", p),
                                  {"top": 1})
        if p > 2:  # X_k X_l needs k != l
            yield horizontal_compound(parse_defect("XkXl(;k=1,l=2)", p),
                                      parse_defect("F0R(x=1)", p))
        yield horizontal_compound(parse_defect("F0Fr(;r=1)", p),
                                  parse_defect(f"TFr(;r={p - 1})", p))


def test_exponent_phases_match_cyc_products():
    """bubble_action and boundary_action, which carry phases as exponents of
    zeta_N, agree with the Cyc product of the vertices' own actions."""
    rng = random.Random(11)
    for cd in _phase_structures():
        p = cd.p
        F = CycField(p)
        s = cd.structure
        basis = enumerate_basis(cd)
        assert basis
        for vec in rng.sample(basis, min(12, len(basis))):
            for cav, corners in enumerate(s.cavities):
                for g in range(p):
                    args = [(vid, region,
                             BUBBLE_SIGN[(s.vertices[vid], region)] * g)
                            for vid, region in corners]
                    want = _product_of_vertex_actions(cd, vec, args, F)
                    assert bubble_action(cd, cav, g, vec, F) == want
            for g, h in itertools.product(range(2 * p), repeat=2):
                args = [(vid, region, g) for vid, region in s.left_face]
                args += [(vid, region, h) for vid, region in s.right_face]
                want = _product_of_vertex_actions(cd, vec, args, F)
                assert boundary_action(cd, vec, g, h, F) == want
