import itertools

import pytest

from annulus.defects import (
    DefectLabel, enumerate_defects, idempotent, parse_annotated_defect,
    parse_defect, phase_terms, trivial_defect,
)
from annulus.linalg import ExactMatrix
from annulus.reps import BivalentRep, composition_phase_bivalent
from annulus.scalars import CycField
from annulus.walls import STAR, all_walls, wall


def _pairs(p):
    return [(a, b) for a in all_walls(p) for b in all_walls(p)]


def test_enumeration_counts():
    p = 3
    assert len(enumerate_defects(wall(p, "R"), wall(p, "R"))) == p * p
    assert len(enumerate_defects(wall(p, "X", 1), wall(p, "X", 2))) == 1
    assert len(enumerate_defects(wall(p, "T"), wall(p, "F", 0))) == 1
    assert len(enumerate_defects(wall(p, "T"), wall(p, "T"))) == p * p
    assert len(enumerate_defects(wall(p, "F", 1), wall(p, "X", 2))) == p


def test_name_round_trip():
    for p in (2, 3, 5):
        for lo, up in _pairs(p):
            for d in enumerate_defects(lo, up):
                assert parse_defect(d.name(), p) == d


def test_parse_forms():
    d = parse_defect("RFr(x=1;r=2)", 5)
    assert d.lower == wall(5, "R") and d.upper == wall(5, "F", 2)
    assert d.params == (1,)
    assert parse_defect("RR(a=1,x=2)", 5) == parse_defect("RR(1,2)", 5)
    # single-parameter families accept any letter
    assert parse_defect("FrR(z=3;r=2)", 5) == parse_defect("FqR(x=3;q=2)", 5)
    label, corners = parse_annotated_defect("TT(0,0)[mu0=1,nu0=0]", 3)
    assert label == DefectLabel(wall(3, "T"), wall(3, "T"), (0, 0))
    assert corners == {"mu0": 1, "nu0": 0}
    with pytest.raises(ValueError):
        parse_defect("XkXl(;k=1,l=1)", 3)
    with pytest.raises(ValueError):
        parse_defect("RR(a=1)", 3)
    with pytest.raises(ValueError):
        parse_defect("QQ(1)", 3)


def test_source_objects():
    assert parse_defect("TT(a=1,b=2)", 3).source_object() == ((0, 0), (1, 2))
    assert parse_defect("RFr(x=1;r=2)", 3).source_object() == (0, STAR)
    assert parse_defect("F0F0(x=1,y=2)", 3).source_object() == (STAR, STAR)
    assert parse_defect("LT(a=2)", 3).source_object() == (0, (0, 2))


def _formal_compose(field, lower, upper, expr):
    """expr o expr in the annular category, as a {(g,h): coeff} dict."""
    out = {}
    for c1, (g1, h1) in expr.terms:
        for c2, (g2, h2) in expr.terms:
            # (g1,h1) first, then (g2,h2)
            phase = composition_phase_bivalent(lower, upper, (g1, h1), (g2, h2), field)
            key = ((g1 + g2) % field.p, (h1 + h2) % field.p)
            val = c1 * c2 * phase
            out[key] = out.get(key, field.zero) + val
    return {k: v for k, v in out.items() if v}


def test_idempotent_term_structure():
    p = 3
    field = CycField(p)
    expr = idempotent(parse_defect("TT(a=1,b=2)", p), field)
    assert expr.source == ((0, 0), (1, 2))
    assert expr.terms == ((field.one, (0, 0)),)
    expr = idempotent(parse_defect("RFr(x=1;r=2)", p), field)
    assert expr.source == (0, STAR)
    assert dict((gh, c) for c, gh in expr.terms) == {
        (0, (-k) % p): field.inv_p * field.omega_pow(k) for k in range(p)}
    expr = idempotent(parse_defect("F0F0(x=1,y=2)", p), field)
    assert len(expr.terms) == p * p
    coeffs = {gh: c for c, gh in expr.terms}
    for g in range(p):
        for h in range(p):
            want = field.inv_p * field.inv_p * field.omega_pow(g + 2 * h)
            assert coeffs[(g, (-h) % p)] == want


def test_phase_terms_are_the_idempotent_terms():
    """Term by term, for every defect of every wall pair at p = 2, 3, 5 and
    7: the phase term (j, e, g, h) is the Cyc term (p^-j zeta_N^e, (g, h)),
    with e in Z/N and g, h in Z/p."""
    count = 0
    for p in (2, 3, 5, 7):
        field = CycField(p)
        for lo, up in _pairs(p):
            for d in enumerate_defects(lo, up):
                terms = phase_terms(d)
                expr = idempotent(d, field)
                assert len(terms) == len(expr.terms)
                for (j, e, g, h), (coeff, gh) in zip(terms, expr.terms):
                    assert 0 <= e < field.N and 0 <= g < p and 0 <= h < p
                    want = field.root_pow(e)
                    for _ in range(j):
                        want = want * field.inv_p
                    assert (coeff, gh) == (want, (g, h))
                count += len(terms)
    assert count == 31934


def test_idempotent_formal_composition():
    """Composing each idempotent expression with itself (generator composition
    g+g', h+h' with the category phase) reproduces it exactly."""
    for p in (2, 3, 5):
        field = CycField(p)
        for lo, up in _pairs(p):
            for d in enumerate_defects(lo, up):
                expr = idempotent(d, field)
                original = {}
                for c, gh in expr.terms:
                    original[gh] = original.get(gh, field.zero) + c
                composed = _formal_compose(field, lo, up, expr)
                assert composed == {k: v for k, v in original.items() if v}, d.name()


def _idem_matrix_on(field, applied, rep_defect):
    """Matrix of `applied`'s idempotent on rep_defect's basis at the source."""
    rep = BivalentRep(rep_defect)
    expr = idempotent(applied, field)
    block = [vec for vec in rep.basis()
             if (rep.edge_labels(vec)["lower"], rep.edge_labels(vec)["upper"])
             == expr.source]
    index = {vec: i for i, vec in enumerate(block)}
    mat = ExactMatrix(field, len(block), len(block))
    for coeff, (g, h) in expr.terms:
        for j, vec in enumerate(block):
            e, new = rep.act(vec, {"left": g, "right": h})
            mat.add_to(index[new], j, field.root_pow(e) * coeff)
    return mat


def test_idempotent_matrices_identity_and_orthogonality():
    """On its own irrep an idempotent acts as the identity of the copy it
    labels: the identity matrix whenever the source grade is 1-dimensional
    (all families except the three with an internal alpha index, where a
    primitive idempotent is the rank-1 projector picking that copy)."""
    for p in (2, 3):
        field = CycField(p)
        for lo, up in _pairs(p):
            defects = enumerate_defects(lo, up)
            for d in defects:
                own = _idem_matrix_on(field, d, d)
                if own.nrows == 1:
                    assert own == ExactMatrix.identity(field, 1), d.name()
                else:
                    assert (own @ own) == own and own.rank() == 1, d.name()
            for d1, d2 in itertools.permutations(defects, 2):
                if d1.source_object() != d2.source_object():
                    continue
                cross = _idem_matrix_on(field, d1, d2)
                assert cross.is_zero(), (d1.name(), d2.name())


def test_p2_rr_cross_application_pattern():
    """Exhaustive cross-application of all RR idempotents to all RR irreps at
    p=2: the rank pattern is diagonal."""
    p = 2
    field = CycField(p)
    defects = enumerate_defects(wall(p, "R"), wall(p, "R"))
    for d1 in defects:
        for d2 in defects:
            mat = _idem_matrix_on(field, d1, d2)
            rank = mat.rank() if mat.nrows else 0
            if d1 == d2:
                assert rank == 1
            elif d1.source_object() == d2.source_object():
                assert rank == 0


def test_trivial_defect():
    assert trivial_defect(wall(3, "X", 1)).name() == "XkXk(a=0,x=0;k=1)"
    assert trivial_defect(wall(3, "R")).params == (0, 0)
    assert trivial_defect(wall(3, "F", 0)).params == (0, 0)
