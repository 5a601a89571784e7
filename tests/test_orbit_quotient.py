"""The orbit quotient and the character decomposition against the matrix
reference in matrix_quotient.py, plus negative tests for the checks that
make the orbit count exact."""

import itertools
import re

import pytest
from hypothesis import given, settings, strategies as st

from annulus import engine
from annulus.defects import enumerate_defects, parse_defect
from annulus.engine import QuotientRep, apply_idempotent, decompose
from annulus.scalars import Cyc, CycField, cyc_field
from annulus.structures import (
    StructureError, horizontal_compound, vertical_compound,
)
from annulus.walls import all_walls
from matrix_quotient import MatrixQuotient, cavity_symmetrizer
from state_walk import WalkedQuotient
from test_engine import _associators


def _verticals_p3(count):
    """`count` vertical structures, cycling through the wall triples and
    through the defects of each pair."""
    p = 3
    triples = list(itertools.product(all_walls(p), repeat=3))
    for i in range(count):
        a, b, c = triples[(7 * i) % len(triples)]
        lows, ups = enumerate_defects(a, b), enumerate_defects(b, c)
        yield vertical_compound(lows[i % len(lows)], ups[(3 * i) % len(ups)])


def _criterion_2_p5():
    """The three criterion-2 families at p = 5, each with every corner."""
    p = 5
    for q, x, z, c in ((1, 0, 0, 0), (2, 1, 3, 2), (4, 4, 1, 3)):
        for nu in range(p):
            yield horizontal_compound(parse_defect(f"FqR(x={x};q={q})", p),
                                      parse_defect(f"LL(a={c},x={z})", p),
                                      {"top": nu})
    for k, l, z in ((1, 2, 0), (3, 1, 4)):
        yield horizontal_compound(parse_defect(f"XkXl(;k={k},l={l})", p),
                                  parse_defect(f"F0R(x={z})", p))
    for r, t in ((1, 4), (2, 3)):
        yield horizontal_compound(parse_defect(f"F0Fr(;r={r})", p),
                                  parse_defect(f"TFr(;r={t})", p))


def _agree_with_matrix_path(cd):
    qr = QuotientRep(cd)
    ref = MatrixQuotient(cd)
    assert qr.grade_dims() == ref.grade_dims()
    assert qr.grades == {g: len(ref.image[g]) for g in qr.grades}
    got = decompose(qr)
    assert got == ref.decompose()
    mult = dict(got)
    lower, upper = cd.structure.external_walls()
    for d in enumerate_defects(lower, upper):
        if qr.grade_dim(d.source_object()):
            # the idempotent's monomial matrix has the character as its rank
            assert apply_idempotent(qr, d).rank() == mult.get(d, 0)


def test_orbit_quotient_matches_matrix_path():
    count = 0
    structures = itertools.chain(
        _associators(2),
        itertools.islice(_associators(3), 0, None, 4),
        _verticals_p3(100),
        _criterion_2_p5())
    for cd in structures:
        _agree_with_matrix_path(cd)
        count += 1
    assert count == 696 + 704 + 100 + 15 + 2 + 2


def test_orbit_sums_are_fixed_by_the_matrix_symmetrizer():
    """Each orbit sum of the state walk is a sum of phases, the reference
    symmetrizer fixes it, and the walk has as many per grade as the
    quotient counts."""
    p = 3
    cd = horizontal_compound(parse_defect("XkXl(;k=1,l=2)", p),
                             parse_defect("F0R(x=1)", p))
    image = WalkedQuotient(cd).image()
    assert {grade: len(cols) for grade, cols in image.items()} == \
        QuotientRep(cd).grades
    field = cyc_field(p)
    roots = {field.root_pow(k) for k in range(field.N)}
    for grade, cols in image.items():
        for col in cols:
            assert len(col) == p and set(col.values()) <= roots
    sym = cavity_symmetrizer(cd, 0, field)
    for cols in image.values():
        for raw in cols:
            out = {}
            for j, v in raw.items():
                for i, s in sym.column(j).items():
                    out[i] = out.get(i, field.zero) + s * v
            assert {i: v for i, v in out.items() if v} == raw


def _extra_phase(monkeypatch, rep, extra):
    """Add extra(vec, args) to the exponent of rep.act, multiplying its
    phase by zeta_N to that power."""
    plain = rep.act

    def act(vec, args):
        e, new = plain(vec, args)
        return (e + extra(vec, args)) % rep.N, new

    monkeypatch.setattr(rep, "act", act, raising=False)


def test_state_dependent_bubble_phase_is_rejected(monkeypatch):
    """An extra phase zeta^t on every nonzero bubble at d1, where t is d1's
    label: Bub_u then carries t where Bub_1^u carries u*t."""
    p = 3
    cd = horizontal_compound(parse_defect("FqR(x=1;q=1)", p),
                             parse_defect("LL(a=1,x=2)", p), {"top": 1})
    _extra_phase(monkeypatch, cd.reps["d1"],
                 lambda vec, args: vec[0] if args.get("right") else 0)
    with pytest.raises(StructureError,
                       match="cavity symmetrizer is not idempotent"):
        QuotientRep(cd)


def test_boundary_phase_that_breaks_commutation_is_rejected(monkeypatch):
    """An extra phase zeta^m2 on the right boundary at d2, whose label m2
    the bubble shifts by -r: the F0R idempotent's generators (0, h) no
    longer commute with the bubble."""
    p = 3

    def structure():
        return horizontal_compound(parse_defect("XkXl(;k=1,l=2)", p),
                                   parse_defect("F0R(x=1)", p))

    assert decompose(QuotientRep(structure()))
    engine._AFFINE.clear()  # it holds d2's plain actions now
    cd = structure()
    _extra_phase(monkeypatch, cd.reps["d2"],
                 lambda vec, args: vec[0] if args.get("right") else 0)
    qr = QuotientRep(cd)
    with pytest.raises(StructureError,
                       match="does not preserve the bubble quotient"):
        decompose(qr)


def test_bubble_that_leaves_its_grade_is_rejected(monkeypatch):
    """The left boundary string in place of the bubble: a strict Z/3 action
    that stays in the basis but moves the external labels."""
    p = 3
    cd = horizontal_compound(parse_defect("FqR(x=1;q=2)", p),
                             parse_defect("LL(a=1,x=2)", p), {"top": 2})
    assert QuotientRep(cd).total_dim()
    boundary = engine._boundary_args
    monkeypatch.setattr(engine, "_bubble_args",
                        lambda cd, cavity, g: boundary(cd, g, 0))
    with pytest.raises(StructureError, match="bubble action left the external"):
        QuotientRep(cd)


def _perturb_phase_terms(monkeypatch, plain, change):
    """Replace every defect's phase terms (j, e, g, h), as `plain` gives
    them, by change(term), a list of terms."""

    def perturbed(d):
        terms = plain(d)
        assert any((g, h) == (0, 0) for _, _, g, h in terms)
        return tuple(t for term in terms for t in change(term))

    monkeypatch.setattr(engine, "phase_terms", perturbed)


def test_perturbed_idempotent_gives_no_multiplicity(monkeypatch):
    """The identity term's coefficient times zeta (e + 1: an irrational
    trace) or times 1/p (j + 1: a fraction), or every coefficient times
    zeta + zeta^2 = -1 (a negative integer): decompose refuses each, naming
    the trace. At p = 3 the first candidate tried, RR(a=0,x=0), has
    multiplicity 0 and the (0,0) character 1, so a change of the identity
    term alone cannot give an integer; the negation reaches RR(a=0,x=1),
    of multiplicity 1."""
    p = 3
    cd = vertical_compound(parse_defect("RFr(x=1;r=2)", p),
                           parse_defect("FrR(z=0;r=2)", p))
    qr = QuotientRep(cd)
    assert decompose(qr)

    def identity_term(change):
        return lambda t: [change(*t) if t[2:] == (0, 0) else t]

    cases = {
        "(-1 + w)/3": identity_term(lambda j, e, g, h: (j, e + 1, g, h)),
        "-2/9": identity_term(lambda j, e, g, h: (j + 1, e, g, h)),
        "-1": lambda t: [(t[0], t[1] + 1, *t[2:]), (t[0], t[1] + 2, *t[2:])],
    }
    plain = engine.phase_terms
    for trace, change in cases.items():
        _perturb_phase_terms(monkeypatch, plain, change)
        with pytest.raises(StructureError, match=re.escape(
                f"trace of the idempotent is {trace}, not a multiplicity")):
            decompose(QuotientRep(cd))


def test_decompose_makes_no_field_element_for_a_multiplicity(monkeypatch):
    """Once the reps' action memos are warm, decompose adds and multiplies
    no Cyc, and makes no field element: the trace of each candidate defect
    whose source grade is nonzero is read as an integer
    (`engine.rational_trace`) from one integer per exponent in Z/N, each of
    its terms adding its one-exponent character (`QuotientRep.character`).
    The candidates are read from the engine's table of them, which the
    warming call filled."""

    def refuse(*args):
        raise AssertionError("Cyc arithmetic in decompose")

    structures = itertools.chain(
        itertools.islice(_associators(3), 0, None, 50),
        _verticals_p3(10), _criterion_2_p5())
    plain = CycField.root_sum
    tried_total = 0
    for cd in structures:
        decompose(QuotientRep(cd))  # warms the reps' action memos
        qr = QuotientRep(cd)
        walls = cd.structure.external_walls()
        tried = sum(1 for _, grade in engine._CANDIDATES[walls]
                    if qr.grade_dim(grade)) if qr.total_dim() else 0
        sums = []
        with monkeypatch.context() as m:
            m.setattr(CycField, "root_sum",
                      lambda self, counts, den=1:
                      sums.append(den) or plain(self, counts, den))
            for name in ("__add__", "__mul__", "__rmul__", "sub_mul"):
                m.setattr(Cyc, name, refuse)
            decompose(qr)
        assert sums == []
        tried_total += tried
    assert tried_total == 138


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
@settings(max_examples=60, derandomize=True, deadline=None)
@given(data=st.data())
def test_rational_trace_equals_the_field_element(p, data):
    """`engine.rational_trace` reads sum_k hist[k] zeta_N^k as an integer
    exactly when the field element is rational, and to the same value.
    Half the draws are made rational by hand (hist[1] = ... = hist[p-1],
    or hist[1] = hist[3] at p = 2), which a uniform draw would almost
    never give."""
    field = cyc_field(p)
    hist = data.draw(st.lists(st.integers(-40, 40), min_size=field.N,
                              max_size=field.N))
    if data.draw(st.booleans()):
        if p == 2:
            hist[3] = hist[1]
        else:
            hist[2:] = [hist[1]] * (p - 2)
    want = field.root_sum(hist).as_rational()
    assert engine.rational_trace(hist, p) == want
    if want is not None:
        assert want.denominator == 1
