"""Corner sweeps: a driver call builds one compound whose corner values are
unknowns of its one basis solve, and reads every corner assignment off that
one quotient; each candidate defect's phase terms and grade dimensions are
built once per process. The results must equal those of fresh concrete
compounds built and decomposed per assignment, which this file keeps as the
oracle."""

import itertools
from collections import Counter

import pytest

from annulus import engine, fusion
from annulus.defects import DefectLabel, enumerate_defects, parse_defect
from annulus.engine import QuotientRep, decompose
from annulus.fusion import associator, horizontal_fuse
from annulus.reps import BIVALENT, TRI21, VARIABLE, TrivalentRep
from annulus.structures import (
    ASSOCIATOR_CORNERS, HORIZONTAL_CORNERS, StructureError,
    associator_compound, horizontal_compound,
)
from annulus.walls import BimoduleLabel, all_walls


def _outcome(fn, *args):
    try:
        return fn(*args)
    except StructureError as exc:
        return str(exc)


def _fresh(cd) -> tuple:
    out = decompose(QuotientRep(cd))
    return tuple(sorted((d.name(), mult) for d, mult in out))


def _fresh_associator(m, n, pw) -> tuple:
    names = associator_compound(m, n, pw).corner_names
    return tuple(
        (t, _fresh(associator_compound(m, n, pw, dict(zip(names, t)))))
        for t in itertools.product(range(m.p), repeat=len(names)))


def _fresh_horizontal(d1, d2) -> tuple:
    names = horizontal_compound(d1, d2).corner_names
    return tuple(
        (t, _fresh(horizontal_compound(d1, d2, dict(zip(names, t)))))
        for t in itertools.product(range(d1.p), repeat=len(names)))


@pytest.mark.parametrize("p,step", [(2, 1), (3, 1)])
def test_associator_sweep_matches_fresh_compounds(p, step):
    """Every p=2 cell and every p=3 cell."""
    cells = list(itertools.product(all_walls(p), repeat=3))[::step]
    for m, n, pw in cells:
        assert associator(m, n, pw).outcomes == _fresh_associator(m, n, pw), \
            (m.name(), n.name(), pw.name())


def test_the_quotient_at_each_corner_value_is_the_concrete_one():
    """One quotient with the corners as unknowns, read at each corner
    value, against the quotient of the compound built with those values:
    the same grades, dimensions and characters (or refusal) at every
    (g, h). Every p=3 cell with corners, at every corner value."""
    p = 3
    cells = [cell for cell in itertools.product(all_walls(p), repeat=3)
             if associator_compound(*cell).corner_names]
    compared = 0
    for cell in cells:
        names = associator_compound(*cell).corner_names
        qr = QuotientRep(associator_compound(*cell))
        for t in itertools.product(range(p), repeat=len(names)):
            concrete = QuotientRep(associator_compound(*cell,
                                                       dict(zip(names, t))))
            assert qr.grade_dims(t) == concrete.grade_dims(), (cell, t)
            assert qr.total_dim(t) == concrete.total_dim()
            assert (t in qr.support()) == bool(concrete.total_dim())
            for grade in concrete.grade_dims():
                for g, h in itertools.product(range(p), repeat=2):
                    assert _outcome(qr.character, grade, g, h, t) == \
                        _outcome(concrete.character, grade, g, h), \
                        (cell, t, grade)
                    compared += 1
    assert len(cells) == 144 and compared > 5000


def test_four_corner_p5_cells_match_fresh_compounds():
    """The 16 p=5 cells with four corners, 625 assignments each, of which
    the golden deltas leave 25 nonempty."""
    p = 5
    walls = [BimoduleLabel.parse(t, p) for t in ("T", "L", "R", "F0")]
    cells = [cell for cell in itertools.product(walls, repeat=3)
             if len(associator_compound(*cell).corner_names) == 4]
    assert len(cells) == 16
    for cell in cells:
        result = associator(*cell)
        assert result.outcomes == _fresh_associator(*cell), cell
        assert len(result.support()) == p * p


@pytest.mark.parametrize("p,params", [
    (3, list(itertools.product(range(3), range(1, 3), range(3), range(3)))),
    (5, [(x, q, c, z) for q in range(1, 5)
         for x, c, z in ((0, 0, 0), (q, 2 * q % 5, 4 - q), (4, q - 1, 3))]),
])
def test_horizontal_sweep_matches_fresh_compounds(p, params):
    """FqR x LL over every corner value: every p=3 pair, and p=5 pairs
    with each q."""
    for x, q, c, z in params:
        d1 = parse_defect(f"FqR(x={x};q={q})", p)
        d2 = parse_defect(f"LL(a={c},x={z})", p)
        result = horizontal_fuse(d1, d2)
        assert len(result.outcomes) == p
        assert result.outcomes == _fresh_horizontal(d1, d2), (d1, d2)


def _counting(monkeypatch, module, name, calls):
    plain = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return plain(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_sweep_shares_the_structure_and_the_corner_free_reps(monkeypatch):
    """A driver call builds one compound, whose corner-carrying vertices
    hold their corner as a variable, and solves it once; every corner
    assignment is read off that one quotient."""
    calls = Counter()
    for module, name in ((fusion, "associator_compound"),
                         (fusion, "horizontal_compound"),
                         (engine, "enumerate_basis")):
        _counting(monkeypatch, module, name, calls)
    p = 3
    m, n, pw = (BimoduleLabel.parse(t, p) for t in ("R", "Fq:2", "R"))
    assert associator_compound(m, n, pw).corner_names == ("mu0", "nu1")
    assert len(associator(m, n, pw).outcomes) == p * p
    assert calls == {"associator_compound": 1, "enumerate_basis": 1}
    cd = associator_compound(m, n, pw)
    assert cd.reps["v1"].corner is VARIABLE
    assert cd.reps["v4"].corner is VARIABLE
    assert cd.reps["v2"].corner is None and cd.reps["v3"].corner is None

    calls.clear()
    d1 = parse_defect("FqR(x=1;q=1)", p)
    d2 = parse_defect("LL(a=1,x=2)", p)
    assert len(horizontal_fuse(d1, d2).outcomes) == p
    assert calls == {"horizontal_compound": 1, "enumerate_basis": 1}
    assert horizontal_compound(d1, d2).reps["vt"].corner is VARIABLE


def test_sweep_builds_generator_args_once_and_memos_per_rep():
    """The one compound of a driver call reads one list of per-vertex args
    per bubble and boundary generator, kept on its structure's shape, and the
    action forms of its reps, one table per rep key, by the sorted args
    kept in that list; a corner variable's rep has one key, and so one
    table, for every corner value."""
    p = 3
    m, n, pw = (BimoduleLabel.parse(t, p) for t in ("R", "Fq:2", "R"))
    cd = associator_compound(m, n, pw)
    QuotientRep(cd)
    # cavity 0 and the boundary both touch v1, whose corner mu0 varies
    for entries in (engine._bubble_args(cd, 0, 2),
                    engine._boundary_args(cd, 1, 2)):
        assert "v1" in {vid for _, vid, _, _ in entries}
        forms = engine._loop_forms(entries, cd.reps)
        for i, vid, args, key in entries:
            assert key == tuple(sorted(args.items()))
            assert forms[i] is cd.reps[vid].affine_forms[key]
    assert cd.reps["v1"].key[-1] is VARIABLE
    again = associator_compound(m, n, pw)
    engine._loop_forms(engine._bubble_args(again, 0, 2), again.reps)
    assert again.reps["v1"].affine_forms is cd.reps["v1"].affine_forms
    assert {("bubble", 0, 2), ("boundary", 1, 2)} <= set(
        cd.structure.shape.generator_args)
    # a compound builds its list once: a second call returns the same one
    assert engine._bubble_args(cd, 0, 2) is engine._bubble_args(cd, 0, 2)


def test_an_assignment_outside_the_support_is_not_decomposed(monkeypatch):
    """The empty assignments of a sweep are listed from the support with
    no decomposition; the support is where the decomposition is
    nonempty."""
    calls = Counter()
    _counting(monkeypatch, fusion, "decompose", calls)
    p = 3
    t = BimoduleLabel.parse("T", p)
    result = associator(t, t, t)
    assert len(result.outcomes) == p ** 4
    assert calls["decompose"] == len(result.support()) == p * p


def test_given_corners_are_one_point_of_the_sweep(monkeypatch):
    """Given corner values, reduced mod p, give the sweep's outcome at that
    point; a point with no labeling ends right after the solve, before any
    loop is read."""
    p = 5
    cells = [[BimoduleLabel.parse(w, p) for w in walls]
             for walls in (("T", "T", "T"), ("L", "T", "R"), ("R", "F0", "L"))]
    for cell in cells:
        names = associator_compound(*cell).corner_names
        sweep = associator(*cell).outcome_map()
        for values in [(0, 0, 0, 0), (1, 2, 3, 4), (1, 2, 1, 2), (4, 0, 4, 0),
                       (6, 7, 11, 12)]:
            point = tuple(v % p for v in values)
            got = associator(*cell, corners=dict(zip(names, values)))
            assert got.outcomes == ((point, tuple(sweep[point].items())),)
            assert got.constraints is None

    def refuse(self):
        raise AssertionError("a loop was read")

    monkeypatch.setattr(QuotientRep, "_bubble_loops", refuse)
    cell = cells[0]
    names = associator_compound(*cell).corner_names
    empty = associator(*cell, corners=dict(zip(names, (1, 2, 3, 4))))
    assert empty.outcomes == (((1, 2, 3, 4), ()),)


def test_a_driver_call_builds_each_defects_grade_dims_once(monkeypatch):
    """The completeness check reads each defect's grade dimensions from the
    engine's per-process table, so one call builds each once."""
    calls = Counter()
    plain = DefectLabel.grade_dims

    def counted(self):
        calls[self] += 1
        return plain(self)

    monkeypatch.setattr(DefectLabel, "grade_dims", counted)
    p = 3
    t = BimoduleLabel.parse("T", p)
    result = associator(t, t, t)
    assert sum(1 for _, out in result.outcomes if out) > 1
    assert calls and set(calls.values()) == {1}


def test_two_driver_calls_build_each_defects_data_once(monkeypatch):
    """A second associator call on the same walls builds no candidate
    defect's phase terms or grade dimensions again: both are kept once per
    process, keyed by the frozen defect label."""
    terms, dims = Counter(), Counter()
    for key, entry in BIVALENT.items():
        def idem(prm, w, plain=entry["idem"], key=key):
            terms[key, tuple(prm.items()), w.params] += 1
            return plain(prm, w)

        monkeypatch.setitem(entry, "idem", idem)
    plain_dims = DefectLabel.grade_dims

    def counted(self):
        dims[self] += 1
        return plain_dims(self)

    monkeypatch.setattr(DefectLabel, "grade_dims", counted)
    t = BimoduleLabel.parse("T", 3)
    first = associator(t, t, t)
    assert associator(t, t, t) == first
    assert terms and set(terms.values()) == {1}
    assert dims and set(dims.values()) == {1}


def test_without_a_sweep_every_compound_is_fresh():
    p = 3
    m, n, pw = (BimoduleLabel.parse(t, p) for t in ("R", "Fq:2", "R"))
    a = associator_compound(m, n, pw, {"mu0": 1, "nu1": 2})
    b = associator_compound(m, n, pw, {"mu0": 1, "nu1": 2})
    assert a.structure is not b.structure
    assert all(a.reps[vid] is not b.reps[vid] for vid in a.reps)


def test_root_of_unity_check_is_made_per_corner_value(monkeypatch):
    """An extra zeta_3 on every nontrivial action at corner value 2 only.
    Read per corner value, T_2 would carry one zeta_3 at such a vertex
    where T_1^2 carries two, so no cavity symmetrizer would be idempotent;
    read on the corner variable, the phase is no affine form in it, and the
    action is refused for every corner value at once."""
    plain = TrivalentRep.act

    def act(self, vec, args):
        e, new = plain(self, vec, args)
        corner = vec[-1] if self.corner is VARIABLE else self.corner
        if corner == 2 and any(args.values()):
            e = (e + 1) % self.N
        return e, new

    monkeypatch.setattr(TrivalentRep, "act", act)
    p = 3
    t = BimoduleLabel.parse("T", p)
    refused = "is not a translation with an affine phase"
    with pytest.raises(StructureError, match=refused):
        associator(t, t, t)
    with pytest.raises(StructureError, match=refused):
        horizontal_fuse(parse_defect("FqR(x=1;q=1)", p),
                        parse_defect("LL(a=1,x=2)", p))
    # a concrete compound at corner value 2 still fails the cyclic check
    cd = associator_compound(t, t, t, {"mu0": 2, "mu1": 0, "nu0": 2,
                                       "nu1": 0})
    with pytest.raises(StructureError, match="symmetrizer is not idempotent"):
        QuotientRep(cd)


def test_a_translation_that_reads_the_corner_is_refused(monkeypatch):
    """A label translation that reads mu would make G's translations
    depend on the corner value: the action is refused as a
    StructureError."""
    entry = TRI21[("T", "T")]
    plain = entry["act"]

    def act(v, mu, w, a, b, c):
        e, new = plain(v, mu, w, a, b, c)
        return e, (new[0] + c * mu, *new[1:])

    monkeypatch.setitem(entry, "act", act)
    t = BimoduleLabel.parse("T", 3)
    with pytest.raises(StructureError,
                       match="is not a translation with an affine phase"):
        associator(t, t, t)


def test_a_corner_variable_quotient_needs_one_value_per_corner():
    """A quotient whose corners are unknowns counts only at given corner
    values: without them, or with the wrong number, it refuses instead of
    reading an empty quotient."""
    p = 3
    t = BimoduleLabel.parse("T", p)
    qr = QuotientRep(associator_compound(t, t, t))
    assert qr.corners == ("v1", "v2", "v3", "v4")
    assert qr.total_dim() == sum(qr.total_dim(mu) for mu in qr.support())
    grade = next(iter(qr.grade_dims((0, 0, 0, 0))))
    for mu in ((), (0, 0, 0)):
        with pytest.raises(ValueError, match="4 corner values wanted"):
            decompose(qr, mu)
        for call in (lambda: qr.grade_dims(mu), lambda: qr.grade_dim(grade, mu),
                     lambda: qr.total_dim(mu),
                     lambda: qr.character(grade, 1, 1, mu),
                     lambda: engine.verify_completeness(qr, [], mu)):
            with pytest.raises(ValueError, match="4 corner values wanted"):
                call()
    d = enumerate_defects(*qr.cd.structure.external_walls())[0]
    for call in (lambda: qr._orbit_map(grade, 1, 1),
                 lambda: engine.apply_idempotent(qr, d)):
        with pytest.raises(ValueError, match="4 corner values wanted"):
            call()
    assert decompose(qr, (0, 0, 0, 0))
    concrete = QuotientRep(associator_compound(t, t, t, dict.fromkeys(
        ("mu0", "mu1", "nu0", "nu1"), 0)))
    assert concrete.corners == ()
    with pytest.raises(ValueError, match="0 corner values wanted"):
        decompose(concrete, (0, 0, 0, 0))


def _wall_pair_defects(p):
    """The defects of a diamond for each p-wall pair below and each above:
    the first defect of (a, b) beside the first of (c, d)."""
    walls = all_walls(p)
    for a, b, c, d in itertools.product(walls, repeat=4):
        yield (enumerate_defects(a, b)[0], enumerate_defects(c, d)[0])


def test_a_compound_names_the_corners_of_its_quotient():
    """A builder names its corners in vertex order: through the template's
    vertex of each name, they are the quotient's corners, in its order, so
    a sweep reads each assignment at the vertices its names belong to. A
    build at given values names the same corners and holds each value at
    its vertex. Every p=3 associator cell and every p=3 wall pair of a
    diamond."""
    p = 3
    builds = [(associator_compound, cell, ASSOCIATOR_CORNERS)
              for cell in itertools.product(all_walls(p), repeat=3)]
    builds += [(horizontal_compound, pair, HORIZONTAL_CORNERS)
               for pair in _wall_pair_defects(p)]
    named = Counter()
    for build, args, vertex_of in builds:
        cd = build(*args)
        names = cd.corner_names
        assert tuple(vertex_of[nm] for nm in names) == \
            QuotientRep(cd).corners, args
        values = {nm: i + 1 for i, nm in enumerate(names)}
        concrete = build(*args, values)
        assert concrete.corner_names == names
        for nm, vid in vertex_of.items():
            want = values[nm] % p if nm in values else None
            assert concrete.reps[vid].corner == want, (args, nm)
        named[len(names)] += 1
    assert len(builds) == 512 + 8 ** 4 and set(named) == {0, 1, 2, 4}
