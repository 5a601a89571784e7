"""Corner sweeps: the drivers share one structure and one rep per (vertex,
corner value) across a call's corner assignments, and each candidate
defect's phase terms and grade dimensions are built once per process. The
results must equal those of fresh compounds built per assignment."""

import itertools
from collections import Counter

import pytest

from annulus import engine
from annulus.defects import DefectLabel, parse_defect
from annulus.engine import QuotientRep, decompose
from annulus.fusion import associator, horizontal_fuse
from annulus.reps import BIVALENT, TrivalentRep
from annulus.structures import (
    CornerSweep, StructureError, associator_compound, associator_corner_names,
    horizontal_compound, horizontal_corner_names,
)
from annulus.walls import BimoduleLabel, all_walls


def _fresh(cd) -> tuple:
    out = decompose(QuotientRep(cd))
    return tuple(sorted((d.name(), mult) for d, mult in out))


def _fresh_associator(m, n, pw) -> tuple:
    names = associator_corner_names(m, n, pw)
    return tuple(
        (t, _fresh(associator_compound(m, n, pw, dict(zip(names, t)))))
        for t in itertools.product(range(m.p), repeat=len(names)))


def _fresh_horizontal(d1, d2) -> tuple:
    names = horizontal_corner_names(d1, d2)
    out = []
    for t in itertools.product(range(d1.p), repeat=len(names)):
        kw = dict(zip(names, t))
        cd = horizontal_compound(d1, d2, corner_bottom=kw.get("bottom"),
                                 corner_top=kw.get("top"))
        out.append((t, _fresh(cd)))
    return tuple(out)


@pytest.mark.parametrize("p,step", [(2, 1), (3, 4)])
def test_associator_sweep_matches_fresh_compounds(p, step):
    """Every p=2 cell and every 4th p=3 cell."""
    cells = list(itertools.product(all_walls(p), repeat=3))[::step]
    for m, n, pw in cells:
        assert associator(m, n, pw).outcomes == _fresh_associator(m, n, pw), \
            (m.name(), n.name(), pw.name())


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


def test_sweep_shares_the_structure_and_the_corner_free_reps():
    p = 3
    m, n, pw = (BimoduleLabel.parse(t, p) for t in ("R", "Fq:2", "R"))
    assert associator_corner_names(m, n, pw) == ["mu0", "nu1"]
    sweep = CornerSweep()
    cds = {t: associator_compound(m, n, pw, {"mu0": t[0], "nu1": t[1]},
                                  sweep=sweep)
           for t in itertools.product(range(p), repeat=2)}
    first = cds[(0, 0)]
    for (mu0, nu1), cd in cds.items():
        assert cd.structure is first.structure
        assert cd.reps["v2"] is first.reps["v2"]
        assert cd.reps["v3"] is first.reps["v3"]
        assert cd.reps["v1"] is cds[(mu0, 0)].reps["v1"]
        assert cd.reps["v4"] is cds[(0, nu1)].reps["v4"]
        assert cd.reps["v1"].corner == mu0 and cd.reps["v4"].corner == nu1
    assert len({id(cd.reps["v1"]) for cd in cds.values()}) == p
    assert len({id(cd.reps["v4"]) for cd in cds.values()}) == p

    d1 = parse_defect("FqR(x=1;q=1)", p)
    d2 = parse_defect("LL(a=1,x=2)", p)
    sweep = CornerSweep()
    cds = [horizontal_compound(d1, d2, corner_top=nu, sweep=sweep)
           for nu in range(p)]
    assert len({id(cd.reps["vt"]) for cd in cds}) == p
    for cd in cds:
        assert cd.structure is cds[0].structure
        for vid in ("vb", "d1", "d2"):
            assert cd.reps[vid] is cds[0].reps[vid]


def test_sweep_builds_generator_args_once_and_memos_per_rep():
    """The compounds of a sweep read one list of per-vertex args per
    bubble and boundary generator, kept on their structure, and each reads
    the action forms of its own reps, one table per rep key, by the sorted
    args kept in that list."""
    p = 3
    m, n, pw = (BimoduleLabel.parse(t, p) for t in ("R", "Fq:2", "R"))
    sweep = CornerSweep()
    cds = [associator_compound(m, n, pw, {"mu0": mu0, "nu1": 0}, sweep=sweep)
           for mu0 in range(p)]
    # cavity 0 and the boundary both touch v1, whose corner mu0 varies
    for args_of in (lambda cd: engine._bubble_args(cd, 0, 2),
                    lambda cd: engine._boundary_args(cd, 1, 2)):
        lists = [args_of(cd) for cd in cds]
        assert "v1" in {vid for _, vid, _, _ in lists[0]}
        for cd, entries in zip(cds, lists):
            forms = engine._loop_forms(entries, cd.reps)
            for (i, vid, args, key), first in zip(entries, lists[0]):
                assert args is first[2]
                assert key == tuple(sorted(args.items()))
                assert forms[i] is cd.reps[vid].affine_forms[key]
        v1_tables = [cd.reps["v1"].affine_forms for cd in cds]
        assert len({id(table) for table in v1_tables}) == p
    assert set(cds[0].structure._generator_args) == {
        ("bubble", 0, 2), ("boundary", 1, 2)}
    # a compound builds its list once: a second call returns the same one
    assert engine._bubble_args(cds[0], 0, 2) is engine._bubble_args(
        cds[0], 0, 2)


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


def test_a_sweep_serves_one_set_of_inputs():
    p = 3
    t, r = BimoduleLabel.parse("T", p), BimoduleLabel.parse("R", p)
    sweep = CornerSweep()
    associator_compound(t, t, t, {"mu0": 0, "mu1": 0, "nu0": 0, "nu1": 0},
                        sweep=sweep)
    with pytest.raises(ValueError, match="one set of inputs"):
        associator_compound(t, t, r, {"mu0": 0, "nu0": 0}, sweep=sweep)


def test_root_of_unity_check_is_made_per_corner_value(monkeypatch):
    """An extra zeta_3 on every nontrivial action at corner value 2 only:
    then T_2 carries one zeta_3 at such a vertex where T_1^2 carries two,
    so no cavity symmetrizer is idempotent. A memo shared across corner
    values would answer from corners 0 and 1 and let it pass."""
    plain = TrivalentRep.act

    def act(self, vec, args):
        e, new = plain(self, vec, args)
        if self.corner == 2 and any(args.values()):
            e = (e + 1) % self.N
        return e, new

    monkeypatch.setattr(TrivalentRep, "act", act)
    p = 3
    t = BimoduleLabel.parse("T", p)
    with pytest.raises(StructureError, match="symmetrizer is not idempotent"):
        associator(t, t, t)
    with pytest.raises(StructureError, match="symmetrizer is not idempotent"):
        horizontal_fuse(parse_defect("FqR(x=1;q=1)", p),
                        parse_defect("LL(a=1,x=2)", p))
