"""Commutators read from the affine forms of vertex actions
(`engine._loop_forms`, `engine._commutator`), and from those forms in a
quotient's solved coordinates (`SolvedBasis.loop`, `engine._bracket`),
against the state walk they replaced: the phases by which A B x and B A x
differ, over every state x."""

import itertools

import pytest

from annulus import engine
from annulus.levinwen import defect_line_patch, hexagon_chain_patch
from state_walk import walk as walk_loop
from test_engine import _associators
from test_levinwen import _extra_phase


def commutator_phases(a, b, states, N: int) -> set:
    """The set of k in Z/N with A B x = zeta_N^k B A x over x in `states`,
    with None in it when A B x and B A x are different states for some x:
    A and B commute on `states` when the set is at most {0}. A and B are
    monomial maps indexed by state, a[x] = (exponent, image), as `act`
    returns them: generator tables or full action memos."""
    phases = set()
    for x in states:
        k1, y = b[x]
        k2, y = a[y]
        k3, z = a[x]
        k4, z = b[z]
        phases.add((k1 + k2 - k3 - k4) % N if y == z else None)
    return phases


def _lattice_builders(primes):
    for p in primes:
        for nf in (1, 2, 3):
            yield hexagon_chain_patch(p, nf)
        yield defect_line_patch(p)
    for p, nf in ((2, 1), (2, 2), (3, 1)):
        if p in primes:
            yield hexagon_chain_patch(p, nf, pin=False)


def _vertex_comparisons(patch):
    """((i, j, g, h), form commutator, walked phases) at every vertex that
    faces i < j share, for every (g, h): the walk acts on the vertex's
    whole local basis."""
    cd, N = patch.compound, patch.field.N
    loops = [[engine._bubble_args(cd, c, g) for g in range(patch.p)]
             for c in patch.cavities]
    out = []
    for i, j in itertools.combinations(range(len(loops)), 2):
        for g, h in itertools.product(range(patch.p), repeat=2):
            a = {entry[0]: entry for entry in loops[i][g]}
            b = {entry[0]: entry for entry in loops[j][h]}
            for pos in a.keys() & b.keys():
                vid = a[pos][1]
                rep = cd.reps[vid]
                basis = rep.basis()
                walk = [{x: rep.act(x, entry[2]) for x in basis}
                        for entry in (a[pos], b[pos])]
                forms = [engine._loop_forms([entry], cd.reps)
                         for entry in (a[pos], b[pos])]
                out.append(((i, j, g, h), engine._commutator(*forms, N),
                            commutator_phases(*walk, basis, N)))
    return out


def _compare(patches):
    """Check every vertex's form commutator against its walk, and
    `check_commutation`'s violations against the walked phases summed
    over the shared vertices. Returns the numbers of vertex comparisons
    and face-pair comparisons, and of nonzero phases among each."""
    vertices = pairs = vertex_hits = pair_hits = 0
    for patch in patches:
        summed: dict = {}
        for key, k, walked in _vertex_comparisons(patch):
            assert walked == {k}
            summed[key] = summed.get(key, 0) + k
            vertices += 1
            vertex_hits += k != 0
        broken = {key for key, k in summed.items() if k % patch.field.N}
        report = patch.check_commutation()
        assert report["ok"] is not broken
        assert {(*v["faces"], v["g"], v["h"])
                for v in report.get("violations", [])} == broken
        pairs += len(summed)
        pair_hits += len(broken)
    return vertices, pairs, vertex_hits, pair_hits


def test_lattice_vertex_commutators_equal_the_walk():
    assert _compare(_lattice_builders((2, 3, 5))) == (312, 156, 0, 0)


def test_lattice_vertex_commutators_equal_the_walk_under_a_fake(monkeypatch):
    """Every nontrivial vertex action given an extra phase zeta_p^(v_0),
    affine in the local vector: some face loops stop commuting, and the
    forms still give the walk's phase."""
    _extra_phase(monkeypatch, lambda vec, args: vec[0])
    assert _compare(_lattice_builders((3, 5))) == (272, 136, 140, 80)


@pytest.mark.parametrize("p", [2, 3])
def test_associator_commutators_equal_the_walk(p):
    """Bubble against bubble and every boundary generator against each
    bubble, on the raw basis of every p = 2, 3 associator compound that
    has one, each loop read in the solved coordinates; the boundary images
    stay in the raw basis."""
    compared = 0
    for cd in _associators(p):
        qr = engine.QuotientRep(cd)
        if not qr.raw_basis:
            continue
        N, states = qr.field.N, range(len(qr.raw_basis))
        listed = list(qr.raw_basis)
        bubbles = [(loop, walk_loop(cd.reps, listed,
                                    engine._bubble_args(cd, c, 1), N))
                   for c, loop in enumerate(qr._loops)]
        for (fa, ga), (fb, gb) in itertools.combinations(bubbles, 2):
            assert commutator_phases(ga, gb, states, N) == {
                engine._bracket(fa, fb) % N}
            compared += 1
        for g, h in itertools.product(range(p), repeat=2):
            args = engine._boundary_args(cd, g, h)
            table = walk_loop(cd.reps, listed, args, N)
            forms = qr.raw_basis.loop(engine._loop_forms(args, cd.reps), N)
            for fb, gb in bubbles:
                assert commutator_phases(table, gb, states, N) == {
                    engine._bracket(forms, fb) % N}
                compared += 1
    assert compared == {2: 4608, 3: 33440}[p]
