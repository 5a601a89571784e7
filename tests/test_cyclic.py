"""The engine's cyclic check, decided on each vertex action's affine form,
kept per rep key and args, against the per-compound reference it
replaced."""

import itertools

import pytest

from annulus import engine
from annulus.levinwen import defect_line_patch, hexagon_chain_patch
from annulus.reps import BivalentRep, TrivalentRep
from annulus.structures import StructureError, associator_compound
from annulus.walls import BimoduleLabel, all_walls
from state_walk import walk
from test_levinwen import (
    _args_of, _extra_phase, _loop_phase,
)


def reference_strict_cyclic(gen: list, basis: list, acts: list, reps: dict,
                            N: int) -> bool:
    """Whether T_u = T_1^u, phases included, for every u in 0..p-1, and
    T_1^p is the identity, checked on one basis: at each vertex, T_u
    against T_1 applied u times on every local vector that occurs, each
    action acted once per local vector; phase defects summed over the
    basis where one is nonzero; and the cycles of gen, T_1's table."""
    p = len(acts)
    by_vertex: dict = {}
    for u, vertex_args in enumerate(acts):
        for pos, vid, args, _ in vertex_args:
            by_vertex.setdefault((pos, vid), {})[u] = (args, {})
    defects = []
    for (pos, vid), by_u in by_vertex.items():
        rep = reps[vid]
        local = {vec[pos] for vec in basis}
        maps = []
        for u in range(p):
            hit = by_u.get(u)
            if hit is not None:
                args, hit = hit
                for x in local:
                    if x not in hit:
                        hit[x] = rep.act(x, args)
            maps.append(hit)
        one = maps[1]
        table = {}
        for x in local:
            cur, total, defect = x, 0, None
            for u, memo in enumerate(maps):
                k, y = (0, x) if memo is None else memo[x]
                if y != cur:
                    return False
                if (k - total) % N:
                    if defect is None:
                        defect = table[x] = [0] * p
                    defect[u] = (k - total) % N
                k, cur = (0, cur) if one is None else one[cur]
                total += k
        if table:
            defects.append((pos, table))
    if defects:
        for vec in basis:
            total = [0] * p
            for pos, table in defects:
                defect = table.get(vec[pos])
                if defect:
                    total = [a + b for a, b in zip(total, defect)]
            if any(a % N for a in total):
                return False
    seen = [False] * len(gen)
    for i in range(len(gen)):
        if seen[i]:
            continue
        j, k, length = i, 0, 0
        while True:
            seen[j] = True
            dk, j = gen[j]
            k += dk
            length += 1
            if j == i or length == p:
                break
        if j != i or p % length or k * (p // length) % N:
            return False
    return True


@pytest.fixture
def verdicts(monkeypatch):
    """Every verdict of the engine's `_strict_cyclic`, each checked to
    equal the reference's on the same arguments and T_1's table, walked
    state by state, which the engine has checked to keep the basis."""
    cached = engine._strict_cyclic
    out = []

    def both(solved, one, acts, reps, N):
        got = cached(solved, one, acts, reps, N)
        basis = list(solved)
        gen = walk(reps, basis, acts[1], N)
        assert got == reference_strict_cyclic(gen, basis, acts, reps, N)
        out.append(got)
        return got

    monkeypatch.setattr(engine, "_strict_cyclic", both)
    return out


def test_every_p3_associator_cell_agrees_with_the_reference(verdicts):
    p = 3
    walls = all_walls(p)
    for m, n, pw in itertools.product(walls, repeat=3):
        names = associator_compound(m, n, pw).corner_names
        for values in itertools.product(range(p), repeat=len(names)):
            cd = associator_compound(m, n, pw, dict(zip(names, values)))
            engine.QuotientRep(cd)
    assert len(verdicts) > 1000 and all(verdicts)


def test_every_lattice_builder_agrees_with_the_reference(verdicts):
    patches = [hexagon_chain_patch(p, nf)
               for p in (2, 3, 5) for nf in (1, 2, 3)]
    patches += [hexagon_chain_patch(p, nf, pin=False)
                for p, nf in ((2, 1), (2, 2), (3, 1))]
    patches += [defect_line_patch(p) for p in (2, 3, 5)]
    for patch in patches:
        patch.assert_face_group_rep()
    assert verdicts and all(verdicts)


def _phase_on_some_vectors(mp):
    patch = hexagon_chain_patch(3, 1)
    rep = patch.vertices["h0_t"]
    twice = _args_of(patch, 0, 2, "h0_t")
    _loop_phase(mp, lambda r, vec, args:
                vec[0] if r is rep and args == twice else 0)
    return patch


def _image_one_step_further(mp):
    patch = hexagon_chain_patch(3, 1)
    rep = patch.vertices["h0_t"]
    twice = _args_of(patch, 0, 2, "h0_t")
    orig = TrivalentRep.act

    def act(self, vec, args):
        e, new = orig(self, vec, args)
        if self is rep and args == twice:
            new = ((new[0] + 1) % self.p,) + new[1:]
        return e, new

    mp.setattr(TrivalentRep, "act", act)
    return patch


def _defects_at_two_vertices(shift_b):
    def fake(mp):
        patch = hexagon_chain_patch(3, 1)
        t, b = patch.vertices["h0_t"], patch.vertices["h0_b"]
        at_t = t.key, _args_of(patch, 0, 2, "h0_t")
        at_b = b.key, _args_of(patch, 0, 2, "h0_b")
        _loop_phase(mp, lambda r, vec, args:
                    1 if (r.key, args) == at_t
                    else shift_b if (r.key, args) == at_b else 0)
        return patch
    return fake


def _state_dependent_phase(mp):
    _extra_phase(mp, lambda vec, args: vec[0])
    return hexagon_chain_patch(3, 2)


def _character_twist(mp):
    _extra_phase(mp, lambda vec, args: abs(args.get("mid", 0)))
    return defect_line_patch(3)


def _constant_phase(g, k):
    """zeta_4^k on H_{0,g} at vertex h0_t of a p = 2 chain: H_{0,1}^2 or
    H_{0,0} is then -1 where k is 1 or 2."""
    def fake(mp):
        patch = hexagon_chain_patch(2, 2)
        rep = patch.vertices["h0_t"]
        args_g = _args_of(patch, 0, g, "h0_t")
        _loop_phase(mp, lambda r, vec, args:
                    k if r is rep and args == args_g else 0)
        return patch
    return fake


@pytest.mark.parametrize("fake, ok", [
    (_phase_on_some_vectors, False),
    (_image_one_step_further, False),
    (_defects_at_two_vertices(-1), True),
    (_defects_at_two_vertices(1), False),
    (_state_dependent_phase, False),
    (_character_twist, True),
    (_constant_phase(1, 1), False),
    (_constant_phase(0, 2), False),
])
def test_faked_tables_agree_with_the_reference(monkeypatch, verdicts, fake,
                                               ok):
    patch = fake(monkeypatch)
    if ok:
        patch.assert_face_group_rep()
    else:
        with pytest.raises(StructureError, match="does not carry"):
            patch.assert_face_group_rep()
    assert verdicts[-1] is ok


def test_a_second_build_makes_no_act_call_for_u_of_two(monkeypatch):
    """Building one compound twice, each time with fresh reps, acts with
    Bub_u for u >= 2 only the first time: the second reads each vertex
    action's form from the engine's table, and as the quotient acts on no
    listed state, it makes no act call at all."""
    p = 3
    m, n, pw = (BimoduleLabel.parse(t, p) for t in ("R", "Fq:2", "R"))
    calls = []
    for cls in (BivalentRep, TrivalentRep):
        def act(self, vec, args, orig=cls.act):
            calls.append((self.key, tuple(sorted(args.items()))))
            return orig(self, vec, args)
        monkeypatch.setattr(cls, "act", act)

    def build():
        cd = associator_compound(m, n, pw, {"mu0": 0, "nu1": 0})
        keys = [{(cd.reps[vid].key, tuple(sorted(args.items())))
                 for cav in range(len(cd.structure.cavities))
                 for _, vid, args, _ in engine._bubble_args(cd, cav, u)}
                for u in range(p)]
        calls.clear()
        assert engine.QuotientRep(cd).total_dim()
        return set(calls), keys[2] - keys[0] - keys[1]

    first, only_two = build()
    assert only_two and first & only_two
    second, _ = build()
    assert not second
