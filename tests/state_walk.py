"""The state walk: a quotient's grades, generator tables, orbits, boundary
maps and characters found by listing the states and applying each vertex's
`act` to them, one state at a time.

The engine reads all of these off the solved coordinates and the affine
forms of the actions and never lists a state; this module is the reference
it is checked against. It shares with the engine the solve (whose listing
`tests/test_engine.py` checks against brute force), the per-vertex args of
each loop and `_monomial_orbits`, and nothing else.
"""

from annulus import engine
from annulus.scalars import cyc_field


def walk(reps: dict, states: list, vertex_args: list, N: int) -> list:
    """A loop, given by its `_vertex_args`, on every state: [(k, j)], state
    i going to zeta_N^k times states[j]; j is None where the image is no
    state."""
    index = {s: i for i, s in enumerate(states)}
    out = []
    for vec in states:
        k, new = 0, list(vec)
        for pos, vid, args, _ in vertex_args:
            e, new[pos] = reps[vid].act(vec[pos], args)
            k += e
        out.append((k % N, index.get(tuple(new))))
    return out


class WalkedQuotient:
    """What `QuotientRep(cd, pins, cavities)` computes, by the walk: the
    states, `grades` {grade: [index]}, `gens` (one table per listed cavity),
    `orbits` (orbit, members, roots, position) and, per boundary (g, h),
    `orbit_map` and `character`."""

    def __init__(self, cd, pins=None, cavities=None):
        self.cd, self.N = cd, cyc_field(cd.p).N
        pins = pins or {}
        cavities = (range(len(cd.structure.cavities)) if cavities is None
                    else cavities)
        self.states = list(engine.enumerate_basis(cd, pins))
        stubs = [eid for eid in cd.structure.external if eid not in pins]
        self.grade_of = []
        self.grades: dict = {}
        for i, vec in enumerate(self.states):
            labels = engine.edge_labels_of(cd, vec)
            grade = tuple(labels[eid] for eid in stubs)
            self.grade_of.append(grade)
            self.grades.setdefault(grade, []).append(i)
        self.gens = [walk(cd.reps, self.states,
                          engine._bubble_args(cd, c, 1), self.N)
                     for c in cavities]
        orbit, members = engine._monomial_orbits(
            len(self.states), self.gens, self.N)
        roots = {grade: [] for grade in self.grades}
        for root in members:
            roots[self.grade_of[root]].append(root)
        position = {root: pos for rs in roots.values()
                    for pos, root in enumerate(rs)}
        self.orbits = orbit, members, roots, position
        self._tables: dict = {}

    def orbit_map(self, grade, g: int, h: int):
        """Boundary (g, h) on the orbit sums of `grade`, as
        `QuotientRep._orbit_map` gives it. Every member of every admissible
        orbit is walked: the orbit sum must go to one root of unity times
        one admissible orbit sum."""
        orbit, members, roots, position = self.orbits
        table = self._tables.get((g, h))
        if table is None:
            table = self._tables[g, h] = walk(
                self.cd.reps, self.states,
                engine._boundary_args(self.cd, g, h), self.N)
        target = None
        entries = []
        for root in roots[grade]:
            if any(table[i][1] is None for i in members[root]):
                raise engine.StructureError(
                    "boundary action left the compound basis")
            k, j = table[root]
            if target is None:
                target = self.grade_of[j]
            elif target != self.grade_of[j]:
                raise engine.StructureError("boundary action split a grade")
            troot, a = orbit[j]
            scale = (k - a) % self.N
            image = {}
            for i in members[root]:
                ki, ji = table[i]
                image[ji] = (orbit[i][1] + ki) % self.N
            want = {i: (orbit[i][1] + scale) % self.N
                    for i in members.get(troot, ())}
            if image != want:
                raise engine.StructureError(
                    "boundary action does not preserve the bubble quotient")
            entries.append((position[troot], scale))
        return (grade if target is None else target), entries

    def character(self, grade, g: int, h: int):
        target, entries = self.orbit_map(grade, g, h)
        if target != grade:
            raise engine.StructureError(
                "idempotent generator moved the source grade")
        hist = [0] * self.N
        for col, (row, k) in enumerate(entries):
            if row == col:
                hist[k] += 1
        return tuple(hist) if any(hist) else None
