"""The state walk: a quotient's grades, generator tables, orbits, boundary
maps and characters found by listing the states and applying each vertex's
`act` to them, one state at a time.

The engine counts all of these by linear algebra on the solved coordinates
and the affine forms of the actions, and never lists a state or walks an
orbit; this module is the reference it is checked against. It shares with
the engine the solve (whose listing `tests/test_engine.py` checks against
brute force) and the per-vertex args of each loop, and nothing else.
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


def _monomial_orbits(n: int, gens: list, N: int):
    """Orbits of the group generated by commuting monomial tables
    gens[c][i] = (k, j) on basis vectors 0..n-1.

    Returns (orbit, members): orbit[i] = (root, a) with root the orbit's
    first index and some group element sending root to zeta_N^a times
    vector i; members maps the root of every admissible orbit, in
    increasing order, to its indices. An orbit is admissible when the phases
    agree along every generator edge, that is when its stabilizer acts
    trivially; the averaging projector of the group then has one image
    vector per admissible orbit, sum_i zeta_N^a(i) e_i, and kills the rest.
    Cost O(n * len(gens))."""
    orbit: list = [None] * n
    admissible = {}
    for root in range(n):
        if orbit[root] is not None:
            continue
        orbit[root] = (root, 0)
        ok = True
        stack = [root]
        while stack:
            i = stack.pop()
            a = orbit[i][1]
            for gen in gens:
                k, j = gen[i]
                b = (a + k) % N
                seen = orbit[j]
                if seen is None:
                    orbit[j] = (root, b)
                    stack.append(j)
                elif seen[1] != b:
                    ok = False
        admissible[root] = ok
    members: dict = {}
    for i, (root, _) in enumerate(orbit):
        if admissible[root]:
            members.setdefault(root, []).append(i)
    return orbit, members


def loop_table(solved, loop: tuple, N: int) -> list:
    """A loop read in the solved coordinates, (tau, ell, kappa), on every
    state by digit arithmetic: [(k, j)], state i going to zeta_N^k times
    state j."""
    tau, ell, kappa = loop
    p, out = solved.p, []
    for i in range(len(solved)):
        j, k, scale = 0, kappa, 1
        for t, a in zip(reversed(tau), reversed(ell)):
            i, x = divmod(i, p)
            j += (x + t) % p * scale
            k += a * x
            scale *= p
        out.append((k % N, j))
    return out


class WalkedQuotient:
    """What `QuotientRep(cd, pins, cavities)` computes, by the walk: the
    states, `grades` {grade: [index]}, `gens` (one table per listed cavity),
    `orbits` (orbit, members, roots, position) and, per boundary (g, h),
    `orbit_map` and `character`; and the orbit sums as vectors, `image`,
    which the engine never builds."""

    def __init__(self, cd, pins=None, cavities=None):
        self.cd = cd
        pins = pins or {}
        cavities = (range(len(cd.structure.cavities)) if cavities is None
                    else cavities)
        states = list(engine.enumerate_basis(cd, pins))
        stubs = [eid for eid in cd.structure.external if eid not in pins]
        grade_of = []
        for vec in states:
            labels = engine.edge_labels_of(cd, vec)
            grade_of.append(tuple(labels[eid] for eid in stubs))
        N = cyc_field(cd.p).N
        self._count(cd.p, states, grade_of,
                    [walk(cd.reps, states, engine._bubble_args(cd, c, 1), N)
                     for c in cavities])

    @classmethod
    def of_tables(cls, p: int, grade_of: list, gens: list,
                  boundaries: dict) -> "WalkedQuotient":
        """The walk on given tables rather than a compound's: grade_of[i]
        the grade of state i, gens one table per bubble and boundaries
        {(g, h): table}."""
        out = cls.__new__(cls)
        out._count(p, list(range(len(grade_of))), grade_of, gens)
        out._tables.update(boundaries)
        return out

    def _count(self, p: int, states: list, grade_of: list, gens: list):
        self.field = cyc_field(p)
        self.N = self.field.N
        self.states, self.grade_of, self.gens = states, grade_of, gens
        self.grades: dict = {}
        for i, grade in enumerate(grade_of):
            self.grades.setdefault(grade, []).append(i)
        orbit, members = _monomial_orbits(len(states), gens, self.N)
        roots = {grade: [] for grade in self.grades}
        for root in members:
            roots[self.grade_of[root]].append(root)
        position = {root: pos for rs in roots.values()
                    for pos, root in enumerate(rs)}
        self.orbits = orbit, members, roots, position
        self._tables: dict = {}

    def dims(self) -> dict:
        """{grade: its number of admissible orbits} for every grade."""
        return {grade: len(roots) for grade, roots in self.orbits[2].items()}

    def image(self) -> dict:
        """Per grade, its orbit sums {raw index: zeta_N^a}, by first index."""
        orbit, members, roots, _ = self.orbits
        root_pow = self.field.root_pow
        return {grade: [{i: root_pow(orbit[i][1]) for i in members[root]}
                        for root in rs] for grade, rs in roots.items()}

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
