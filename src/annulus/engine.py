"""The domain wall structure algorithm.

Pipeline: enumerate the compound basis (consistent edge labelings), grade it
by the external labels, and let the bubbles of the internal cavities
generate a group G = (Z/p)^C acting monomially on it (one basis vector to a
root of unity times one basis vector). The product of the cavity
symmetrizers averages over G, so the quotient has one orbit sum per orbit
whose stabilizer acts trivially (an admissible orbit), and a grade's
dimension is its number of admissible orbits. Boundary generators commute
with G and map orbit sums to roots of unity times orbit sums; the
multiplicity of a candidate defect is the trace (character) of its
idempotent on the quotient, summed from phase histograms over Z/N.

Structures and compound defects are immutable once validated; basis
enumeration, bubble application and per-defect characters are pure and
independent per grade.

Each vertex rep carries a memo of its actions (exponent and image per args
and local vector), shared by every compound or lattice patch that holds the
rep. A driver's corner sweep builds one structure and one rep per (vertex,
corner value) for all its corner assignments, so the compounds of one sweep
share the memos of every vertex whose corner they agree on, and a
`DefectTable` gives them the candidate defects and idempotent terms once.
"""

from __future__ import annotations

import functools
import os

from .defects import DefectLabel, enumerate_defects, idempotent
from .linalg import ExactMatrix
from .scalars import CycField
from .structures import BUBBLE_SIGN, CompoundDefect, StructureError


class SizeLimitError(RuntimeError):
    pass


def _max_basis() -> int:
    return int(os.environ.get("ANNULUS_MAX_BASIS", "200000"))


def enumerate_basis(cd: CompoundDefect) -> list[tuple]:
    """All consistent labelings: one free-label tuple per vertex, such that
    every internal edge gets the same object from both endpoints."""
    return _join_basis(cd.vertex_order, cd.reps, cd.structure._edge_at, {},
                       "compound")


def _join_basis(order, reps: dict, edge_at, domains: dict,
                what: str) -> list[tuple]:
    """Consistent labelings of the vertices `order`: one local basis vector
    per vertex, such that both ends of every edge carry the same object and
    every edge named in `domains` carries one of its allowed objects.

    Vertices are placed in order; a partial labeling carries the labels of
    its open edges (one end placed), and each vertex's local basis is
    bucketed by its labels on edges to earlier vertices, so a partial only
    meets the local vectors that agree with it. The output is in the order
    of the product of the local bases."""
    limit = _max_basis()
    position = {vid: i for i, vid in enumerate(order)}
    open_eids: list = []
    partials: list[tuple[tuple, tuple]] = [((), ())]
    for idx, vid in enumerate(order):
        rep = reps[vid]
        # slot table: the other end of each slot's edge is external (skipped),
        # this vertex again (a loop), or placed earlier or later; an edge
        # with a domain also filters the local basis
        closing, opening, loops, restricted = [], [], {}, []
        for slot in rep.slots:
            e = edge_at(vid, slot)
            if e.eid in domains:
                restricted.append((slot, domains[e.eid]))
            other = [end for end in e.ends if end != (vid, slot)][0]
            if other is None:
                continue
            if other[0] == vid:
                loops.setdefault(e.eid, []).append(slot)
            elif position[other[0]] < idx:
                closing.append((slot, e.eid))
            else:
                opening.append((slot, e.eid))
        key_at = [open_eids.index(eid) for _, eid in closing]
        closed = {eid for _, eid in closing}
        keep_at = [i for i, eid in enumerate(open_eids) if eid not in closed]
        buckets: dict[tuple, list] = {}
        for vec in rep.basis():
            labels = rep.edge_labels(vec)
            if any(labels[a] != labels[b] for a, b in loops.values()):
                continue
            if restricted and any(labels[slot] not in allowed
                                  for slot, allowed in restricted):
                continue
            key = tuple(labels[slot] for slot, _ in closing)
            opened = tuple(labels[slot] for slot, _ in opening)
            buckets.setdefault(key, []).append((vec, opened))
        new_partials = []
        for assignment, state in partials:
            bucket = buckets.get(tuple(state[i] for i in key_at))
            if not bucket:
                continue
            kept = tuple(state[i] for i in keep_at)
            for vec, opened in bucket:
                new_partials.append((assignment + (vec,), kept + opened))
                if len(new_partials) > limit:
                    raise SizeLimitError(
                        f"{what} basis exceeds ANNULUS_MAX_BASIS={limit}")
        open_eids = [open_eids[i] for i in keep_at] + [eid for _, eid in opening]
        partials = new_partials
    return [assignment for assignment, _ in partials]


def edge_labels_of(cd: CompoundDefect, vec: tuple) -> dict:
    """Object label of every edge for a compound basis vector."""
    labels = {}
    for vid, vvec in zip(cd.vertex_order, vec):
        rep = cd.reps[vid]
        for slot, lab in rep.edge_labels(vvec).items():
            e = cd.structure._edge_at(vid, slot)
            prev = labels.get(e.eid)
            if prev is not None and prev != lab:
                raise StructureError(f"inconsistent labeling on edge {e.eid}")
            labels[e.eid] = lab
    return labels


def _external_grades(cd: CompoundDefect, basis: list) -> list[tuple]:
    """Tuple of external-edge labels of every basis vector, in the
    structure's boundary order. Each external edge's one vertex end is found
    once; the enumerator already made the labeling consistent."""
    position = {vid: i for i, vid in enumerate(cd.vertex_order)}
    ends = []
    for eid in cd.structure.external:
        (vid, slot), = [end for end in cd.structure.edge_by_id[eid].ends
                        if end is not None]
        ends.append((position[vid], cd.reps[vid], slot))
    return [tuple(rep.edge_labels(vec[pos])[slot] for pos, rep, slot in ends)
            for vec in basis]


def _is_cyclic(rows: list, N: int) -> bool:
    """Whether the monomial table rows[u][i] = (j, k), meaning that T_u
    sends basis vector i to zeta_N^k times vector j, is a strict Z/p action
    generated by T_1: T_u = T_1^u with equal phases for every u in the table
    (T_0 the identity), and T_1^p the identity. Then (1/p) sum_u T_u is an
    idempotent. Every j must be an index."""
    gen = rows[1]
    for i in range(len(gen)):
        cur, k = i, 0
        for row in rows:
            if row[i] != (cur, k):
                return False
            cur, dk = gen[cur]
            k = (k + dk) % N
        if cur != i or k:
            return False
    return True


def _monomial_orbits(n: int, gens: list, N: int):
    """Orbits of the group generated by commuting monomial tables
    gens[c][i] = (j, k) on basis vectors 0..n-1.

    Returns None if two generators do not commute (phases included).
    Otherwise returns (orbit, members): orbit[i] = (root, a) with root the
    orbit's first index and some group element sending root to zeta_N^a
    times vector i; members maps the root of every admissible orbit, in
    increasing order, to its indices. An orbit is admissible when the phases
    agree along every generator edge, that is when its stabilizer acts
    trivially; the averaging projector of the group then has one image
    vector per admissible orbit, sum_i zeta_N^a(i) e_i, and kills the rest.
    Cost O(n * len(gens)^2)."""
    for c, gen in enumerate(gens):
        for other in gens[c + 1:]:
            for i in range(n):
                j1, k1 = gen[i]
                j2, k2 = other[j1]
                l1, m1 = other[i]
                l2, m2 = gen[l1]
                if j2 != l2 or (k1 + k2 - m1 - m2) % N:
                    return None
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
                j, k = gen[i]
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


def _action_memo(rep, args: dict) -> dict:
    """The memo {local vector: (k, new local vector)} of rep's action with
    these args. It lives on the rep, keyed by the sorted args, so every
    compound or patch that holds the rep shares it; each miss goes through
    `_exponent_action`."""
    return rep.action_memo.setdefault(tuple(sorted(args.items())), {})


def _vertex_args(cd: CompoundDefect, args_by_vertex: dict) -> list[tuple]:
    """(position, vertex, args, memo) for every vertex that acts."""
    out = []
    for i, vid in enumerate(cd.vertex_order):
        args = args_by_vertex.get(vid)
        if args:
            out.append((i, vid, args, _action_memo(cd.reps[vid], args)))
    return out


def _exponent_action(rep, vid, vec, args, field) -> tuple:
    """rep.act on one local vector as (k in Z/N, new vector), the phase
    being zeta_N^k; a phase that is no root of unity is a StructureError."""
    phase, new = rep.act(vec, args, field)
    k = field.root_exponent(phase)
    if k is None:
        raise StructureError(
            f"vertex {vid}: phase {phase.symbolic()} is not a root of unity")
    return k, new


def _apply_args(cd: CompoundDefect, vec: tuple, vertex_args: list, field):
    """Act on every listed vertex: (exponent k in Z/N, new vector), the phase
    being zeta_N^k. Each vertex's action is memoised on its rep."""
    exp = 0
    out = list(vec)
    for i, vid, args, memo in vertex_args:
        hit = memo.get(vec[i])
        if hit is None:
            hit = memo[vec[i]] = _exponent_action(cd.reps[vid], vid, vec[i],
                                                  args, field)
        exp += hit[0]
        out[i] = hit[1]
    return exp % field.N, tuple(out)


def _boundary_args(cd: CompoundDefect, g: int, h: int) -> list[tuple]:
    cache = getattr(cd, "_boundary_args_cache", None)
    if cache is None:
        cache = cd._boundary_args_cache = {}
    key = (g, h)
    if key not in cache:
        args: dict[str, dict[str, int]] = {}
        for vid, region in cd.structure.left_face or ():
            slot_args = args.setdefault(vid, {})
            slot_args[region] = slot_args.get(region, 0) + g
        for vid, region in cd.structure.right_face or ():
            slot_args = args.setdefault(vid, {})
            slot_args[region] = slot_args.get(region, 0) + h
        cache[key] = _vertex_args(cd, args)
    return cache[key]


def boundary_action(cd: CompoundDefect, vec: tuple, g: int, h: int,
                    field: CycField):
    """Absorb a g string along the left external region and h along the right."""
    k, new = _apply_args(cd, vec, _boundary_args(cd, g, h), field)
    return field.root_pow(k), new


def _bubble_args(cd: CompoundDefect, cavity: int, g: int) -> list[tuple]:
    cache = getattr(cd, "_bubble_args_cache", None)
    if cache is None:
        cache = cd._bubble_args_cache = {}
    key = (cavity, g)
    if key not in cache:
        try:
            corners = cd.structure.cavities[cavity]
        except IndexError:
            raise StructureError(f"no cavity {cavity}") from None
        args: dict[str, dict[str, int]] = {}
        for vid, region in corners:
            sign = BUBBLE_SIGN[(cd.structure.vertices[vid], region)]
            slot_args = args.setdefault(vid, {})
            slot_args[region] = slot_args.get(region, 0) + sign * g
        cache[key] = _vertex_args(cd, args)
    return cache[key]


def bubble_action(cd: CompoundDefect, cavity: int, g: int, vec: tuple,
                  field: CycField):
    """Insert a g-labeled loop in the given internal cavity and absorb it."""
    k, new = _apply_args(cd, vec, _bubble_args(cd, cavity, g), field)
    return field.root_pow(k), new


def _averaged_bubble(cd: CompoundDefect, cavity: int, vec: tuple,
                     field: CycField) -> dict:
    """(1/p) sum_g bubble_action(g) on one basis vector, as {target: Cyc}.

    The phases are summed as a histogram of exponents per target vector, so
    each entry is built once with denominator p."""
    hists: dict[tuple, list[int]] = {}
    for g in range(cd.p):
        k, new = _apply_args(cd, vec, _bubble_args(cd, cavity, g), field)
        hist = hists.get(new)
        if hist is None:
            hist = hists[new] = [0] * field.N
        hist[k] += 1
    return {new: field.root_sum(hist, cd.p) for new, hist in hists.items()}


def cavity_symmetrizer(cd: CompoundDefect, cavity: int,
                       field: CycField | None = None) -> ExactMatrix:
    """P = (1/p) sum_g bubble_action(g) on the raw compound basis; exactly
    idempotent. Structures with no cavities have the identity as their total
    symmetrizer."""
    field = field or CycField(cd.p)
    basis = enumerate_basis(cd)
    index = {v: i for i, v in enumerate(basis)}
    n = len(basis)
    proj = ExactMatrix(field, n, n)
    for j, vec in enumerate(basis):
        for new, val in _averaged_bubble(cd, cavity, vec, field).items():
            proj.set(index[new], j, val)
    if not (proj @ proj) == proj:
        raise StructureError("cavity symmetrizer is not idempotent")
    return proj


class QuotientRep:
    """Bubble-invariant compound representation, graded by external labels.

    The bubbles Bub_{c,1} of the C cavities generate G = (Z/p)^C, which acts
    monomially on the raw basis and keeps every grade; the product of the
    cavity symmetrizers is G's averaging projector P. At each grade, im P
    has one basis vector per admissible orbit of G: the orbit sum, which
    `image` holds as a column {local index: zeta_N^a}. A boundary generator
    commutes with G, so it sends each orbit sum to a root of unity times an
    orbit sum."""

    def __init__(self, cd: CompoundDefect, field: CycField | None = None):
        self.cd = cd
        self.field = field or CycField(cd.p)
        self.raw_basis = enumerate_basis(cd)
        self.raw_index = {v: i for i, v in enumerate(self.raw_basis)}
        self.grades: dict = {}
        self._grade_of = _external_grades(cd, self.raw_basis)
        for i, grade in enumerate(self._grade_of):
            self.grades.setdefault(grade, []).append(i)
        self._gens = self._bubble_generators()
        found = _monomial_orbits(len(self.raw_basis), self._gens, self.field.N)
        if found is None:
            raise StructureError("bubbles of distinct cavities do not commute")
        self._orbit, self._members = found
        # the admissible orbit roots of every grade, in raw order, and the
        # position of each root among those of its grade
        self._roots: dict = {grade: [] for grade in self.grades}
        for root in self._members:
            self._roots[self._grade_of[root]].append(root)
        self._position = {root: pos for roots in self._roots.values()
                          for pos, root in enumerate(roots)}
        self._chars: dict = {}

    def _bubble_generators(self) -> list:
        """The table of Bub_{c,1} on the raw basis for every cavity c, once
        Bub_{c,u} is checked to keep every grade and to equal Bub_{c,1}^u."""
        cd, field = self.cd, self.field
        index, grade_of = self.raw_index, self._grade_of
        gens = []
        for cav in range(len(cd.structure.cavities)):
            rows = []
            for u in range(cd.p):
                args = _bubble_args(cd, cav, u)
                row = []
                for i, vec in enumerate(self.raw_basis):
                    k, new = _apply_args(cd, vec, args, field)
                    j = index.get(new)
                    if j is None or grade_of[j] != grade_of[i]:
                        raise StructureError(
                            "bubble action left the external grade; "
                            "cavity declaration is inconsistent")
                    row.append((j, k))
                rows.append(row)
            if not _is_cyclic(rows, field.N):
                raise StructureError(
                    "cavity symmetrizer is not idempotent; "
                    "slot conventions violated for this structure")
            gens.append(rows[1])
        return gens

    @functools.cached_property
    def image(self) -> dict:
        """Per grade, one orbit-sum column {local index: zeta_N^a} for every
        admissible orbit, in the order of the orbits' first raw indices."""
        root_pow = self.field.root_pow
        out = {}
        for grade, idxs in self.grades.items():
            local = {raw: j for j, raw in enumerate(idxs)}
            out[grade] = [
                {local[i]: root_pow(self._orbit[i][1])
                 for i in self._members[root]}
                for root in self._roots[grade]]
        return out

    def grade_dim(self, grade) -> int:
        return len(self._roots.get(grade, ()))

    def grade_dims(self) -> dict:
        return {g: len(roots) for g, roots in self._roots.items() if roots}

    def total_dim(self) -> int:
        return len(self._members)

    def _orbit_map(self, grade, g: int, h: int):
        """Boundary (g, h) on the orbit sums of `grade`: (target grade,
        [(target position, k)] per source orbit), meaning that the orbit sum
        goes to zeta_N^k times the target grade's orbit sum at that position.

        The generator must commute with every Bub_{c,1} on each admissible
        orbit (phases included) and map it onto an admissible orbit of the
        same size; then it preserves im P."""
        cd, field, N = self.cd, self.field, self.field.N
        args = _boundary_args(cd, g, h)
        target = None
        entries = []
        for root in self._roots[grade]:
            members = self._members[root]
            image = {}
            for i in members:
                k, new = _apply_args(cd, self.raw_basis[i], args, field)
                j = self.raw_index.get(new)
                if j is None:
                    raise StructureError(
                        "boundary action left the compound basis")
                image[i] = (j, k)
            j, k = image[root]
            if target is None:
                target = self._grade_of[j]
            elif target != self._grade_of[j]:
                raise StructureError("boundary action split a grade")
            troot, a = self._orbit[j]
            if (troot not in self._members
                    or len(self._members[troot]) != len(members)
                    or not self._commutes(image, members)):
                raise StructureError(
                    "boundary action does not preserve the bubble quotient")
            entries.append((self._position[troot], (k - a) % N))
        return (grade if target is None else target), entries

    def _commutes(self, image: dict, members: list) -> bool:
        """Whether B Bub_{c,1} = Bub_{c,1} B on the given orbit, with B's
        table `image` {i: (j, k)}."""
        N = self.field.N
        for gen in self._gens:
            for i in members:
                j, k = image[i]
                i2, k1 = gen[i]
                j2, k2 = image[i2]
                j3, k3 = gen[j]
                if j2 != j3 or (k1 + k2 - k - k3) % N:
                    return False
        return True

    def boundary_matrix(self, grade, g: int, h: int):
        """Boundary (g, h) on the quotient, from `grade` to its image grade:
        (target grade, matrix in orbit-sum coordinates)."""
        if grade not in self.grades:
            raise KeyError(f"no such grade {grade!r}")
        field = self.field
        target, entries = self._orbit_map(grade, g, h)
        mat = ExactMatrix(field, self.grade_dim(target), len(entries))
        for col, (row, k) in enumerate(entries):
            mat.rows[row][col] = field.root_pow(k)
        return target, mat

    def character(self, grade, g: int, h: int):
        """tr of boundary (g, h) on the quotient at `grade`, which it must
        keep: the phases of the orbit sums it fixes, summed as a histogram
        over Z/N. None when no orbit sum is fixed."""
        key = (grade, g, h)
        if key not in self._chars:
            target, entries = self._orbit_map(grade, g, h)
            if target != grade:
                raise StructureError(
                    "idempotent generator moved the source grade")
            hist = [0] * self.field.N
            for col, (row, k) in enumerate(entries):
                if row == col:
                    hist[k] += 1
            self._chars[key] = self.field.root_sum(hist) if any(hist) else None
        return self._chars[key]


def apply_idempotent(qr: QuotientRep, d: DefectLabel) -> ExactMatrix:
    """Matrix of d's idempotent on the quotient at d's source grade: the sum
    of its terms' monomial boundary matrices.

    A grade absent from the quotient gives the empty (rank 0) matrix.
    """
    field = qr.field
    expr = idempotent(d, field)
    grade = expr.source
    if qr.grade_dim(grade) == 0:
        return ExactMatrix(field, 0, 0)
    n = qr.grade_dim(grade)
    total = ExactMatrix(field, n, n)
    for coeff, (g, h) in expr.terms:
        target, mat = qr.boundary_matrix(grade, g, h)
        if target != grade:
            raise StructureError("idempotent generator moved the source grade")
        total = total + mat.scale(coeff)
    return total


class DefectTable:
    """The candidate defects of one driver call's decompositions: per
    external wall pair, every defect with its source grade, and each
    defect's idempotent terms, built the first time a quotient has an
    admissible orbit at that grade. A driver makes one per call, next to
    its corner sweep; a plain `decompose` makes its own."""

    def __init__(self):
        self._pairs: dict = {}
        self._terms: dict = {}

    def candidates(self, lower, upper) -> list:
        """[(defect, source grade)] on the wall pair, in defect order."""
        key = (lower, upper)
        out = self._pairs.get(key)
        if out is None:
            out = self._pairs[key] = [(d, d.source_object())
                                      for d in enumerate_defects(lower, upper)]
        return out

    def terms(self, d: DefectLabel, field: CycField) -> tuple:
        """d's idempotent as ((coefficient, (g, h)), ...)."""
        out = self._terms.get(d)
        if out is None:
            out = self._terms[d] = idempotent(d, field).terms
        return out


def decompose(qr: QuotientRep, check_complete: bool = True,
              table: DefectTable | None = None):
    """Isotypic decomposition of a 2-string quotient representation.

    The multiplicity of a defect d is the trace of its idempotent
    e = sum_t c_t B_t on the quotient at d's source grade, which is the rank
    of e: sum_t c_t tr(B_t), each trace a histogram of phases (`character`).
    The candidates and their terms come from `table`, fresh if not given.
    Returns [(DefectLabel, multiplicity)] with positive multiplicities; for
    external boundaries with more or fewer strings the quotient itself is
    returned unchanged (unsupported, per contract).
    """
    if len(qr.cd.structure.external) != 2:
        return qr
    lower, upper = qr.cd.structure.external_walls()
    field = qr.field
    table = DefectTable() if table is None else table
    out = []
    for d, grade in table.candidates(lower, upper):
        if not qr.grade_dim(grade):
            continue
        total = field.zero
        for coeff, (g, h) in table.terms(d, field):
            chi = qr.character(grade, g, h)
            if chi is not None:
                total = total + coeff * chi
        mult = total.as_rational()
        if mult is None or mult.denominator != 1 or mult < 0:
            raise StructureError(
                f"{d.name()}: trace of the idempotent is "
                f"{total.symbolic()}, not a multiplicity")
        if mult:
            out.append((d, int(mult)))
    if check_complete:
        verify_completeness(qr, out)
    return out


def verify_completeness(qr: QuotientRep, decomposition) -> None:
    """Assert sum_d mult_d * dim V^d(grade) == quotient dim at every grade."""
    want = qr.grade_dims()
    got: dict = {}
    for d, mult in decomposition:
        for grade, dim in d.grade_dims().items():
            got[grade] = got.get(grade, 0) + mult * dim
    got = {g: v for g, v in got.items() if v}
    if got != want:
        raise StructureError(
            f"decomposition incomplete: got {got}, quotient has {want}")
