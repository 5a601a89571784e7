"""The domain wall structure algorithm.

Pipeline: enumerate the compound basis (consistent edge labelings), average
the bubble action of every internal cavity into a symmetrizer, take its image
grade by grade, then read off multiplicities of every candidate defect as the
exact rank of its idempotent on the graded quotient.

Structures and compound defects are immutable once validated; basis
enumeration, bubble application and per-defect idempotent ranks are pure and
independent per grade.
"""

from __future__ import annotations

import os

from .defects import DefectLabel, enumerate_defects, idempotent
from .linalg import ExactMatrix, solve_in_span
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


def external_grade(cd: CompoundDefect, vec: tuple):
    """Tuple of external-edge labels, in the structure's boundary order."""
    labels = edge_labels_of(cd, vec)
    return tuple(labels[eid] for eid in cd.structure.external)


def _vertex_args(cd: CompoundDefect, args_by_vertex: dict) -> list[tuple]:
    """(position, vertex, args, hashable args) for every vertex that acts."""
    return [
        (i, vid, args_by_vertex[vid], tuple(sorted(args_by_vertex[vid].items())))
        for i, vid in enumerate(cd.vertex_order) if args_by_vertex.get(vid)
    ]


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
    being zeta_N^k. Each vertex's action is memoised per compound."""
    memo = getattr(cd, "_action_memo", None)
    if memo is None:
        memo = cd._action_memo = {}
    exp = 0
    out = list(vec)
    for i, vid, args, key in vertex_args:
        mkey = (vid, key, vec[i])
        hit = memo.get(mkey)
        if hit is None:
            hit = memo[mkey] = _exponent_action(cd.reps[vid], vid, vec[i],
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
    """Bubble-invariant compound representation, graded by external labels."""

    def __init__(self, cd: CompoundDefect, field: CycField | None = None):
        self.cd = cd
        self.field = field or CycField(cd.p)
        self.raw_basis = enumerate_basis(cd)
        self.raw_index = {v: i for i, v in enumerate(self.raw_basis)}
        self.grades: dict = {}
        self._grade_of = []
        for i, vec in enumerate(self.raw_basis):
            grade = external_grade(cd, vec)
            self._grade_of.append(grade)
            self.grades.setdefault(grade, []).append(i)
        self._local = {
            grade: {raw: j for j, raw in enumerate(idxs)}
            for grade, idxs in self.grades.items()
        }
        self._build_image()

    def _symmetrizer_on_grade(self, grade) -> ExactMatrix:
        """Product over cavities of the averaged bubble action, on one grade."""
        field = self.field
        idxs = self.grades[grade]
        local = self._local[grade]
        n = len(idxs)
        ncav = len(self.cd.structure.cavities)
        if n == 1:
            # scalar fast path: the averaged bubble phase must be 0 or 1
            vec = self.raw_basis[idxs[0]]
            scalar = field.one
            for cav in range(ncav):
                avg = _averaged_bubble(self.cd, cav, vec, field)
                if avg.keys() != {vec}:
                    raise StructureError(
                        "bubble action left the external grade; "
                        "cavity declaration is inconsistent")
                acc = avg[vec]
                if not (acc * acc == acc):
                    raise StructureError(
                        "cavity symmetrizer is not idempotent; "
                        "slot conventions violated for this structure")
                scalar = acc if cav == 0 else scalar * acc
            out = ExactMatrix(field, 1, 1)
            out.set(0, 0, scalar)
            return out
        if not ncav:
            return ExactMatrix.identity(field, n)
        total = None
        for cav in range(ncav):
            proj = ExactMatrix(field, n, n)
            for j, raw in enumerate(idxs):
                avg = _averaged_bubble(self.cd, cav, self.raw_basis[raw], field)
                for new, val in avg.items():
                    tgt = self.raw_index[new]
                    if tgt not in local:
                        raise StructureError(
                            "bubble action left the external grade; "
                            "cavity declaration is inconsistent")
                    proj.set(local[tgt], j, val)
            if not (proj @ proj) == proj:
                raise StructureError(
                    "cavity symmetrizer is not idempotent; "
                    "slot conventions violated for this structure")
            total = proj if total is None else proj @ total
        return total

    def _build_image(self):
        self.image: dict = {}
        for grade in self.grades:
            sym = self._symmetrizer_on_grade(grade)
            self.image[grade] = sym.image_basis()

    def grade_dim(self, grade) -> int:
        return len(self.image.get(grade, ()))

    def grade_dims(self) -> dict:
        return {g: len(cols) for g, cols in self.image.items() if cols}

    def total_dim(self) -> int:
        return sum(len(cols) for cols in self.image.values())

    def _action_matrix(self, grade, g: int, h: int):
        """Boundary (g,h) on the quotient, from `grade` to its image grade.

        Returns (target grade, matrix in image coordinates).
        """
        field = self.field
        idxs = self.grades[grade]
        cols = self.image[grade]
        target = None
        tloc = None
        raw_cols = []
        for col in cols:
            acc: dict[int, object] = {}
            for j, coeff in col.items():
                vec = self.raw_basis[idxs[j]]
                phase, new = boundary_action(self.cd, vec, g, h, field)
                new_idx = self.raw_index[new]
                tgrade = self._grade_of[new_idx]
                if target is None:
                    target = tgrade
                    tloc = self._local[target]
                elif target != tgrade:
                    raise StructureError("boundary action split a grade")
                row = tloc[new_idx]
                val = coeff * phase
                acc[row] = acc.get(row, field.zero) + val
            raw_cols.append({r: v for r, v in acc.items() if v})
        if target is None:
            return grade, ExactMatrix(field, 0, 0)
        tcols = self.image[target]
        mat = ExactMatrix(field, len(tcols), len(cols))
        for j, rawcol in enumerate(raw_cols):
            try:
                coeffs = solve_in_span(field, tcols, rawcol)
            except ValueError:
                raise StructureError(
                    "boundary action does not preserve the bubble quotient") from None
            for i, v in enumerate(coeffs):
                if v:
                    mat.rows[i][j] = v
        return target, mat

    def boundary_matrix(self, grade, g: int, h: int):
        if grade not in self.image:
            raise KeyError(f"no such grade {grade!r}")
        return self._action_matrix(grade, g, h)


def apply_idempotent(qr: QuotientRep, d: DefectLabel) -> ExactMatrix:
    """Matrix of d's idempotent on the quotient at d's source grade.

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


def decompose(qr: QuotientRep, check_complete: bool = True):
    """Isotypic decomposition of a 2-string quotient representation.

    Returns [(DefectLabel, multiplicity)] with positive multiplicities; for
    external boundaries with more or fewer strings the quotient itself is
    returned unchanged (unsupported, per contract).
    """
    if len(qr.cd.structure.external) != 2:
        return qr
    lower, upper = qr.cd.structure.external_walls()
    out = []
    for d in enumerate_defects(lower, upper):
        mat = apply_idempotent(qr, d)
        mult = mat.rank() if mat.nrows else 0
        if mult:
            out.append((d, mult))
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
