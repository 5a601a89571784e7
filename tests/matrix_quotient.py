"""Reference quotients and projectors by exact linear algebra.

The engine's `QuotientRep` counts orbits of the bubble group and takes
multiplicities from characters; `LatticePatch.ground_space_dim` is the same
orbit count, with the patch's faces as the cavities. This module computes
the same things the slow way, as independent of the engine as it allows:

- `cavity_symmetrizer`: (1/p) sum_g Bub_g on the raw compound basis, summed
  entry by entry as plain `Cyc` values from the public `bubble_action`;
- `MatrixQuotient`: per grade, the product of the cavity symmetrizers, its
  pivot image basis, every boundary image solved in that span, and each
  defect's multiplicity as the exact rank of its idempotent's matrix;
- `face_matrix` and `face_projector`: H_{f,g} and (1/p) sum_g H_{f,g} of a
  lattice patch on its consistent basis, from `LatticePatch.face_action`;
- `dense_ground_dim`: the rank of the product of a patch's face projectors.
"""

from annulus.defects import enumerate_defects, idempotent
from annulus.engine import (
    boundary_action, bubble_action, edge_labels_of, enumerate_basis,
)
from annulus.linalg import ExactMatrix, solve_in_span
from annulus.scalars import CycField


def cavity_symmetrizer(cd, cavity, field=None):
    """P = (1/p) sum_g bubble_action(g) on the raw compound basis, asserted
    to be idempotent."""
    field = field or CycField(cd.p)
    basis = enumerate_basis(cd)
    index = {v: i for i, v in enumerate(basis)}
    n = len(basis)
    proj = ExactMatrix(field, n, n)
    for j, vec in enumerate(basis):
        for g in range(cd.p):
            phase, new = bubble_action(cd, cavity, g, vec, field)
            proj.add_to(index[new], j, phase * field.inv_p)
    assert proj @ proj == proj, "cavity symmetrizer is not idempotent"
    return proj


def face_matrix(patch, face_idx, g):
    """H_{f,g} on the patch's consistent basis."""
    basis = patch.consistent_basis()
    index = {s: i for i, s in enumerate(basis)}
    mat = ExactMatrix(patch.field, len(basis), len(basis))
    for j, state in enumerate(basis):
        phase, new = patch.face_action(face_idx, g, state)
        mat.add_to(index[new], j, phase)
    return mat


def face_projector(patch, face_idx):
    """H_f = (1/p) sum_g H_{f,g} on the patch's consistent basis."""
    n = len(patch.consistent_basis())
    acc = ExactMatrix(patch.field, n, n)
    for g in range(patch.p):
        acc = acc + face_matrix(patch, face_idx, g)
    return acc.scale(patch.field.inv_p)


def dense_ground_dim(patch):
    """Independent oracle: assemble every face projector as an exact matrix on
    the vertex-term kernel and take the rank of their product by elimination."""
    basis = patch.consistent_basis()
    n = len(basis)
    total = ExactMatrix.identity(patch.field, n)
    for f in range(len(patch.faces)):
        proj = face_projector(patch, f)
        assert (proj @ proj) == proj  # exact projector
        total = proj @ total
    return total.rank()


class MatrixQuotient:
    """Image of the cavity symmetrizers, grade by grade, in pivot columns."""

    def __init__(self, cd, field=None):
        self.cd = cd
        self.field = field = field or CycField(cd.p)
        self.raw_basis = enumerate_basis(cd)
        self.raw_index = {v: i for i, v in enumerate(self.raw_basis)}
        self.grade_of = []
        self.grades = {}
        for i, vec in enumerate(self.raw_basis):
            labels = edge_labels_of(cd, vec)
            grade = tuple(labels[eid] for eid in cd.structure.external)
            self.grade_of.append(grade)
            self.grades.setdefault(grade, []).append(i)
        # columns of each symmetrizer, as rows of its transpose
        syms = [cavity_symmetrizer(cd, cav, field).transpose()
                for cav in range(len(cd.structure.cavities))]
        self.image = {}
        for grade, idxs in self.grades.items():
            local = {raw: j for j, raw in enumerate(idxs)}
            total = ExactMatrix.identity(field, len(idxs))
            for sym in syms:
                block = ExactMatrix(field, len(idxs), len(idxs))
                for j, raw in enumerate(idxs):
                    for i, v in sym.rows[raw].items():
                        assert i in local, "bubble left the grade"
                        block.set(local[i], j, v)
                total = block @ total
            self.image[grade] = total.image_basis()

    def grade_dims(self):
        return {g: len(cols) for g, cols in self.image.items() if cols}

    def boundary_matrix(self, grade, g, h):
        """(target grade, boundary (g, h) in image coordinates)."""
        field = self.field
        idxs = self.grades[grade]
        target = None
        raw_cols = []
        for col in self.image[grade]:
            acc = {}
            for j, coeff in col.items():
                phase, new = boundary_action(
                    self.cd, self.raw_basis[idxs[j]], g, h, field)
                i = self.raw_index[new]
                assert target in (None, self.grade_of[i]), "grade split"
                target = self.grade_of[i]
                row = self.grades[target].index(i)
                acc[row] = acc.get(row, field.zero) + coeff * phase
            raw_cols.append({r: v for r, v in acc.items() if v})
        if target is None:
            return grade, ExactMatrix(field, 0, 0)
        tcols = self.image[target]
        mat = ExactMatrix(field, len(tcols), len(raw_cols))
        for j, raw in enumerate(raw_cols):
            for i, v in enumerate(solve_in_span(field, tcols, raw)):
                mat.set(i, j, v)
        return target, mat

    def multiplicity(self, d):
        """Rank of d's idempotent on the quotient at its source grade."""
        field = self.field
        expr = idempotent(d, field)
        cols = self.image.get(expr.source, ())
        if not cols:
            return 0
        total = ExactMatrix(field, len(cols), len(cols))
        for coeff, (g, h) in expr.terms:
            target, mat = self.boundary_matrix(expr.source, g, h)
            assert target == expr.source
            total = total + mat.scale(coeff)
        return total.rank()

    def decompose(self):
        lower, upper = self.cd.structure.external_walls()
        out = []
        for d in enumerate_defects(lower, upper):
            mult = self.multiplicity(d)
            if mult:
                out.append((d, mult))
        return out
