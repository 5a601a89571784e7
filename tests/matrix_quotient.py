"""Reference bubble quotient by exact linear algebra.

The engine's `QuotientRep` counts orbits of the bubble group and takes
multiplicities from characters. This module computes the same quotient the
slow way, as independent as the engine allows: per grade, the product of the
cavity symmetrizers (`engine.cavity_symmetrizer`, built from averaged bubble
matrices), its pivot image basis, every boundary image solved in that span,
and each defect's multiplicity as the exact rank of its idempotent's matrix.
"""

from annulus.defects import enumerate_defects, idempotent
from annulus.engine import (
    boundary_action, cavity_symmetrizer, edge_labels_of, enumerate_basis,
)
from annulus.linalg import ExactMatrix, solve_in_span
from annulus.scalars import CycField


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
