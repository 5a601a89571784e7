"""Exact dense/sparse-by-rows linear algebra over Q(zeta_N).

Gaussian elimination with deterministic pivoting (first nonzero entry in
column order, scanning remaining rows top to bottom), so image bases are
reproducible: image_basis returns the first independent columns.
"""

from __future__ import annotations

from .scalars import Cyc, CycField


class ExactMatrix:
    """Matrix with Cyc entries; rows are dicts col -> nonzero Cyc."""

    def __init__(self, field: CycField, nrows: int, ncols: int, rows=None):
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.rows: list[dict[int, Cyc]] = rows if rows is not None else [
            {} for _ in range(nrows)
        ]

    @classmethod
    def identity(cls, field: CycField, n: int) -> "ExactMatrix":
        m = cls(field, n, n)
        for i in range(n):
            m.rows[i][i] = field.one
        return m

    @classmethod
    def from_rows(cls, field: CycField, data) -> "ExactMatrix":
        nrows = len(data)
        ncols = len(data[0]) if nrows else 0
        m = cls(field, nrows, ncols)
        for i, row in enumerate(data):
            for j, v in enumerate(row):
                if v:
                    m.rows[i][j] = v
        return m

    def copy(self) -> "ExactMatrix":
        return ExactMatrix(
            self.field, self.nrows, self.ncols, [dict(r) for r in self.rows]
        )

    def set(self, r: int, c: int, v: Cyc):
        if v:
            self.rows[r][c] = v
        else:
            self.rows[r].pop(c, None)

    def get(self, r: int, c: int) -> Cyc:
        return self.rows[r].get(c, self.field.zero)

    def add_to(self, r: int, c: int, v: Cyc):
        cur = self.rows[r].get(c)
        new = v if cur is None else cur + v
        self.set(r, c, new)

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        out = self.copy()
        for i, row in enumerate(other.rows):
            for j, v in row.items():
                out.add_to(i, j, v)
        return out

    def scale(self, s) -> "ExactMatrix":
        out = ExactMatrix(self.field, self.nrows, self.ncols)
        for i, row in enumerate(self.rows):
            for j, v in row.items():
                out.set(i, j, v * s)
        return out

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        assert self.ncols == other.nrows
        out = ExactMatrix(self.field, self.nrows, other.ncols)
        for i, row in enumerate(self.rows):
            acc: dict[int, Cyc] = {}
            for k, v in row.items():
                for j, w in other.rows[k].items():
                    prod = v * w
                    cur = acc.get(j)
                    acc[j] = prod if cur is None else cur + prod
            out.rows[i] = {j: v for j, v in acc.items() if v}
        return out

    def transpose(self) -> "ExactMatrix":
        out = ExactMatrix(self.field, self.ncols, self.nrows)
        for i, row in enumerate(self.rows):
            for j, v in row.items():
                out.rows[j][i] = v
        return out

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            return False
        return all(a == b for a, b in zip(self.rows, other.rows))

    def is_zero(self) -> bool:
        return all(not row for row in self.rows)

    def _eliminate(self, ncols: int | None = None):
        """Row echelon on a working copy, pivoting in the first `ncols`
        columns (all by default). Returns (rows, pivot columns): the pivot
        rows in pivot order, then the rows left without a pivot."""
        ncols = self.ncols if ncols is None else ncols
        rows = [dict(r) for r in self.rows]
        rank = 0
        pivots: list[int] = []
        order = list(range(self.nrows))
        for col in range(ncols):
            if rank == self.nrows:
                break
            piv = None
            for idx in range(rank, self.nrows):
                if rows[order[idx]].get(col):
                    piv = idx
                    break
            if piv is None:
                continue
            order[rank], order[piv] = order[piv], order[rank]
            prow = rows[order[rank]]
            pinv = prow[col].inverse()
            for idx in range(rank + 1, self.nrows):
                row = rows[order[idx]]
                entry = row.get(col)
                if not entry:
                    continue
                f = entry * pinv
                for j, v in prow.items():
                    cur = row.get(j, self.field.zero)
                    new = cur.sub_mul(f, v)
                    if new:
                        row[j] = new
                    else:
                        row.pop(j, None)
            rank += 1
            pivots.append(col)
        return [rows[i] for i in order], pivots

    def rank(self) -> int:
        return len(self._eliminate()[1])

    def pivot_columns(self) -> list[int]:
        return self._eliminate()[1]

    def image_basis(self) -> list[dict[int, Cyc]]:
        """The first linearly independent columns, in column order."""
        cols = self.pivot_columns()
        out = []
        for c in cols:
            col = {}
            for i, row in enumerate(self.rows):
                v = row.get(c)
                if v:
                    col[i] = v
            out.append(col)
        return out

    def column(self, c: int) -> dict[int, Cyc]:
        return {i: row[c] for i, row in enumerate(self.rows) if c in row}


def solve_in_span(field: CycField, basis: list[dict[int, Cyc]], target: dict[int, Cyc]):
    """Coefficients expressing target in the given independent columns.

    Eliminates the augmented matrix [basis | target] in the basis columns,
    then substitutes back. Raises ValueError if target is outside the span.
    """
    n = len(basis)
    support = set(target).union(*basis)
    index = {r: i for i, r in enumerate(sorted(support))}
    aug = ExactMatrix(field, len(index), n + 1)
    for j, col in enumerate(basis):
        for r, v in col.items():
            aug.rows[index[r]][j] = v
    for r, v in target.items():
        aug.rows[index[r]][n] = v
    rows, pivots = aug._eliminate(n)
    if any(row.get(n) for row in rows[len(pivots):]):
        raise ValueError("target outside span")
    coeffs = [field.zero] * n
    for r in reversed(range(len(pivots))):
        row = rows[r]
        acc = row.get(n, field.zero)
        for c in pivots[r + 1:]:
            if c in row:
                acc = acc.sub_mul(row[c], coeffs[c])
        if acc:
            coeffs[pivots[r]] = acc * row[pivots[r]].inverse()
    return coeffs
