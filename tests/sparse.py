"""Sparse row-indexed incidence matrices and the vector kernels built on them.

The matrix-form reference (``matrix_reference.py``) runs on these two types;
the package itself counts label sets. Entries are strictly positive; absent
means zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class ShapeMismatchError(ValueError):
    """Operands have incompatible dimensions."""


class ConflictingWeightError(ValueError):
    """The same (row, col) cell was given two different weights."""


@dataclass
class SparseVector:
    length: int
    data: dict[int, float] = field(default_factory=dict)

    @classmethod
    def from_dense(cls, values) -> SparseVector:
        return cls(len(values), {i: float(v) for i, v in enumerate(values) if v})

    @classmethod
    def unit(cls, length: int, index: int) -> SparseVector:
        if not 0 <= index < length:
            raise ShapeMismatchError(f"unit index {index} out of range for length {length}")
        return cls(length, {index: 1.0})

    def _check(self, other: SparseVector) -> None:
        if self.length != other.length:
            raise ShapeMismatchError(f"vector lengths differ: {self.length} vs {other.length}")

    def dot(self, other: SparseVector) -> float:
        self._check(other)
        a, b = self.data, other.data
        if len(b) < len(a):
            a, b = b, a
        return sum(v * b[i] for i, v in a.items() if i in b)

    def hadamard(self, other: SparseVector) -> SparseVector:
        """Elementwise product; support is the intersection of supports."""
        self._check(other)
        a, b = self.data, other.data
        if len(b) < len(a):
            a, b = b, a
        return SparseVector(self.length, {i: v * b[i] for i, v in a.items() if i in b})

    def plus(self, other: SparseVector) -> SparseVector:
        self._check(other)
        out = dict(self.data)
        for i, v in other.data.items():
            s = out.get(i, 0.0) + v
            if s:
                out[i] = s
            else:
                out.pop(i, None)
        return SparseVector(self.length, out)

    def entry_sum(self) -> float:
        return sum(self.data.values())

    def sum_of_squares(self) -> float:
        return sum(v * v for v in self.data.values())

    def binarized(self) -> SparseVector:
        return SparseVector(self.length, {i: 1.0 for i in self.data})

    def support(self) -> frozenset[int]:
        return frozenset(self.data)

    def nnz(self) -> int:
        return len(self.data)

    def is_zero(self) -> bool:
        return not self.data

    def to_dense(self) -> list[float]:
        out = [0.0] * self.length
        for i, v in self.data.items():
            out[i] = v
        return out

    def vecmat(self, matrix: SparseIncidence) -> SparseVector:
        """Row vector times matrix: sum of the matrix rows picked by this vector."""
        if self.length != matrix.n_rows:
            raise ShapeMismatchError(
                f"vector length {self.length} does not match matrix rows {matrix.n_rows}"
            )
        acc: dict[int, float] = {}
        for i, v in self.data.items():
            for j, w in matrix.rows.get(i, {}).items():
                acc[j] = acc.get(j, 0.0) + v * w
        return SparseVector(matrix.n_cols, {j: v for j, v in acc.items() if v})


@dataclass
class SparseIncidence:
    """Row-indexed sparse matrix; the default entry value is 1 (unweighted link)."""

    n_rows: int
    n_cols: int
    rows: dict[int, dict[int, float]] = field(default_factory=dict)

    @classmethod
    def from_entries(cls, n_rows: int, n_cols: int, entries, weighted: bool = False) -> SparseIncidence:
        """Build from (row, col) or (row, col, value) triples.

        Duplicate cells collapse to a single entry; in weighted mode a duplicate
        with a different value is rejected.
        """
        rows: dict[int, dict[int, float]] = {}
        for entry in entries:
            if len(entry) == 2:
                r, c = entry
                v = 1.0
            else:
                r, c, v = entry
                v = float(v)
            if v <= 0:
                raise ValueError(f"entry value must be positive, got {v} at ({r}, {c})")
            if not weighted:
                v = 1.0
            if not (0 <= r < n_rows and 0 <= c < n_cols):
                raise ShapeMismatchError(f"entry ({r}, {c}) outside {n_rows}x{n_cols}")
            cells = rows.setdefault(r, {})
            old = cells.get(c)
            if old is not None and old != v:
                raise ConflictingWeightError(f"cell ({r}, {c}) given weights {old} and {v}")
            cells[c] = v
        return cls(n_rows, n_cols, rows)

    def row(self, i: int) -> SparseVector:
        if not 0 <= i < self.n_rows:
            raise ShapeMismatchError(f"row {i} out of range for {self.n_rows} rows")
        return SparseVector(self.n_cols, dict(self.rows.get(i, {})))

    def transpose(self) -> SparseIncidence:
        out: dict[int, dict[int, float]] = {}
        for r, cells in self.rows.items():
            for c, v in cells.items():
                out.setdefault(c, {})[r] = v
        return SparseIncidence(self.n_cols, self.n_rows, out)

    def matvec(self, vector: SparseVector) -> SparseVector:
        if vector.length != self.n_cols:
            raise ShapeMismatchError(
                f"vector length {vector.length} does not match matrix cols {self.n_cols}"
            )
        data = {}
        for r, cells in self.rows.items():
            s = sum(v * vector.data[c] for c, v in cells.items() if c in vector.data)
            if s:
                data[r] = s
        return SparseVector(self.n_rows, data)

    def matmul(self, other: SparseIncidence) -> SparseIncidence:
        if self.n_cols != other.n_rows:
            raise ShapeMismatchError(
                f"cannot multiply {self.n_rows}x{self.n_cols} by {other.n_rows}x{other.n_cols}"
            )
        out: dict[int, dict[int, float]] = {}
        for r, cells in self.rows.items():
            acc: dict[int, float] = {}
            for k, v in cells.items():
                for j, w in other.rows.get(k, {}).items():
                    acc[j] = acc.get(j, 0.0) + v * w
            acc = {j: v for j, v in acc.items() if v}
            if acc:
                out[r] = acc
        return SparseIncidence(self.n_rows, other.n_cols, out)

    def binarized(self) -> SparseIncidence:
        return SparseIncidence(
            self.n_rows, self.n_cols, {r: {c: 1.0 for c in cells} for r, cells in self.rows.items()}
        )

    def row_normalized(self) -> SparseIncidence:
        """Divide each nonempty row by its entry sum; empty rows stay empty."""
        out = {}
        for r, cells in self.rows.items():
            total = sum(cells.values())
            if total:
                out[r] = {c: v / total for c, v in cells.items()}
        return SparseIncidence(self.n_rows, self.n_cols, out)

    def column_normalized(self) -> SparseIncidence:
        """Divide each nonempty column by its entry sum; empty columns stay empty."""
        col_sums: dict[int, float] = {}
        for cells in self.rows.values():
            for c, v in cells.items():
                col_sums[c] = col_sums.get(c, 0.0) + v
        out = {}
        for r, cells in self.rows.items():
            out[r] = {c: v / col_sums[c] for c, v in cells.items()}
        return SparseIncidence(self.n_rows, self.n_cols, out)

    def entries(self):
        for r in sorted(self.rows):
            cells = self.rows[r]
            for c in sorted(cells):
                yield r, c, cells[c]

    def nnz(self) -> int:
        return sum(len(cells) for cells in self.rows.values())

    def entry_sum(self) -> float:
        return sum(sum(cells.values()) for cells in self.rows.values())

    def to_dense(self) -> list[list[float]]:
        out = [[0.0] * self.n_cols for _ in range(self.n_rows)]
        for r, cells in self.rows.items():
            for c, v in cells.items():
                out[r][c] = v
        return out

