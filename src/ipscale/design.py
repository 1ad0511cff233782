"""Design matrices for contingency-table and general log-affine models.

A :class:`DesignMatrix` holds one matrix, and its kind decides the storage:

* binary designs (contingency-table and raking designs, where only a
  column's support matters) are a CSC array, per-column sorted row indices,
  all values 1;
* non-negative and signed designs are a dense row-major float array.

The kind is read from the entries, and the storage chosen from it, in one
place (``DesignMatrix._from_matrix``, shared by :meth:`DesignMatrix.from_dense`,
:meth:`DesignMatrix.drop_rows`, :func:`read_triplet_csv` and the table
builders).  Every product is written with operators both storages share, so
no caller branches on it.

Cells of a multi-way table enumerate in row-major order of the factor
levels, last factor fastest.  A table design is a list of terms, each a set
of factors, and one builder (``_term_design``) codes them all: every term
adds one block of columns, one per combination of its factors' levels in
the same row-major order, and a cell falls in the column of its own levels.
Levels count from 2 for the dummies of a table model (the intercept, the
main effects and the interactions up to its order), so level 1 of every
factor is the reference, and from 1 for the indicators of a raking design
(the intercept and the margins).  The full table, the observed cells and
the raking design differ only in their cells, terms and first level.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from ._io import fmt, flat_keys, read_json, read_keyed_csv, write_csv, write_json

# Hard cap on table size so N = prod(levels) blow-ups fail loudly instead of
# exhausting memory during construction.
MAX_CELLS = 2**31 - 1

KIND_BINARY = "binary"
KIND_NON_NEGATIVE = "non_negative"
KIND_GENERAL = "general"


class DesignError(ValueError):
    """Invalid design construction (zero rows/columns, bad schema, ...)."""


class EmptyColumnError(DesignError):
    """A column of a table design has no cell among the selected cells."""


@dataclass(frozen=True)
class TableSchema:
    """Factors of a multi-way contingency table plus the interaction order.

    factors: ordered (name, levels) pairs, levels >= 2.
    interaction_order: 1 = main effects, 2 = all two-way, 3 = all three-way.
    """

    factors: tuple[tuple[str, int], ...]
    interaction_order: int = 1

    def __post_init__(self):
        if len(self.factors) < 1:
            raise DesignError("schema needs at least one factor")
        object.__setattr__(self, "factors", tuple((str(n), int(m)) for n, m in self.factors))
        names = [n for n, _ in self.factors]
        if len(set(names)) != len(names):
            raise DesignError("duplicate factor names")
        for name, m in self.factors:
            if m < 2:
                raise DesignError(f"factor {name!r} needs >= 2 levels, got {m}")
        if self.interaction_order not in (1, 2, 3):
            raise DesignError("interaction_order must be 1, 2 or 3")
        n_cells = 1
        for _, m in self.factors:
            n_cells *= m
            if n_cells > MAX_CELLS:
                raise DesignError(f"table has more than {MAX_CELLS} cells")
        # computed once: the per-cell conversions below run once per table cell
        strides = [1] * len(self.factors)
        for k in range(len(strides) - 2, -1, -1):
            strides[k] = strides[k + 1] * self.factors[k + 1][1]
        object.__setattr__(self, "_strides", tuple(strides))

    @property
    def n_factors(self) -> int:
        return len(self.factors)

    @property
    def n_cells(self) -> int:
        out = 1
        for _, m in self.factors:
            out *= m
        return out

    def level_grid(self) -> np.ndarray:
        """(r, n_cells) 1-based factor levels of every cell, in cell order."""
        return np.indices([m for _, m in self.factors]).reshape(self.n_factors, -1) + 1

    def cell_levels(self, index: int) -> tuple[int, ...]:
        """1-based factor levels of the cell at a flat index."""
        return tuple(int(index // s) % m + 1 for s, (_, m) in zip(self._strides, self.factors))

    def cell_index(self, levels) -> int:
        """Flat index of a cell given 1-based factor levels."""
        strides = self._strides
        idx = 0
        for k, (name, m) in enumerate(self.factors):
            lev = int(levels[k])
            if not 1 <= lev <= m:
                raise DesignError(f"level {lev} out of range for factor {name!r}")
            idx += (lev - 1) * strides[k]
        return idx

    def to_dict(self) -> dict:
        return {
            "factors": [{"name": n, "levels": m} for n, m in self.factors],
            "order": self.interaction_order,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TableSchema":
        try:
            factors = tuple((f["name"], int(f["levels"])) for f in d["factors"])
            order = int(d.get("order", 1))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DesignError(f"malformed schema: {exc}") from exc
        return cls(factors=factors, interaction_order=order)

    def save(self, path) -> None:
        write_json(path, self.to_dict())

    @classmethod
    def load(cls, path) -> "TableSchema":
        return cls.from_dict(read_json(path, DesignError))


def _dense(A) -> np.ndarray:
    """A design matrix, or a slice of one, as a dense array."""
    return A.toarray() if sp.issparse(A) else np.ascontiguousarray(A)


def nnz(A) -> float:
    """Stored entries of a design matrix or column block: the work-model size."""
    return float(A.nnz) if sp.issparse(A) else float(A.size)


def _classify(values: np.ndarray) -> str:
    """Kind of a design from its entries (a sparse one's stored values)."""
    if not np.all(np.isfinite(values)):
        raise DesignError("design entries must be finite")
    if np.all((values == 0.0) | (values == 1.0)):
        return KIND_BINARY
    return KIND_NON_NEGATIVE if np.all(values >= 0.0) else KIND_GENERAL


def _slope_view(M):
    """X[:, 1:] sharing the memory of M; for CSC, the arrays after column 0."""
    if not sp.issparse(M):
        return M[:, 1:]
    a = M.indptr[1]
    return sp.csc_array((M.data[a:], M.indices[a:], M.indptr[1:] - a),
                        shape=(M.shape[0], M.shape[1] - 1))


class DesignMatrix:
    """N x p design held as one ``matrix``, with column labels and cached
    row sums, intercept test and slope operator X[:, 1:].

    ``matrix`` is a CSC array (sorted int64 indices, all values 1) when the
    design is binary and a C-contiguous float array otherwise; the choice is
    made by kind in :meth:`_from_matrix` alone.
    The products use only operators both storages share, so callers never
    see which one it is.  ``csc`` and ``dense`` are read-only views of
    ``matrix`` for the storage it has.  Immutable after construction but for
    the views of its CSC indices that :meth:`disjoint_runs` caches: no accessor
    keeps a copy, and all are read-only and safe to share across workers.
    """

    def __init__(self, matrix, kind: str, labels=None):
        self.matrix = matrix
        self.kind = kind
        self.column_labels = self._labels(labels, matrix.shape[1])
        # |X| is X itself unless the design is signed: no copy of a binary design
        abs_matrix = abs(matrix) if kind == KIND_GENERAL else matrix
        self._abs_row_sums = abs_matrix.sum(axis=1)
        if np.any(self._abs_row_sums == 0.0):
            raise DesignError("design has an all-zero row")
        if np.any(abs_matrix.sum(axis=0) == 0.0):
            raise DesignError("design has an all-zero column")
        self.row_sum_max = float(self._abs_row_sums.max())
        self.has_intercept = bool(np.all(_dense(matrix[:, [0]]) == 1.0))
        self._slope = _slope_view(matrix)
        self._transpose = matrix.T
        self._runs = None

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_dense(cls, arr, labels=None) -> "DesignMatrix":
        """Classify a dense array as binary / non-negative / general and wrap it."""
        arr = np.ascontiguousarray(np.asarray(arr, dtype=np.float64))
        if arr.ndim != 2:
            raise DesignError("design must be 2-D")
        return cls._from_matrix(arr, labels)

    @classmethod
    def _from_matrix(cls, A, labels) -> "DesignMatrix":
        """Classify a sparse or dense float matrix by its entries and store it
        as its kind requires: CSC when binary, dense otherwise."""
        kind = _classify(A.data if sp.issparse(A) else A)
        if kind != KIND_BINARY:
            return cls(_dense(A), kind, labels)
        csc = sp.csc_array(A).astype(np.float64, copy=False)
        csc.sort_indices()
        if csc.indices.dtype != np.int64:
            csc = sp.csc_array(
                (csc.data, csc.indices.astype(np.int64), csc.indptr.astype(np.int64)),
                shape=csc.shape)
        return cls(csc, KIND_BINARY, labels)

    @staticmethod
    def _labels(labels, p) -> list[str]:
        if labels is None:
            return [f"x{j}" for j in range(p)]
        labels = [str(s) for s in labels]
        if len(labels) != p:
            raise DesignError("label count does not match column count")
        return labels

    # -- accessors ---------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    @property
    def n_rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_cols(self) -> int:
        return self.matrix.shape[1]

    @property
    def csc(self) -> sp.csc_array | None:
        """``matrix`` when the design is binary, else None (read-only)."""
        return self.matrix if self.kind == KIND_BINARY else None

    @property
    def dense(self) -> np.ndarray | None:
        """``matrix`` when the design is not binary, else None (read-only)."""
        return None if self.kind == KIND_BINARY else self.matrix

    @property
    def nnz(self) -> float:
        return nnz(self.matrix)

    def abs_row_sums(self) -> np.ndarray:
        """Row sums of |x_ij|; the max is the design's scaling constant R."""
        return self._abs_row_sums

    def col_support(self, j: int) -> np.ndarray:
        """Sorted row indices with x_ij != 0 (binary designs only)."""
        if self.kind != KIND_BINARY:
            raise DesignError("col_support requires a binary design")
        M = self.matrix
        return M.indices[M.indptr[j]:M.indptr[j + 1]]

    def disjoint_runs(self) -> list[tuple[int, np.ndarray]]:
        """The column order 0..p-1 cut into maximal runs of consecutive
        columns whose supports are pairwise disjoint and all of one size n
        (binary designs only).  The columns of a run commute under coordinate
        updates, so a cyclic sweep may update a run at once; on a table model
        a run is the levels of one term.  Each run is its first column and its
        (k, n) row indices, a view of the CSC indices.  Computed once.
        """
        if self._runs is None:
            if self.kind != KIND_BINARY:
                raise DesignError("disjoint_runs requires a binary design")
            indices, ptr = self.matrix.indices, self.matrix.indptr.tolist()
            covered = np.zeros(self.n_rows, dtype=bool)
            covered[indices[:ptr[1]]] = True
            starts = [0]
            for j in range(1, self.n_cols):
                a, supp = starts[-1], indices[ptr[j]:ptr[j + 1]]
                if ptr[j + 1] - ptr[j] != ptr[a + 1] - ptr[a] or covered[supp].any():
                    covered[indices[ptr[a]:ptr[j]]] = False
                    starts.append(j)
                covered[supp] = True
            bounds = zip(starts, starts[1:] + [self.n_cols])
            self._runs = [(a, indices[ptr[a]:ptr[b]].reshape(b - a, -1)) for a, b in bounds]
        return self._runs

    def columns(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(sorted row indices, values) of the nonzero entries of every column."""
        M = sp.csc_array(self.matrix)
        bounds = M.indptr.tolist()
        return [(M.indices[a:b], M.data[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]

    def col_dot(self, j: int, v: np.ndarray) -> float:
        """Exact inner product <x_j, v>; a gather-sum on a binary design."""
        if self.kind == KIND_BINARY:
            return float(v[self.col_support(j)].sum())
        return float(self.matrix[:, j] @ v)

    def matvec(self, b: np.ndarray) -> np.ndarray:
        return self.matrix @ b

    def rmatvec(self, v: np.ndarray) -> np.ndarray:
        return self._transpose @ v

    def slope_matvec(self, b_slope: np.ndarray) -> np.ndarray:
        """X[:, 1:] @ b_slope (intercept column excluded)."""
        return self._slope @ b_slope

    def slope_rmatvec(self, v: np.ndarray) -> np.ndarray:
        # not self._slope.T @ v: on dense designs that sums in another order
        # than the full product, and the traces are pinned to this one
        return self.rmatvec(v)[1:]

    def slope_row_sums(self) -> np.ndarray:
        """Row sums of X[:, 1:] (used by scaling updates on the slope part)."""
        ones = np.ones(self.n_cols)
        ones[0] = 0.0
        return self.matvec(ones)

    def submatrix(self, cols):
        """Column subset, in the design's storage; C-contiguous when dense, as
        products of the Fortran-ordered ``arr[:, cols]`` would sum in another order."""
        M, cols = self.matrix, np.asarray(cols, dtype=np.int64)
        return M[:, cols] if sp.issparse(M) else np.take(M, cols, axis=1)

    def column_block(self, cols) -> "ColumnBlock":
        """Column subset as an operator for repeated products and Grams."""
        return ColumnBlock(self.submatrix(cols))

    def toarray(self) -> np.ndarray:
        """A dense copy of the matrix."""
        arr = _dense(self.matrix)
        return arr.copy() if arr is self.matrix else arr

    def pos_neg_parts(self):
        """(positive part, negative part) of the matrix, both >= 0.  Unless the
        design is signed they are the matrix itself and an all-zero CSC array,
        so a binary design stays sparse; a signed design's parts are two new
        dense arrays on every call, which only the caller keeps."""
        arr = self.matrix
        if self.kind != KIND_GENERAL:
            return arr, sp.csc_array(arr.shape)
        neg = np.subtract(0.0, arr, out=np.zeros_like(arr), where=arr < 0)
        return np.where(arr > 0, arr, 0.0), neg

    def weighted_gram(self, w: np.ndarray) -> np.ndarray:
        """Dense X^T diag(w) X."""
        return ColumnBlock(self.matrix).gram(w)

    def gram_slope(self) -> np.ndarray:
        """Dense X[:,1:]^T X[:,1:]."""
        return ColumnBlock(self._slope).gram()

    def col_sums(self) -> np.ndarray:
        return self.rmatvec(np.ones(self.n_rows))

    def drop_rows(self, keep: np.ndarray) -> "DesignMatrix":
        """Design restricted to the kept rows; re-validated and re-classified."""
        return DesignMatrix._from_matrix(self.matrix[np.asarray(keep), :], self.column_labels)


class ColumnBlock:
    """A column block of a design, in its storage, and the one place a Gram
    is taken: b-ips and mm-parallel use a block for several products, and the
    design's own Grams wrap its matrix or its slope view in a block per call.

    On a sparse block, which is binary, ``gram(w)`` is one numeric pass of
    scipy's sparse product, with no symbolic pass to size its output: a
    g x g Gram has at most g^2 entries.  The left factor is block^T diag(w),
    read off the block's own CSC arrays (the CSR arrays of its transpose)
    with ``w`` gathered at their row indices as its values; the right factor
    is a row-major copy of the block, made at the first Gram (a block whose
    first gradient check already passes makes none) and never written.
    Each entry sums its rows' weights in ascending row order, times 1, as
    scipy's ``S.T @ (w[:, None] * S)`` does, so both give the same bits.
    On a dense block ``gram`` is that product in BLAS; without ``w`` either
    is block^T block.  The design keeps no block and no copy of its own.
    """

    def __init__(self, matrix):
        self.matrix = matrix
        self.shape = matrix.shape
        self.nnz = nnz(matrix)
        self._transpose = matrix.T

    @cached_property
    def _row_major(self):
        """Row-major copy of a sparse block, all values 1."""
        return self.matrix.tocsr()

    def matvec(self, d: np.ndarray) -> np.ndarray:
        return self.matrix @ d

    def rmatvec(self, v: np.ndarray) -> np.ndarray:
        return self._transpose @ v

    def gram(self, w: np.ndarray | None = None) -> np.ndarray:
        """Dense block^T diag(w) block (block^T block without ``w``)."""
        M = self.matrix
        if not sp.issparse(M):
            return self._transpose @ (M if w is None else w[:, None] * M)
        R, g = self._row_major, self.shape[1]
        # scipy's private numeric kernel, the second pass of `@`; its first
        # pass only sizes the output, so it runs only past 64 MB of g^2 buffers
        size = g * g
        if size > 1 << 22:
            size = _sparsetools.csr_matmat_maxnnz(g, g, M.indptr, M.indices, R.indptr, R.indices)
        indptr, indices = np.empty(g + 1, M.indices.dtype), np.empty(size, M.indices.dtype)
        data = np.empty(size)
        _sparsetools.csr_matmat(g, g, M.indptr, M.indices, M.data if w is None else w[M.indices],
                                R.indptr, R.indices, R.data, indptr, indices, data)
        out = np.zeros((g, g))
        _sparsetools.csr_todense(g, g, indptr, indices, data, out)
        return out


# -- contingency-table designs ---------------------------------------------


def _table_terms(schema: TableSchema) -> list[tuple[int, ...]]:
    """Terms of the table model: the intercept, then every factor subset of
    size 1 .. ``interaction_order``, smaller subsets first."""
    r = schema.n_factors
    return [()] + [t for k in range(1, schema.interaction_order + 1)
                   for t in itertools.combinations(range(r), k)]


def _term_design(schema: TableSchema, levels: np.ndarray, terms, first: int):
    """CSC matrix and column labels of a term-coded design over some cells.

    ``levels`` is an (r, n) array of 1-based factor levels, one column per
    cell.  Each term, a sorted tuple of factors, adds one column block: a
    column per combination of its factors' levels ``first .. m_k``, in
    row-major order (last factor fastest).  A cell has a 1 in the column of
    its own levels on the term, and in none of the block when one of them is
    below ``first``: 2 gives dummy coding, 1 margin indicators.

    The CSC arrays are allocated once, at their final size, and written in
    place: a first pass counts each column's cells for ``indptr``, a second
    writes each term's cells sorted stably by column into ``indices``, so
    rows ascend within every column.  Besides them, only arrays of n
    entries are allocated.
    """
    names = [n for n, _ in schema.factors]
    sizes = [m for _, m in schema.factors]
    n = levels.shape[1]
    widths = [math.prod(sizes[k] - first + 1 for k in term) for term in terms]

    def block(term):
        """The term's cells (None: all n) and their columns within its block."""
        code = np.zeros(n, dtype=np.int64)
        for k in term:
            code *= sizes[k] - first + 1
            code += levels[k] - first
        if first == 1:  # levels count from 1, so every cell is in the block
            return None, code
        cells = np.flatnonzero(levels[list(term)].min(axis=0, initial=first) >= first)
        return cells, code[cells]

    indptr = np.zeros(sum(widths) + 1, dtype=np.int64)
    np.cumsum(np.concatenate([np.bincount(block(term)[1], minlength=width)
                              for term, width in zip(terms, widths)]), out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.int64)
    start = 0
    for term, width in zip(terms, widths):
        cells, code = block(term)
        # codes narrowed to 8 or 16 bits take numpy's radix sort
        order = np.argsort(code.astype(np.min_scalar_type(width - 1)), kind="stable")
        indices[indptr[start]:indptr[start + width]] = order if cells is None else cells[order]
        start += width
    labels = ["*".join(f"{names[k]}={lev}" for k, lev in zip(term, combo)) or "(intercept)"
              for term in terms
              for combo in itertools.product(*(range(first, sizes[k] + 1) for k in term))]
    return sp.csc_array((np.ones(len(indices)), indices, indptr), shape=(n, len(labels))), labels


def build_table_design(schema: TableSchema) -> DesignMatrix:
    """Binary design of a homogeneous-association table model.

    Columns: intercept, then dummies for levels 2..m_k of each factor in
    schema order, then interaction columns (products of dummies) for every
    factor pair/triple up to ``interaction_order``, levels enumerated
    lexicographically.
    """
    return DesignMatrix._from_matrix(
        *_term_design(schema, schema.level_grid(), _table_terms(schema), 2))


def _canonical_margins(schema: TableSchema, margins_spec) -> list[tuple[int, ...]]:
    name_to_idx = {n: k for k, (n, _) in enumerate(schema.factors)}
    out = []
    for subset in margins_spec:
        idxs = []
        for f in subset:
            if isinstance(f, str):
                if f not in name_to_idx:
                    raise DesignError(f"unknown factor {f!r} in margin spec")
                idxs.append(name_to_idx[f])
            else:
                k = int(f)
                if not 0 <= k < schema.n_factors:
                    raise DesignError(f"factor index {k} out of range")
                idxs.append(k)
        if not idxs:
            raise DesignError("empty margin subset")
        if len(set(idxs)) != len(idxs):
            raise DesignError("repeated factor inside a margin subset")
        out.append(tuple(sorted(idxs)))
    if len(set(out)) != len(out):
        raise DesignError("duplicate margin subsets")
    return out


def build_raking_design(schema: TableSchema, margins_spec, level_rows=None) -> DesignMatrix:
    """Binary design whose columns are margin-cell indicators.

    One intercept column, then for each requested factor subset one column
    per level combination of that subset (full indicator coding, no
    reference level dropped).  The fitted mean's inner product with a
    margin column is exactly that margin of the table.

    Its rows are every cell of the table in row-major order, or, given
    ``level_rows`` as for :func:`build_design_for_cells`, those cells in that
    order; a margin cell that none of them reaches raises
    :class:`EmptyColumnError`.
    """
    terms = [()] + _canonical_margins(schema, margins_spec)
    levels = schema.level_grid() if level_rows is None else _selected_levels(schema, level_rows)
    matrix, labels = _term_design(schema, levels, terms, 1)
    if level_rows is not None:
        empty = _empty_columns(matrix)
        if len(empty):
            raise EmptyColumnError(f"column {labels[empty[0]]!r} is all-zero on the selected cells")
    return DesignMatrix._from_matrix(matrix, labels)


def _selected_levels(schema: TableSchema, level_rows) -> np.ndarray:
    """(r, n) levels of the cells given as an (n, r) array of level rows."""
    level_rows = np.asarray(level_rows, dtype=np.int64)
    if level_rows.ndim != 2 or level_rows.shape[1] != schema.n_factors:
        raise DesignError("level rows must be (n_obs, n_factors)")
    for k, (name, m) in enumerate(schema.factors):
        col = level_rows[:, k]
        if np.any((col < 1) | (col > m)):
            raise DesignError(f"level out of range for factor {name!r}")
    return level_rows.T


def _empty_columns(matrix: sp.csc_array) -> np.ndarray:
    """Indices of the columns of a CSC array that hold no entry."""
    return np.flatnonzero(np.diff(matrix.indptr) == 0)


def build_design_for_cells(schema: TableSchema, level_rows: np.ndarray,
                           drop_empty: bool = True) -> tuple[DesignMatrix, list[str]]:
    """Table-model design restricted to the observed cells.

    ``level_rows`` is an (n_obs, r) array of 1-based factor levels, one row
    per observed cell.  Columns whose indicator never fires among the
    observed cells are non-identifiable; with ``drop_empty`` they are removed
    and their labels returned, otherwise construction fails.
    """
    levels = _selected_levels(schema, level_rows)
    if levels.shape[1] == 0:
        raise DesignError("no observed cells")
    matrix, labels = _term_design(schema, levels, _table_terms(schema), 2)
    empty = _empty_columns(matrix)
    dropped = [labels[j] for j in empty]
    if dropped and not drop_empty:
        raise EmptyColumnError(f"column {dropped[0]!r} is all-zero on the observed cells")
    if dropped:
        # an empty column holds no entry: dropping it drops only its indptr step
        kept = np.setdiff1d(np.arange(len(labels)), empty)
        labels = [labels[j] for j in kept]
        matrix = sp.csc_array((matrix.data, matrix.indices, matrix.indptr[np.r_[0, kept + 1]]),
                              shape=(matrix.shape[0], len(kept)))
    return DesignMatrix._from_matrix(matrix, labels), dropped


def expected_column_count(schema: TableSchema) -> int:
    """Independent-parameter count of the table model: the sizes of its
    term blocks."""
    return sum(math.prod(schema.factors[k][1] - 1 for k in term) for term in _table_terms(schema))


# -- triplet CSV interchange -------------------------------------------------


def write_triplet_csv(X: DesignMatrix, path) -> None:
    """Sparse triplet export: header ``row,col,value``, 0-based indices."""
    coo = sp.coo_array(X.matrix)
    order = np.lexsort((coo.col, coo.row))
    # columns and values repeat, so each distinct one is formatted once
    values, value_codes = np.unique(coo.data[order], return_inverse=True)
    write_csv(path, ["row", "col", "value"],
              [coo.row[order], ([str(j) for j in range(X.n_cols)], coo.col[order]),
               ([fmt(v) for v in values], value_codes)])


def read_triplet_csv(path, n_rows=None, n_cols=None, labels=None) -> DesignMatrix:
    """Load a triplet CSV written by :func:`write_triplet_csv`.

    Its ``row``, ``col`` and ``value`` columns are held to the checks of
    every keyed CSV (``_io.read_keyed_csv``), and every row and column must
    have an entry.  The entries go into a sparse array, and zero values are
    dropped; only a design that is not binary is then densified, since
    dense is its storage.  All of this is checked before anything of the
    design's size is allocated.
    """
    (rows, cols), vals = read_keyed_csv(path, DesignError, [("row", n_rows), ("col", n_cols)],
                                        "value", 0, "triplet record")
    n = n_rows if n_rows is not None else int(rows.max()) + 1
    p = n_cols if n_cols is not None else int(cols.max()) + 1
    for name, index, size in (("row", rows, n), ("column", cols, p)):
        gap = _first_gap(index, size)
        if gap is not None:
            raise DesignError(f"{path}: {name} {gap} has no entry")
    # no gaps, so n and p are at most the entry count and the flat keys fit in int64
    flat_keys(path, DesignError, [("row", n), ("col", p)], [rows, cols], 0)
    nonzero = vals != 0.0
    coo = sp.coo_array((vals[nonzero], (rows[nonzero], cols[nonzero])), shape=(n, p))
    return DesignMatrix._from_matrix(coo, labels)


def _first_gap(index: np.ndarray, size: int):
    """The least of 0 .. size-1 missing from a non-negative ``index``, or
    None.  Allocates nothing larger than ``index``: a larger ``size`` must
    leave a gap, which a sort of ``index`` then finds."""
    if size <= len(index):
        missing = np.flatnonzero(np.bincount(index, minlength=size) == 0)
        return int(missing[0]) if len(missing) else None
    present = np.unique(index)
    beyond = np.flatnonzero(present != np.arange(len(present)))
    return int(beyond[0]) if len(beyond) else len(present)
