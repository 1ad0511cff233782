"""Design construction, accessors, and file interchange."""

import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from ipscale import model as mdl
from ipscale.design import (
    DesignError,
    DesignMatrix,
    EmptyColumnError,
    TableSchema,
    build_design_for_cells,
    build_raking_design,
    build_table_design,
    expected_column_count,
    nnz,
    read_triplet_csv,
    write_triplet_csv,
)
from ipscale.model import ProblemInstance

from conftest import make_rng, random_run_design


def dense_table_design(schema: TableSchema) -> np.ndarray:
    """Independent dense construction of the table model matrix.

    Builds per-factor one-hot level arrays over the cell enumeration and
    multiplies them together, mirroring the dummy-product definition rather
    than the package's support arithmetic.
    """
    sizes = [m for _, m in schema.factors]
    grids = np.meshgrid(*[np.arange(1, m + 1) for m in sizes], indexing="ij")
    levels = np.stack([g.ravel() for g in grids], axis=1)  # (N, r), 1-based
    n = levels.shape[0]
    cols = [np.ones(n)]
    r = len(sizes)
    for k in range(r):
        for lev in range(2, sizes[k] + 1):
            cols.append((levels[:, k] == lev).astype(float))
    if schema.interaction_order >= 2:
        for j, k in itertools.combinations(range(r), 2):
            for lj in range(2, sizes[j] + 1):
                for lk in range(2, sizes[k] + 1):
                    cols.append(((levels[:, j] == lj) & (levels[:, k] == lk)).astype(float))
    if schema.interaction_order >= 3:
        for j, k, l in itertools.combinations(range(r), 3):
            for lj in range(2, sizes[j] + 1):
                for lk in range(2, sizes[k] + 1):
                    for ll in range(2, sizes[l] + 1):
                        cols.append(
                            ((levels[:, j] == lj) & (levels[:, k] == lk) & (levels[:, l] == ll)).astype(float)
                        )
    return np.stack(cols, axis=1)


def count_columns_by_enumeration(schema: TableSchema) -> int:
    """Combinatorial counter: enumerate dummy products one by one."""
    sizes = [m for _, m in schema.factors]
    count = 1
    for m in sizes:
        count += len(range(2, m + 1))
    for order in (2, 3):
        if schema.interaction_order >= order:
            for combo in itertools.combinations(range(len(sizes)), order):
                count += len(list(itertools.product(*[range(2, sizes[k] + 1) for k in combo])))
    return count


class TestTableSchema:
    def test_rejects_single_level_factor(self):
        with pytest.raises(DesignError):
            TableSchema(factors=(("a", 1),), interaction_order=1)

    def test_rejects_bad_order(self):
        with pytest.raises(DesignError):
            TableSchema(factors=(("a", 2),), interaction_order=4)

    def test_rejects_oversized_table(self):
        with pytest.raises(DesignError, match="cells"):
            TableSchema(factors=tuple((f"f{i}", 10) for i in range(11)), interaction_order=1)

    def test_cell_enumeration_last_factor_fastest(self):
        schema = TableSchema(factors=(("a", 2), ("b", 3)), interaction_order=1)
        assert [schema.cell_levels(i) for i in range(6)] == [
            (1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)]

    @given(st.integers(0, 199))
    def test_cell_index_roundtrip(self, idx):
        schema = TableSchema(factors=(("a", 4), ("b", 5), ("c", 10)), interaction_order=1)
        assert schema.cell_index(schema.cell_levels(idx)) == idx

    def test_json_roundtrip(self, tmp_path):
        schema = TableSchema(factors=(("x", 3), ("y", 4)), interaction_order=2)
        path = tmp_path / "schema.json"
        schema.save(path)
        assert TableSchema.load(path) == schema


@pytest.mark.parametrize("d", [[1], "x", None, {"factors": 5}, {"factors": [3]},
                               {"factors": [{"name": "a", "levels": "x"}]},
                               {"factors": [{"name": "a", "levels": 1e400}]},
                               {"factors": [{"name": "a", "levels": 2}], "order": "two"}])
def test_schema_from_dict_of_wrong_shape_is_a_design_error(d):
    with pytest.raises(DesignError):
        TableSchema.from_dict(d)


class TestTableDesign:
    def test_single_binary_factor(self):
        schema = TableSchema(factors=(("a", 2),), interaction_order=1)
        X = build_table_design(schema)
        assert X.shape == (2, 2)
        assert np.array_equal(X.toarray(), [[1.0, 0.0], [1.0, 1.0]])

    def test_moderate_dimensions(self):
        schema = TableSchema(factors=tuple((f"f{i}", 10) for i in range(4)), interaction_order=2)
        X = build_table_design(schema)
        assert X.shape == (10_000, 523)

    def test_column_count_matches_combinatorial_counter(self):
        rng = make_rng(11)
        for _ in range(20):
            r = int(rng.integers(1, 5))
            factors = tuple((f"f{i}", int(rng.integers(2, 6))) for i in range(r))
            order = int(rng.integers(1, 4))
            schema = TableSchema(factors=factors, interaction_order=order)
            X = build_table_design(schema)
            assert X.n_cols == count_columns_by_enumeration(schema)
            assert X.n_cols == expected_column_count(schema)

    def test_matches_independent_dense_construction(self):
        schema = TableSchema(factors=(("a", 3), ("b", 2), ("c", 4)), interaction_order=3)
        X = build_table_design(schema)
        dense = dense_table_design(schema)
        assert np.array_equal(X.toarray(), dense)

    def test_sparse_dense_col_dot_agree_exactly(self):
        schema = TableSchema(factors=(("a", 3), ("b", 4)), interaction_order=2)
        X = build_table_design(schema)
        dense = dense_table_design(schema)
        rng = make_rng(3)
        v = rng.integers(-5, 20, size=X.n_rows).astype(float)
        for j in range(X.n_cols):
            assert X.col_dot(j, v) == float(dense[:, j] @ v)
        assert np.array_equal(X.rmatvec(v), dense.T @ v)

    def test_no_zero_rows_or_columns(self):
        rng = make_rng(5)
        for _ in range(10):
            r = int(rng.integers(1, 4))
            schema = TableSchema(
                factors=tuple((f"f{i}", int(rng.integers(2, 5))) for i in range(r)),
                interaction_order=int(rng.integers(1, 4)))
            X = build_table_design(schema)
            arr = X.toarray()
            assert np.all(arr.sum(axis=0) > 0)
            assert np.all(arr.sum(axis=1) > 0)

    def test_row_sum_max_cached(self):
        schema = TableSchema(factors=(("a", 3), ("b", 3)), interaction_order=2)
        X = build_table_design(schema)
        assert X.row_sum_max == np.abs(X.toarray()).sum(axis=1).max()


class TestDesignMatrixValidation:
    def test_zero_column_rejected(self):
        arr = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(DesignError, match="column"):
            DesignMatrix.from_dense(arr)

    def test_zero_row_rejected(self):
        arr = np.array([[1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(DesignError, match="row"):
            DesignMatrix.from_dense(arr)

    def test_kind_classification(self):
        assert DesignMatrix.from_dense([[1.0, 0.0], [0.0, 1.0]]).kind == "binary"
        assert DesignMatrix.from_dense([[0.5, 0.1], [0.2, 1.0]]).kind == "non_negative"
        assert DesignMatrix.from_dense([[0.5, -0.1], [0.2, 1.0]]).kind == "general"

    def test_col_dot_examples(self):
        X = DesignMatrix.from_dense([[1.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        v = np.array([5.0, 7.0, 9.0])
        assert X.col_dot(0, v) == 21.0
        assert X.col_dot(1, v) == 14.0
        Xg = DesignMatrix.from_dense([[1.0, 1.0], [1.0, -2.0]])
        assert Xg.col_dot(1, np.array([3.0, 1.0])) == 1.0


class TestRakingDesign:
    def test_two_way_margin_columns(self):
        schema = TableSchema(factors=(("row", 2), ("col", 2)), interaction_order=1)
        X = build_raking_design(schema, [["row"], ["col"]])
        assert X.n_cols == 5
        assert X.column_labels[1] == "row=1"
        assert np.array_equal(X.col_support(1), [0, 1])
        assert np.array_equal(X.col_support(3), [0, 2])  # col=1 at cells (1,1),(2,1)

    def test_three_way_pairwise_margins(self):
        schema = TableSchema(factors=(("a", 2), ("b", 2), ("c", 2)), interaction_order=1)
        X = build_raking_design(schema, [["a", "b"], ["a", "c"], ["b", "c"]])
        assert X.n_cols == 1 + 4 + 4 + 4

    def test_duplicate_subsets_rejected(self):
        schema = TableSchema(factors=(("a", 2), ("b", 2)), interaction_order=1)
        with pytest.raises(DesignError, match="duplicate"):
            build_raking_design(schema, [["a"], ["a"]])
        with pytest.raises(DesignError, match="duplicate"):
            build_raking_design(schema, [["a", "b"], ["b", "a"]])


class TestObservedCellDesign:
    def test_full_table_matches_builder(self):
        schema = TableSchema(factors=(("a", 3), ("b", 2)), interaction_order=2)
        levels = np.array([schema.cell_levels(i) for i in range(schema.n_cells)])
        X, dropped = build_design_for_cells(schema, levels)
        assert dropped == []
        assert np.array_equal(X.toarray(), build_table_design(schema).toarray())

    def test_unobserved_level_drops_columns(self):
        schema = TableSchema(factors=(("a", 3), ("b", 2)), interaction_order=1)
        levels = np.array([[1, 1], [1, 2], [2, 1], [2, 2]])  # level a=3 never seen
        X, dropped = build_design_for_cells(schema, levels)
        assert dropped == ["a=3"]
        assert X.n_cols == 3


def table_labels(schema: TableSchema) -> list[str]:
    """Column labels of the table model, in the column order of ``dense_table_design``."""
    names = [n for n, _ in schema.factors]
    sizes = [m for _, m in schema.factors]
    labels = ["(intercept)"]
    for order in range(1, schema.interaction_order + 1):
        for combo in itertools.combinations(range(len(sizes)), order):
            for levs in itertools.product(*[range(2, sizes[k] + 1) for k in combo]):
                labels.append("*".join(f"{names[k]}={lev}" for k, lev in zip(combo, levs)))
    return labels


def table_cells(schema: TableSchema) -> np.ndarray:
    """(N, r) 1-based levels of every cell, last factor fastest."""
    grids = np.meshgrid(*[np.arange(1, m + 1) for _, m in schema.factors], indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


@st.composite
def _schemas(draw):
    sizes = draw(st.lists(st.integers(2, 5), min_size=1, max_size=4))
    return TableSchema(tuple((f"f{k}", m) for k, m in enumerate(sizes)), draw(st.integers(1, 3)))


class TestTermCodedDesigns:
    """The observed-cell and raking builders against dense constructions."""

    @settings(deadline=None)
    @given(_schemas(), st.integers(0, 2**16), st.floats(0.0, 1.0), st.booleans())
    def test_observed_cells_match_dense_rows(self, schema, seed, frac, hide_level):
        rng = make_rng(seed)
        cells = table_cells(schema)
        allowed = np.ones(len(cells), dtype=bool)
        if hide_level:  # one level of one factor is never observed
            k = int(rng.integers(schema.n_factors))
            allowed &= cells[:, k] != int(rng.integers(1, schema.factors[k][1] + 1))
        candidates = rng.permutation(np.flatnonzero(allowed))
        rows = candidates[:max(1, int(frac * len(candidates)))]
        want = dense_table_design(schema)[rows]
        used = want.any(axis=0)
        labels = table_labels(schema)
        X, dropped = build_design_for_cells(schema, cells[rows])
        assert np.array_equal(X.toarray(), want[:, used])
        assert X.column_labels == [lab for lab, u in zip(labels, used) if u]
        assert dropped == [lab for lab, u in zip(labels, used) if not u]
        if dropped:
            with pytest.raises(DesignError, match="all-zero"):
                build_design_for_cells(schema, cells[rows], drop_empty=False)

    @settings(deadline=None)
    @given(_schemas(), st.data())
    def test_raking_design_matches_dense_margin_indicators(self, schema, data):
        r = schema.n_factors
        names = [n for n, _ in schema.factors]
        margins = data.draw(st.lists(
            st.lists(st.integers(0, r - 1), min_size=1, max_size=min(3, r), unique=True),
            min_size=1, max_size=4, unique_by=lambda m: tuple(sorted(m))))
        cells = table_cells(schema)
        cols, labels = [np.ones(len(cells))], ["(intercept)"]
        for margin in margins:
            margin = sorted(margin)
            for levs in itertools.product(*[range(1, schema.factors[k][1] + 1) for k in margin]):
                cols.append(np.all(cells[:, margin] == levs, axis=1).astype(float))
                labels.append("*".join(f"{names[k]}={lev}" for k, lev in zip(margin, levs)))
        # margins named in drawn factor order, which need not be sorted
        X = build_raking_design(schema, [[names[k] for k in m] for m in margins])
        assert np.array_equal(X.toarray(), np.stack(cols, axis=1))
        assert X.column_labels == labels

    def test_no_observed_cells_rejected(self):
        schema = TableSchema(factors=(("a", 3), ("b", 2)), interaction_order=1)
        with pytest.raises(DesignError, match="no observed cells"):
            build_design_for_cells(schema, np.zeros((0, 2), dtype=np.int64))

    @settings(deadline=None)
    @given(_schemas(), st.data())
    def test_raking_design_on_cells_is_the_row_subset(self, schema, data):
        r = schema.n_factors
        margins = data.draw(st.lists(
            st.lists(st.integers(0, r - 1), min_size=1, max_size=min(3, r), unique=True),
            min_size=1, max_size=4, unique_by=lambda m: tuple(sorted(m))))
        rows = np.array(data.draw(st.lists(st.integers(0, schema.n_cells - 1), unique=True)),
                        dtype=np.int64)
        levels = table_cells(schema)[rows]
        full = build_raking_design(schema, margins)
        try:
            want = full.drop_rows(rows)
        except DesignError:  # a margin cell none of the rows reaches
            with pytest.raises(EmptyColumnError, match="all-zero on the selected cells"):
                build_raking_design(schema, margins, levels)
            return
        got = build_raking_design(schema, margins, levels)
        for name in ("data", "indices", "indptr"):
            a, b = getattr(got.matrix, name), getattr(want.matrix, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert got.shape == want.shape and got.column_labels == full.column_labels

    @pytest.mark.parametrize("build", ["table", "raking"])
    def test_build_peak_memory_per_stored_entry(self, build):
        # the final CSC arrays take 16 bytes per stored entry
        if build == "table":  # the 10^4 x 523 moderate table
            schema = TableSchema(tuple((f"f{i}", 10) for i in range(4)), 2)
            make = lambda: build_table_design(schema)  # noqa: E731
        else:  # the 7^6-cell seed table raked to its 15 two-way margins
            schema = TableSchema(tuple((f"f{i}", 7) for i in range(6)), 1)
            make = lambda: build_raking_design(  # noqa: E731
                schema, list(itertools.combinations(range(6), 2)))
        tracemalloc.start()
        try:
            X = make()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * X.nnz, f"{peak / X.nnz:.1f} bytes per stored entry"


class TestTripletCsv:
    def test_roundtrip_binary(self, tmp_path):
        schema = TableSchema(factors=(("a", 3), ("b", 2)), interaction_order=2)
        X = build_table_design(schema)
        path = tmp_path / "design.csv"
        write_triplet_csv(X, path)
        Y = read_triplet_csv(path, n_rows=X.n_rows, n_cols=X.n_cols)
        assert np.array_equal(X.toarray(), Y.toarray())
        assert Y.kind == "binary"

    def test_roundtrip_general_lossless(self, tmp_path):
        rng = make_rng(9)
        arr = np.hstack([np.ones((6, 1)), rng.normal(size=(6, 3))])
        X = DesignMatrix.from_dense(arr)
        path = tmp_path / "design.csv"
        write_triplet_csv(X, path)
        Y = read_triplet_csv(path)
        assert np.array_equal(X.toarray(), Y.toarray())

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,0,1\n")
        with pytest.raises(DesignError, match="header"):
            read_triplet_csv(path)

    @pytest.mark.parametrize("record", ["0,0,1", "0,0,2"])
    def test_repeated_entry_rejected(self, tmp_path, record):
        # summing would turn a binary design into a non-binary one, and the
        # last record winning would drop data without a word
        path = tmp_path / "bad.csv"
        path.write_text(f"row,col,value\n0,0,1\n1,0,1\n1,1,1\n{record}\n")
        with pytest.raises(DesignError, match=r"entry \(0, 0\) is given more than once"):
            read_triplet_csv(path)

    def test_binary_read_stays_sparse_in_memory(self, tmp_path):
        # the 10^4 x 523 moderate table; a dense n x p read alone is 41.8 MB
        X = build_table_design(TableSchema(tuple((f"f{i}", 10) for i in range(4)), 2))
        path = tmp_path / "design.csv"
        write_triplet_csv(X, path)
        tracemalloc.start()
        try:
            Y = read_triplet_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 250 * X.nnz, f"{peak / X.nnz:.0f} bytes per stored entry"
        assert Y.kind == "binary"
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(Y.matrix, name), getattr(X.matrix, name))

    def test_bad_record_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("row,col,value\n0,0,1\nx,0,1\n")
        with pytest.raises(DesignError, match="bad.csv:3"):
            read_triplet_csv(path)

    @pytest.mark.parametrize("record, n_rows, n_cols", [
        ("-1,1,1", None, None),
        ("0,-1,1", None, None),
        ("3,0,1", 3, None),
        ("0,2,1", None, 2),
    ])
    def test_out_of_range_index_reports_line(self, tmp_path, record, n_rows, n_cols):
        path = tmp_path / "bad.csv"
        path.write_text(f"row,col,value\n0,0,1\n1,0,1\n2,1,1\n{record}\n")
        with pytest.raises(DesignError, match="bad.csv:5"):
            read_triplet_csv(path, n_rows=n_rows, n_cols=n_cols)


def _storage_design(kind: str) -> DesignMatrix:
    if kind == "binary":
        return build_table_design(TableSchema(factors=(("a", 3), ("b", 4), ("c", 2)), interaction_order=2))
    rng = make_rng(17)
    n = 40
    slopes = rng.uniform(0.0, 0.6, size=(n, 5)) if kind == "non_negative" else rng.normal(0.0, 0.4, size=(n, 5))
    return DesignMatrix.from_dense(np.hstack([np.ones((n, 1)), slopes]))


def _close(got, want) -> bool:
    got = got.toarray() if sp.issparse(got) else np.asarray(got)
    want = np.asarray(want)
    return got.shape == want.shape and \
        float(np.max(np.abs(got - want), initial=0.0)) <= 1e-12 * max(1.0, float(np.max(np.abs(want))))


class TestDesignContract:
    """The same accessors on both storages: a binary CSC design and dense ones."""

    @pytest.fixture(params=["binary", "non_negative", "general"])
    def design(self, request):
        X = _storage_design(request.param)
        assert X.kind == request.param
        return X

    def test_storage_follows_kind(self, design):
        M = design.matrix
        if design.kind == "binary":
            assert isinstance(M, sp.csc_array) and M.indices.dtype == np.int64
            assert design.csc is M and design.dense is None
        else:
            assert isinstance(M, np.ndarray) and M.flags["C_CONTIGUOUS"] and M.dtype == np.float64
            assert design.dense is M and design.csc is None

    def test_products_match_dense_products(self, design):
        A = design.toarray()
        n, p = A.shape
        rng = make_rng(23)
        b, v, w = rng.normal(size=p), rng.normal(size=n), rng.uniform(0.5, 2.0, size=n)
        cols = np.array([p - 1, 0, 2])
        checks = {
            "matvec": (design.matvec(b), A @ b),
            "rmatvec": (design.rmatvec(v), A.T @ v),
            "slope_matvec": (design.slope_matvec(b[1:]), A[:, 1:] @ b[1:]),
            "slope_rmatvec": (design.slope_rmatvec(v), A[:, 1:].T @ v),
            "slope_row_sums": (design.slope_row_sums(), A[:, 1:].sum(axis=1)),
            "col_sums": (design.col_sums(), A.sum(axis=0)),
            "abs_row_sums": (design.abs_row_sums(), np.abs(A).sum(axis=1)),
            "row_sum_max": (design.row_sum_max, np.abs(A).sum(axis=1).max()),
            "weighted_gram": (design.weighted_gram(w), A.T @ (w[:, None] * A)),
            "gram_slope": (design.gram_slope(), A[:, 1:].T @ A[:, 1:]),
            "submatrix": (design.submatrix(cols), A[:, cols]),
            "pos_part": (design.pos_neg_parts()[0], np.maximum(A, 0.0)),
            "neg_part": (design.pos_neg_parts()[1], np.maximum(-A, 0.0)),
            "col_dot": ([design.col_dot(j, v) for j in range(p)], A.T @ v),
        }
        bad = [name for name, (got, want) in checks.items() if not _close(got, want)]
        assert bad == []
        assert design.has_intercept
        for j, (rows, vals) in enumerate(design.columns()):
            assert np.array_equal(rows, np.nonzero(A[:, j])[0])
            assert np.array_equal(vals, A[rows, j])

    def test_slope_matvec_is_the_slope_block_product(self, design):
        p = design.n_cols
        b = make_rng(29).normal(size=p - 1)
        assert np.array_equal(design.slope_matvec(b), design.submatrix(np.arange(1, p)) @ b)

    def test_pos_neg_parts_keep_the_storage_unless_signed(self, design):
        pos, neg = design.pos_neg_parts()
        if design.kind == "general":
            assert isinstance(pos, np.ndarray) and isinstance(neg, np.ndarray)
        else:
            assert pos is design.matrix
            assert sp.issparse(neg) and neg.shape == design.shape and neg.nnz == 0

    def test_drop_rows_keeps_storage(self, design):
        keep = np.arange(1, design.n_rows)
        Y = design.drop_rows(keep)
        assert Y.kind == design.kind
        assert type(Y.matrix) is type(design.matrix)
        assert np.array_equal(Y.toarray(), design.toarray()[keep])
        assert Y.column_labels == design.column_labels


def test_negative_part_has_no_negative_zero():
    A = np.array([[1.0, -0.0, 2.5], [1.0, -1.5, 0.0], [1.0, 3.0, -2.0]])
    X = DesignMatrix.from_dense(A)
    assert X.kind == "general"
    pos, neg = X.pos_neg_parts()
    assert neg.tobytes() == np.where(A < 0, -A, 0.0).tobytes()
    assert pos.tobytes() == np.where(A > 0, A, 0.0).tobytes()


def test_design_grams_equal_the_reference_exactly():
    schema = TableSchema(factors=(("a", 3), ("b", 4), ("c", 2)), interaction_order=2)
    rng = make_rng(41)
    inst = ProblemInstance.from_counts(build_table_design(schema),
                                       rng.poisson(5.0, size=schema.n_cells) + 1.0)
    X = inst.design
    assert X.kind == "binary"
    w = rng.uniform(0.1, 3.0, size=X.n_rows)
    assert np.array_equal(X.weighted_gram(w), reference_gram(X.matrix, w))
    assert np.array_equal(X.gram_slope(), reference_gram(X.matrix[:, 1:]))
    slope = rng.normal(0.0, 0.5, size=X.n_cols - 1)
    weights, _ = mdl._offset_softmax(inst, X.slope_matvec(slope))
    for cols in (rng.choice(X.n_cols - 1, size=5, replace=False), None):
        S = X.submatrix(np.arange(1, X.n_cols) if cols is None else cols + 1)
        u = S.T @ weights
        want = inst.total_count * (reference_gram(S, weights) - np.outer(u, u))
        assert np.array_equal(mdl.reparam_hessian(inst, slope, cols=cols), want)


def test_large_sparse_gram_is_sized_by_its_entries():
    # 3438^2 slope pairs, of which 3.4% meet in a cell: buffers for all of
    # them would take twice the dense Gram again
    X = build_table_design(TableSchema(tuple((f"f{i}", 10) for i in range(4)), 3))
    tracemalloc.start()
    try:
        G = X.gram_slope()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * G.nbytes, f"{peak} bytes"
    assert np.array_equal(G, reference_gram(X.matrix[:, 1:]))


def test_binary_pos_neg_parts_stay_sparse_in_memory():
    # the moderate table's dense parts would take 2 x 41.8 MB
    X = build_table_design(TableSchema(tuple((f"f{i}", 10) for i in range(4)), 2))
    tracemalloc.start()
    try:
        X.pos_neg_parts()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * X.n_cols, f"{peak} bytes"


@st.composite
def _binary_blocks(draw):
    """A binary design (intercept first, every column used) and a block of
    its columns; optionally one row holds every column."""
    n = draw(st.integers(1, 10))
    p = draw(st.integers(2, 8))
    arr = np.array(draw(st.lists(st.lists(st.booleans(), min_size=p, max_size=p),
                                 min_size=n, max_size=n)), dtype=float)
    arr[:, 0] = 1.0
    if draw(st.booleans()):
        arr[draw(st.integers(0, n - 1)), :] = 1.0
    arr[0, ~arr.any(axis=0)] = 1.0
    cols = draw(st.permutations(range(p)))[:draw(st.integers(1, p))]
    return DesignMatrix.from_dense(arr), np.array(cols)


def reference_gram(S, w=None):
    """S^T diag(w) S (S^T S without w): scipy's sparse product, densified, on
    a sparse block, and BLAS on a dense one."""
    G = S.T @ (S if w is None else w[:, None] * S)
    return G.toarray() if sp.issparse(G) else G


def _block_products(X, cols, seed):
    rng = make_rng(seed)
    w = rng.uniform(0.1, 3.0, size=X.n_rows)
    d, v = rng.normal(size=len(cols)), rng.normal(size=X.n_rows)
    S = X.submatrix(cols)
    blk = X.column_block(cols)
    got = (blk.gram(w), blk.matvec(d), blk.rmatvec(v))
    want = (reference_gram(S, w), S @ d, S.T @ v)
    return blk, S, got, want


class TestColumnBlock:
    """The column-block operator against the products of ``submatrix``."""

    @given(_binary_blocks(), st.integers(0, 2**16))
    def test_binary_block_matches_submatrix_products(self, design_cols, seed):
        X, cols = design_cols
        assert X.kind == "binary"
        blk, S, got, want = _block_products(X, cols, seed)
        for a, b in zip(got, want):
            assert a.shape == b.shape
            assert np.max(np.abs(a - b), initial=0.0) <= 1e-13 * max(1.0, np.max(np.abs(b)))
        assert blk.shape == S.shape and blk.nnz == nnz(S)
        assert np.array_equal(got[0], want[0])

    def test_binary_edge_blocks(self):
        # empty rows, a single column, a row holding every block column, a
        # full block (its pairs of entries in one row outnumber its N * g
        # cells), and a block with no two entries in one row
        arr = np.array([[1, 1, 0, 0, 0, 1],
                        [1, 0, 0, 0, 0, 1],
                        [1, 1, 1, 1, 1, 0],
                        [1, 0, 1, 0, 1, 1],
                        [1, 1, 1, 1, 1, 1]], dtype=float)
        X = DesignMatrix.from_dense(arr)
        for cols in [[2, 3], [4], [4, 1, 2, 3], [0], [0, 1, 2, 3, 4, 5]]:
            _, _, got, want = _block_products(X, np.array(cols), 31)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
        X = DesignMatrix.from_dense(np.array([[1, 1, 0], [1, 0, 1], [1, 0, 0]], dtype=float))
        _, _, got, want = _block_products(X, np.array([1, 2]), 32)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_row_major_copy_is_made_once_and_never_written(self):
        X = DesignMatrix.from_dense(np.array([[1, 1, 0], [1, 1, 1], [1, 0, 1]], dtype=float))
        blk, S = X.column_block([0, 1, 2]), X.submatrix([0, 1, 2])
        assert "_row_major" not in blk.__dict__
        rng = make_rng(33)
        copies = []
        for _ in range(3):
            w = rng.uniform(0.1, 3.0, size=3)
            assert np.array_equal(blk.gram(w), reference_gram(S, w))
            copies.append(blk.__dict__["_row_major"])
            assert np.array_equal(copies[-1].data, np.ones(S.nnz))
        assert all(c is copies[0] for c in copies)

    @given(st.integers(1, 12), st.integers(2, 7), st.integers(0, 2**16), st.data())
    def test_dense_block_is_bitwise_today(self, n, p, seed, data):
        rng = make_rng(seed)
        arr = np.hstack([np.ones((n, 1)), rng.normal(size=(n, p - 1))])
        X = DesignMatrix.from_dense(arr)
        assert X.kind != "binary"
        cols = np.array(data.draw(st.permutations(range(p))))[:data.draw(st.integers(1, p))]
        blk, S, got, want = _block_products(X, cols, seed)
        assert isinstance(blk.matrix, np.ndarray) and blk.matrix.flags["C_CONTIGUOUS"]
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        assert blk.nnz == nnz(S)


class TestDisjointRuns:
    """The column order cut into maximal runs of consecutive columns with
    pairwise disjoint supports of one size."""

    def test_moderate_table_runs_are_its_terms(self):
        schema = TableSchema(tuple((f"f{k}", 10) for k in range(1, 5)), 2)
        X = build_table_design(schema)
        runs = X.disjoint_runs()
        assert [(a, R.shape) for a, R in runs] == (
            [(0, (1, 10_000))] + [(1 + 9 * t, (9, 1000)) for t in range(4)]
            + [(37 + 81 * t, (81, 100)) for t in range(6)])
        assert X.disjoint_runs() is runs  # computed once

    @given(st.integers(0, 2**16), st.integers(10, 40), st.integers(1, 7))
    def test_runs_partition_and_are_maximal(self, seed, n_rows, n_blocks):
        X = random_run_design(make_rng(seed), n_rows, n_blocks)
        runs = X.disjoint_runs()
        assert [a for a, _ in runs][0] == 0
        bounds = [a for a, _ in runs] + [X.n_cols]
        assert all(len(R) == b - a for (a, R), b in zip(runs, bounds[1:]))
        for a, R in runs:
            assert np.shares_memory(R, X.csc.indices)
            for j, rows in enumerate(R, start=a):
                assert np.array_equal(rows, X.col_support(j))
            assert len(np.unique(R)) == R.size  # pairwise disjoint
        for (a, R), b in zip(runs[:-1], bounds[1:]):  # the next column cannot join
            nxt = X.col_support(b)
            assert len(nxt) != R.shape[1] or np.intersect1d(nxt, R).size > 0

    def test_non_binary_design_has_no_runs(self):
        X = DesignMatrix.from_dense(np.array([[1.0, 0.5], [1.0, 2.0]]))
        with pytest.raises(DesignError, match="binary"):
            X.disjoint_runs()
