"""Exact linear algebra: Smith form, kernels, quotients, signatures."""

import hashlib
import pickle
import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from steincalc import intlinalg
from steincalc.document import tau_boundary_document
from steincalc.errors import ConsistencyAlarmError
from steincalc.intlinalg import (
    AbelianQuotient,
    kernel_basis,
    mat_mul,
    negated_gram,
    smith_diagonal,
    smith_normal_form,
    symmetric_signature,
)
from steincalc.invariants import h1_boundary


def small_matrix(max_dim=5, max_entry=6):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(st.integers(-max_entry, max_entry), min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            )
        )
    )


def transpose(m):
    return [list(row) for row in zip(*m)]


def naive_mul(a, b):
    cols = len(b[0]) if b else 0
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(cols)] for i in range(len(a))]


def determinant(m):
    """Exact determinant of a square integer matrix, by Fraction elimination."""
    a = [[Fraction(x) for x in row] for row in m]
    n = len(a)
    det = Fraction(1)
    for t in range(n):
        pivot = next((i for i in range(t, n) if a[i][t] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != t:
            a[t], a[pivot] = a[pivot], a[t]
            det = -det
        det *= a[t][t]
        for i in range(t + 1, n):
            f = a[i][t] / a[t][t]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[t])]
    return det


class TestSmithNormalForm:
    def test_diagonal_of_known_matrix(self):
        snf = smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
        assert snf.diag == (2, 2, 156)

    def test_zero_matrix(self):
        snf = smith_normal_form([[0, 0], [0, 0]])
        assert snf.diag == (0, 0)
        assert snf.rank == 0

    def test_identity_transforms_on_known_matrix(self):
        a = [[6, 4], [2, 8]]
        snf = smith_normal_form(a)
        assert mat_mul(mat_mul(snf.row_ops, a), transpose(snf.col_ops)) == [
            [snf.diag[0], 0],
            [0, snf.diag[1]],
        ]

    @settings(max_examples=80)
    @given(small_matrix())
    def test_reconstruction_and_unimodularity(self, a):
        rows, cols = len(a), len(a[0])
        snf = smith_normal_form(a)
        d = mat_mul(mat_mul(snf.row_ops, a), transpose(snf.col_ops))
        for i in range(rows):
            for j in range(cols):
                expected = snf.diag[i] if i == j and i < len(snf.diag) else 0
                assert d[i][j] == expected
        for i in range(len(snf.diag) - 1):
            if snf.diag[i] != 0:
                assert snf.diag[i + 1] % snf.diag[i] == 0
            else:
                assert snf.diag[i + 1] == 0
        assert abs(determinant(snf.row_ops)) == 1
        assert abs(determinant(snf.col_ops)) == 1
        # U A = D V^-1: row i < rank of U A is d_i times an integer row
        for row, d in zip(mat_mul(snf.row_ops, a)[:snf.rank], snf.diag):
            assert all(x % d == 0 for x in row)

    def test_column_stored_v_on_random_shapes(self):
        # U A V = D with col_ops[j] column j of V, on rectangular matrices
        # with 0 rows, 0 columns and rank 0
        rng = random.Random(29)
        shapes = [(0, 0), (0, 4), (3, 0), (2, 2), (9, 40), (40, 9), (5, 7), (7, 5)]
        ranks = set()
        for trial in range(120):
            rows, cols = shapes[trial % len(shapes)]
            density = rng.choice([0.0, 0.1, 0.5, 1.0])
            a = [[rng.randint(-4, 4) if rng.random() < density else 0 for _ in range(cols)] for _ in range(rows)]
            snf = smith_normal_form(a, rows=rows, cols=cols)
            assert len(snf.col_ops) == cols and all(len(col) == cols for col in snf.col_ops)
            for j, col in enumerate(snf.col_ops):
                image = [sum(x * y for x, y in zip(row, col)) for row in a]  # A v_j
                expected = snf.diag[j] if j < snf.rank else 0
                assert [sum(u * x for u, x in zip(urow, image)) for urow in snf.row_ops] == [
                    expected if i == j else 0 for i in range(rows)
                ]
            assert abs(determinant(transpose(snf.col_ops))) == 1
            ranks.add(snf.rank)
        assert 0 in ranks and max(ranks) >= 7

    def test_carried_columns_ride_along(self):
        # eliminating on [A | X] gives the D and V of [A | I] and U X as row_ops
        rng = random.Random(31)
        for trial in range(200):
            rows, cols, width = rng.randint(0, 8), rng.randint(0, 8), rng.randint(0, 3)
            a = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
            carried = [[rng.randint(-9, 9) for _ in range(rows)] for _ in range(width)]
            full = smith_normal_form(a, rows=rows, cols=cols)
            snf = smith_normal_form(a, rows=rows, cols=cols, carried=carried)
            assert (snf.diag, snf.rank, snf.columns) == (full.diag, full.rank, full.columns)
            assert snf.row_ops == [[sum(u * x for u, x in zip(urow, column)) for column in carried]
                                   for urow in full.row_ops]
        with pytest.raises(ValueError, match="carried column 0 has length 1 != 2 rows"):
            smith_normal_form([[1], [2]], carried=[[1]])

    def test_outputs_are_pinned(self):
        # sha256 of (diag, rank, row_ops, col_ops) on seeded matrices of the
        # three shapes the package feeds it: (b-1) x n boundary maps of
        # planar words, square Gram and relation matrices, and the tiny
        # matrices of the generator documents; recorded when V was still
        # held as dense lists during the elimination
        rng = random.Random(4099)
        h = hashlib.sha256()

        def record(a, rows, cols):
            snf = smith_normal_form(a, rows=rows, cols=cols)
            h.update(repr((snf.diag, snf.rank, snf.row_ops, snf.col_ops)).encode())

        for _ in range(300):
            b, n = rng.randint(1, 10), rng.randint(0, 60)
            columns = []
            for _ in range(n):
                kind = rng.random()
                if kind < 0.1:
                    columns.append([-1] * (b - 1))  # outer-parallel curve
                elif kind < 0.15:
                    columns.append([0] * (b - 1))  # empty curve
                else:
                    columns.append([int(rng.random() < 0.4) for _ in range(b - 1)])
            boundary_map = [[col[i] for col in columns] for i in range(b - 1)]
            record(boundary_map, b - 1, n)
            # its B B^T, the planar arc relations
            gram = [[sum(x * y for x, y in zip(u, v)) for v in boundary_map] for u in boundary_map]
            record(gram, b - 1, b - 1)
        for _ in range(200):
            k, span = rng.randint(0, 12), rng.choice([1, 3, 9])
            m = [[0] * k for _ in range(k)]
            for i in range(k):
                for j in range(i, k):
                    m[i][j] = m[j][i] = rng.randint(-span, span) if rng.random() < 0.5 else 0
            record(m, k, k)
        for _ in range(300):
            rows, cols = rng.randint(0, 3), rng.randint(0, 3)
            record([[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)], rows, cols)
        assert h.hexdigest() == "a81b9c3782115fd0d68f25705a669c2957afa2832153cea366c7fef6e6bcf346"

    def test_boundary_multitwist_h1_outputs_are_pinned(self):
        # sha256 of (diag, rank, row_ops, columns) on the H_1 relation
        # matrices of the boundary multitwist at g 0..3, b 2..12, whose 2g
        # handle rows are all zero; recorded when U was still kept apart
        # from A during the elimination
        h = hashlib.sha256()
        zero_rows = 0
        for g in range(4):
            for b in range(2, 13):
                q = h1_boundary(tau_boundary_document(g, b).words["tau_del"])
                a = [[column[i] for column in q.columns] for i in range(q.n)]
                zero_rows += sum(1 for row in a if not any(row))
                snf = smith_normal_form(a, rows=q.n, cols=len(q.columns))
                h.update(repr((snf.diag, snf.rank, snf.row_ops, snf.columns)).encode())
        assert zero_rows == 11 * (0 + 2 + 4 + 6)
        assert h.hexdigest() == "51bf26929c2e34cc9d968c67bf598f315c72cf5f2bd5f0f544a2a882af6b9db6"

    def test_determinant_helper(self):
        assert determinant([]) == 1
        assert determinant([[0, 1], [1, 0]]) == -1
        assert determinant([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]) == 2 * 2 * 156
        assert determinant([[1, 2], [2, 4]]) == 0


def entries(rows, cols, span):
    return st.lists(st.lists(st.integers(-span, span), min_size=cols, max_size=cols), min_size=rows, max_size=rows)


def smith_inputs():
    """(matrix, rows, cols) of shape 0..8 x 0..8: dense draws with negative
    entries, or products P Q through an inner dimension 0..3 (rank at most
    3), with some rows and columns then zeroed."""

    def product(shape):
        rows, inner, cols = shape
        return st.tuples(entries(rows, inner, 4), entries(inner, cols, 4)).map(
            lambda pq: [[sum(x * pq[1][k][j] for k, x in enumerate(prow)) for j in range(cols)] for prow in pq[0]]
        )

    def zeroed(shape):
        rows, cols = shape
        dense = entries(rows, cols, 9)
        low_rank = st.integers(0, 3).flatmap(lambda inner: product((rows, inner, cols)))
        return st.tuples(
            st.just(rows), st.just(cols), st.one_of(dense, low_rank),
            st.sets(st.integers(0, max(rows - 1, 0))), st.sets(st.integers(0, max(cols - 1, 0))),
        )

    def build(data):
        rows, cols, a, zero_rows, zero_cols = data
        a = [[0 if i in zero_rows or j in zero_cols else x for j, x in enumerate(row)] for i, row in enumerate(a)]
        return a, rows, cols

    return st.tuples(st.integers(0, 8), st.integers(0, 8)).flatmap(zeroed).map(build)


class TestSmithDiagonal:
    @settings(max_examples=300)
    @given(smith_inputs())
    def test_matches_the_smith_form(self, data):
        a, rows, cols = data
        assert smith_diagonal(a) == smith_normal_form(a, rows=rows, cols=cols).diag

    def test_matches_the_smith_form_on_larger_seeded_matrices(self):
        rng = random.Random(61)
        for _ in range(12):
            rows, cols, span = rng.randint(9, 20), rng.randint(9, 20), rng.choice([2, 9, 80])
            a = [[rng.randint(-span, span) for _ in range(cols)] for _ in range(rows)]
            for m in (a, [[sum(x * y for x, y in zip(u, v)) for v in a] for u in a]):
                assert smith_diagonal(m) == smith_normal_form(m, rows=len(m), cols=len(m[0])).diag

    def test_dense_40_by_40_gram_matrix(self):
        # unreduced extended-gcd steps let the coefficients of such a matrix
        # blow up (seconds, not milliseconds); the diagonal must be a divisor
        # chain whose product is the determinant, det(A)^2
        rng = random.Random(67)
        a = [[rng.randint(-9, 9) for _ in range(40)] for _ in range(40)]
        diag = smith_diagonal([[sum(x * y for x, y in zip(u, v)) for v in a] for u in a])
        assert all(d2 % d1 == 0 for d1, d2 in zip(diag, diag[1:]))
        product = 1
        for d in diag:
            product *= d
        assert product == determinant(a) ** 2 != 0

    @pytest.mark.parametrize(
        "matrix,expected",
        [
            ([], ()),
            ([[]], ()),
            ([[0]], (0,)),
            ([[-7]], (7,)),
            ([[3, -6, 9]], (3,)),
            ([[4], [6], [-10]], (2,)),
            ([[2, 4, 4], [-6, 6, 12], [10, 4, 16]], (2, 2, 156)),
            ([[2, 0], [0, 3]], (1, 6)),
            ([[0, 0, 0], [0, 4, 0], [0, 0, 6]], (2, 12, 0)),
        ],
    )
    def test_anchors(self, matrix, expected):
        assert smith_diagonal(matrix) == expected


class TestMatMul:
    def test_matches_naive_triple_loop(self):
        rng = random.Random(31)
        for trial in range(300):
            rows, inner, cols = rng.randint(0, 6), rng.randint(0, 6), rng.randint(0, 6)
            if trial % 10 == 0:
                inner = 0  # empty right factor
            density = rng.choice([0.0, 0.1, 0.5, 1.0])
            a = [[rng.randint(-5, 5) if rng.random() < density else 0 for _ in range(inner)] for _ in range(rows)]
            b = [[rng.randint(-5, 5) if rng.random() < density else 0 for _ in range(cols)] for _ in range(inner)]
            if inner and rows and rng.random() < 0.3:
                a[rng.randrange(rows)] = [0] * inner  # a zero row
            if inner and cols and rng.random() < 0.3:
                j = rng.randrange(cols)
                for row in b:
                    row[j] = 0  # a zero column
            assert mat_mul(a, b) == naive_mul(a, b)

    def test_empty_right_factor(self):
        assert mat_mul([[], []], []) == [[], []]
        assert mat_mul([], [[1, 2]]) == []


class TestGram:
    def test_matches_naive_product(self):
        # sparse and dense vectors as {coord: value} dicts, zero vectors, no
        # vectors, length 0; the rows are tuples, as a planar form stores them
        rng = random.Random(37)
        for _ in range(300):
            count, length = rng.randint(0, 8), rng.randint(0, 12)
            density = rng.choice([0.0, 0.2, 0.5, 1.0])
            vectors = [[rng.randint(-5, 5) if rng.random() < density else 0 for _ in range(length)] for _ in range(count)]
            sparse = [{k: x for k, x in enumerate(vec) if x} for vec in vectors]
            assert negated_gram(sparse) == tuple(tuple(-sum(x * y for x, y in zip(u, v)) for v in vectors) for u in vectors)


class TestKernel:
    def test_lantern_right_side_columns_have_trivial_kernel(self):
        assert kernel_basis([[1, 0, 1], [1, 1, 0], [0, 1, 1]]) == []

    def test_boundary_multitwist_kernel_is_diagonal_vector(self):
        # columns: -(1,1,1), e1, e2, e3
        a = [[-1, 1, 0, 0], [-1, 0, 1, 0], [-1, 0, 0, 1]]
        basis = kernel_basis(a)
        assert len(basis) == 1
        v = basis[0]
        assert all(abs(x) == abs(v[0]) for x in v) and abs(v[0]) == 1

    @settings(max_examples=60)
    @given(small_matrix())
    def test_kernel_vectors_annihilate(self, a):
        for v in kernel_basis(a):
            assert all(sum(row[j] * v[j] for j in range(len(v))) == 0 for row in a)


def order_of(q, v):
    return q.order_and_reduce(v)[0]


def reduce_of(q, v):
    return q.order_and_reduce(v)[1]


class TestAbelianQuotient:
    def test_cyclic_quotient(self):
        q = AbelianQuotient.from_relations(1, [[5]])
        assert q.invariant_factors == (5,)
        assert q.free_rank == 0
        assert order_of(q, [10]) == 1 and order_of(q, [3]) != 1
        assert order_of(q, [1]) == 5
        assert order_of(q, [2]) == 5

    def test_mixed_quotient(self):
        # Z^3 / <2e1, 3e2> = Z/2 + Z/3 + Z = Z/6 + Z
        q = AbelianQuotient.from_relations(3, [[2, 0, 0], [0, 3, 0]])
        assert q.invariant_factors == (6,)
        assert q.free_rank == 1
        assert order_of(q, [0, 0, 1]) is None
        assert order_of(q, [1, 1, 0]) == 6

    def test_reduce_is_canonical(self):
        q = AbelianQuotient.from_relations(2, [[4, 0]])
        r1 = reduce_of(q, [5, 2])
        r2 = reduce_of(q, [1, 2])
        assert r1 == r2
        assert order_of(q, [x - y for x, y in zip([5, 2], r1)]) == 1

    @pytest.mark.parametrize("columns,bad", [([[2, 0, 5]], 0), ([[2]], 0), ([[1, 0], [3]], 1)])
    def test_ragged_relation_columns_are_rejected(self, columns, bad):
        # a long column used to lose its tail silently, a short one to raise IndexError
        with pytest.raises(ValueError, match=f"relation column {bad} has length"):
            AbelianQuotient.from_relations(2, columns)
        with pytest.raises(ValueError, match=f"relation column {bad} has length"):
            AbelianQuotient(2, columns)

    def test_no_relations(self):
        q = AbelianQuotient.from_relations(2, [])
        assert q.invariant_factors == ()
        assert q.free_rank == 2
        assert order_of(q, [1, 0]) != 1

    @settings(max_examples=150)
    @given(
        st.integers(1, 5).flatmap(
            lambda n: st.tuples(
                st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n), max_size=6),
                st.lists(st.integers(-30, 30), min_size=n, max_size=n),
                st.lists(st.integers(-4, 4), min_size=6, max_size=6),
            )
        )
    )
    def test_reduce_is_a_class_function(self, data):
        relations, v, coeffs = data
        q = AbelianQuotient.from_relations(len(v), relations)
        rep = reduce_of(q, v)
        shifted = list(v)
        for c, column in zip(coeffs, relations):
            shifted = [x + c * y for x, y in zip(shifted, column)]
        assert reduce_of(q, shifted) == rep
        assert order_of(q, [x - y for x, y in zip(v, rep)]) == 1
        assert reduce_of(q, rep) == rep

    def test_transforms_wait_for_a_reduction(self, monkeypatch):
        # from_relations computes nothing, the report reads smith_diagonal
        # alone, and each query runs one Smith form carrying its vector and
        # no U
        calls = []
        real_snf, real_diagonal = intlinalg.smith_normal_form, intlinalg.smith_diagonal

        def recording_snf(*a, carried=None, **k):
            calls.append(("snf", None if carried is None else [list(c) for c in carried]))
            return real_snf(*a, carried=carried, **k)

        monkeypatch.setattr(intlinalg, "smith_normal_form", recording_snf)
        monkeypatch.setattr(intlinalg, "smith_diagonal", lambda *a: calls.append("diagonal") or real_diagonal(*a))
        q = AbelianQuotient.from_relations(3, [[2, 0, 0], [0, 3, 0]])
        assert calls == []
        assert q.report() == [[6], 1] and calls == ["diagonal"]
        assert order_of(q, [1, 1, 0]) == 6 and reduce_of(q, [3, 3, 0]) == reduce_of(q, [1, 0, 0])
        assert calls == ["diagonal", ("snf", [[1, 1, 0]]), ("snf", [[3, 3, 0]]), ("snf", [[1, 0, 0]])]
        # with a reduction first, the diagonal is read from its Smith form
        calls.clear()
        q = AbelianQuotient.from_relations(3, [[2, 0, 0], [0, 3, 0]])
        q.order_and_reduce([1, 1, 1])
        assert q.report() == [[6], 1] and calls == [("snf", [[1, 1, 1]])]

    def test_diagonal_mismatch_raises(self, monkeypatch):
        q = AbelianQuotient.from_relations(1, [[5]])
        monkeypatch.setattr(intlinalg, "smith_diagonal", lambda matrix: (1,))
        assert q.invariant_factors == ()
        with pytest.raises(ConsistencyAlarmError, match="Smith diagonal"):
            q.order_and_reduce([1])

    def test_value_equality(self):
        # a quotient is the value of its presentation: n and the relation
        # columns in order
        q = AbelianQuotient.from_relations(2, [[4, 0], [0, 1]])
        twin = AbelianQuotient.from_relations(2, [(4, 0), (0, 1)])
        assert q == twin and hash(q) == hash(twin) == hash((2, ((4, 0), (0, 1))))
        assert q != AbelianQuotient.from_relations(2, [[0, 1], [4, 0]])  # the columns permuted
        assert q != AbelianQuotient.from_relations(2, [[4, 0], [0, -1]])  # same group, another presentation
        assert q != AbelianQuotient.from_relations(2, [[8, 0], [0, 1]])
        assert q != AbelianQuotient.from_relations(3, [[4, 0, 0], [0, 1, 0]])
        assert q != (2, ((4, 0), (0, 1)))

    def test_copies_leave_the_diagonal_unset_until_read(self):
        q = AbelianQuotient.from_relations(2, [[4, 0], [0, 6]])
        assert q.diag == (2, 12)
        twin = pickle.loads(pickle.dumps(q))
        assert twin == q and not hasattr(twin, "_diag")
        assert twin.report() == [[2, 12], 0] and twin._diag == (2, 12)

    # (n, relation columns, D, U, A V, report, v, reduce(v), order(v)): U and
    # A V are those of the Smith form of A, as the quotient built them when
    # it kept both views; the quotient answers the rest
    ANCHORS = [
        (0, [], (), [], [], [[], 0], [], [], 1),
        (1, [], (), [[1]], [], [[], 1], [4], [4], None),
        (3, [], (), [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [], [[], 3], [1, -2, 0], [1, -2, 0], None),
        (0, [[]], (), [], [[]], [[], 0], [], [], 1),
        (1, [[0]], (0,), [[1]], [[0]], [[], 1], [0], [0], 1),
        (1, [[-6]], (6,), [[-1]], [[-6]], [[6], 0], [4], [-2], 3),
        (3, [[0, 4, 6]], (2,), [[0, -1, 1], [1, 0, 0], [0, 3, -2]], [[0, 4, 6]], [[2], 2], [5, 2, 3], [5, 2, 3], None),
        (3, [[0, 4, 6]], (2,), [[0, -1, 1], [1, 0, 0], [0, 3, -2]], [[0, 4, 6]], [[2], 2], [0, 2, 3], [0, 2, 3], 2),
        (2, [[-1, 5]], (1,), [[-1, 0], [5, 1]], [[-1, 5]], [[], 1], [3, 1], [0, 16], None),
    ]

    @pytest.mark.parametrize("n,columns,diag,row_ops,relations,report,v,rep,order", ANCHORS)
    def test_anchors(self, n, columns, diag, row_ops, relations, report, v, rep, order):
        # no relations (n x 0, 1 x 0 among them) and one relation (n x 1)
        q = AbelianQuotient(n, columns)
        assert (q.report(), q.order_and_reduce(v), q.diag) == (report, (order, rep), diag)
        a = [[column[i] for column in columns] for i in range(n)]
        snf = smith_normal_form(a, rows=n, cols=len(columns))
        product = [[sum(a[i][k] * x for k, x in column.items()) for i in range(n)] for column in snf.columns]
        assert (snf.diag, snf.row_ops, product) == (diag, row_ops, relations)

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_queries_match_the_transform_oracles(self, data):
        n = data.draw(st.integers(0, 12), label="rows")
        cols = data.draw(st.integers(0, 12), label="columns")
        columns = data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                                     min_size=cols, max_size=cols), label="relations")
        if n:
            for i in data.draw(st.sets(st.integers(0, n - 1), max_size=3), label="zero rows"):
                columns = [column[:i] + [0] + column[i + 1:] for column in columns]
        if cols:
            for j in data.draw(st.sets(st.integers(0, cols - 1), max_size=3), label="zero columns"):
                columns[j] = [0] * n
        vectors = data.draw(st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=1, max_size=3))
        check_queries(n, columns, vectors)

    def test_queries_match_the_transform_oracles_on_seeded_matrices(self):
        rng = random.Random(4099)
        for _ in range(300):
            n, cols = rng.randint(0, 12), rng.randint(0, 12)
            columns = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(cols)]
            for i in rng.sample(range(n), min(n, rng.randint(0, 2))):
                for column in columns:
                    column[i] = 0
            for j in rng.sample(range(cols), min(cols, rng.randint(0, 2))):
                columns[j] = [0] * n
            check_queries(n, columns, [[rng.randint(-9, 9) for _ in range(n)] for _ in range(3)])

    def test_queries_are_pinned(self):
        # sha256 of reduce/order/is_zero answers on seeded relation
        # matrices, recorded when the quotient still kept U^-1; all three
        # now come from one order_and_reduce
        rng = random.Random(2026)
        h = hashlib.sha256()
        for _ in range(400):
            n, cols, span = rng.randint(0, 6), rng.randint(0, 7), rng.choice([1, 3, 9])
            relations = [[rng.randint(-span, span) for _ in range(n)] for _ in range(cols)]
            q = AbelianQuotient.from_relations(n, relations)
            answers = [q.report()]
            for _ in range(3):
                v = [rng.randint(-20, 20) for _ in range(n)]
                order, rep = q.order_and_reduce(v)
                answers.append((rep, order, order == 1))
            h.update(repr(answers).encode())
        assert h.hexdigest() == "3ab7c20dcea5574d064bcac1d6e72e79565d35b3573dc722b6ffa070975f001b"


def rational_rank(columns, n):
    """Rank of the integer columns, by Fraction elimination."""
    rows = [[Fraction(column[i]) for column in columns] for i in range(n)]
    rank = 0
    for j in range(len(columns)):
        pivot = next((i for i in range(rank, n) if rows[i][j]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(n):
            if i != rank and rows[i][j]:
                f = rows[i][j] / rows[rank][j]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def torsion_order(columns, n):
    """The product of the nonzero Smith diagonal entries of the columns."""
    product = 1
    for d in smith_diagonal([[column[i] for column in columns] for i in range(n)]):
        product *= d or 1
    return product


def check_queries(n, columns, vectors):
    """The quotient's queries against two oracles that build no quotient.

    The first is the formula the quotient used while it kept U and A V:
    y = U v and reduce(v) = v - sum of k_i (A V)_i with k_i = y_i // d_i,
    from ``smith_normal_form(A)``'s U and V.  The second reads no
    transform: the order of [v] is the index of L = im A in L + Z v, the
    quotient of the products of the nonzero Smith diagonals of A and
    [A | v], or None when v raises the rank; v - reduce(v) lies in the
    rational span of A (a rational solve) with index 1.
    """
    q = AbelianQuotient(n, columns)
    a = [[column[i] for column in columns] for i in range(n)]
    snf = smith_normal_form(a, rows=n, cols=len(columns))
    relations = [[sum(a[i][k] * x for k, x in column.items()) for i in range(n)] for column in snf.columns]
    rank = rational_rank(columns, n)
    lattice = torsion_order(columns, n)
    for v in vectors:
        y = [sum(u * x for u, x in zip(row, v)) for row in snf.row_ops]
        rep, order = list(v), 1
        for i, yi in enumerate(y):
            d = snf.diag[i] if i < len(snf.diag) else 0
            k = yi // d if d else 0
            if i < len(relations):
                rep = [r - k * c for r, c in zip(rep, relations[i])]
            if d == 0:
                if yi:
                    order = None  # a free coordinate
            elif order is not None and yi % d:
                order = lcm(order, d // gcd(d, yi % d))
        if rational_rank(columns + [v], n) > rank:
            assert order is None
        else:
            assert lattice % torsion_order(columns + [v], n) == 0
            assert order == lattice // torsion_order(columns + [v], n)
        assert q.order_and_reduce(v) == (order, rep)
        difference = [x - r for x, r in zip(v, rep)]
        assert rational_rank(columns + [difference], n) == rank
        assert torsion_order(columns + [difference], n) == lattice


def fraction_signature(q):
    """Signature by congruence diagonalization over the rationals: the
    reference for the fraction-free ``symmetric_signature``."""
    n = len(q)
    m = [[Fraction(q[i][j]) for j in range(n)] for i in range(n)]
    active = list(range(n))
    pos = neg = 0
    while active:
        pivot = next((i for i in active if m[i][i] != 0), None)
        if pivot is None:
            pair = next(((i, j) for ai, i in enumerate(active) for j in active[ai + 1:] if m[i][j] != 0), None)
            if pair is None:
                break  # remaining block is zero
            i0, j0 = pair
            for l in active:
                m[i0][l] += m[j0][l]
            for k in active:
                m[k][i0] += m[k][j0]
            continue
        d = m[pivot][pivot]
        if d > 0:
            pos += 1
        else:
            neg += 1
        rest = [i for i in active if i != pivot]
        factors = {i: m[i][pivot] / d for i in rest}
        for i in rest:
            fi = factors[i]
            if fi:
                for j in rest:
                    m[i][j] -= fi * m[pivot][j]
        active = rest
    return pos - neg


def symmetric(raw):
    n = len(raw)
    return [[raw[i][j] + raw[j][i] for j in range(n)] for i in range(n)]


def zero_diagonal_forms():
    def build(raw):
        q = symmetric(raw)
        for i in range(len(q)):
            q[i][i] = 0
        return q

    return st.integers(0, 7).flatmap(
        lambda n: st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=n, max_size=n)
    ).map(build)


def low_rank_forms():
    # sum of +-v v^T over at most three vectors, so rank <= 3 in dimension up to 7
    def build(data):
        n, terms = data
        q = [[0] * n for _ in range(n)]
        for sign, v in terms:
            for i in range(n):
                for j in range(n):
                    q[i][j] += sign * v[i] * v[j]
        return q

    return st.integers(0, 7).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.tuples(st.sampled_from((1, -1)), st.lists(st.integers(-3, 3), min_size=n, max_size=n)),
                     max_size=3),
        )
    ).map(build)


def hyperbolic_forms():
    # direct sums of [[0, k], [k, 0]], then a congruence by a unit upper
    # triangular matrix on about half of them
    def build(data):
        ks, u, mix = data
        n = 2 * len(ks)
        q = [[0] * n for _ in range(n)]
        for b, k in enumerate(ks):
            q[2 * b][2 * b + 1] = q[2 * b + 1][2 * b] = k
        if not mix:
            return q
        u = [[1 if i == j else (u[i][j] if i < j else 0) for j in range(n)] for i in range(n)]
        return mat_mul(mat_mul(transpose(u), q), u)

    return st.lists(st.integers(-4, 4), max_size=4).flatmap(
        lambda ks: st.tuples(
            st.just(ks),
            st.lists(st.lists(st.integers(-2, 2), min_size=2 * len(ks), max_size=2 * len(ks)),
                     min_size=2 * len(ks), max_size=2 * len(ks)),
            st.booleans(),
        )
    ).map(build)


class TestSignature:
    @pytest.mark.parametrize(
        "matrix,expected",
        [
            ([], 0),
            ([[-4]], -1),
            ([[7]], 1),
            ([[0]], 0),
            ([[1, 0], [0, -1]], 0),
            ([[0, 1], [1, 0]], 0),
            ([[0, 3], [3, 0]], 0),
            ([[2, 1], [1, 2]], 2),
            ([[-2, 1], [1, -2]], -2),
            ([[0, 1, 0], [1, 0, 0], [0, 0, -5]], -1),
        ],
    )
    def test_anchors(self, matrix, expected):
        assert symmetric_signature(matrix) == expected

    @settings(max_examples=60)
    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.tuples(
                st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=n, max_size=n),
                st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=n, max_size=n),
            )
        )
    )
    def test_congruence_invariance(self, data):
        raw, u = data
        n = len(raw)
        q = symmetric(raw)
        # force u unimodular by making it unit upper triangular
        for i in range(n):
            for j in range(n):
                if i == j:
                    u[i][j] = 1
                elif i > j:
                    u[i][j] = 0
        ut = [[u[j][i] for j in range(n)] for i in range(n)]
        congruent = mat_mul(mat_mul(ut, q), u)
        assert symmetric_signature(congruent) == symmetric_signature(q)

    @settings(max_examples=150)
    @given(st.one_of(zero_diagonal_forms(), low_rank_forms(), hyperbolic_forms()))
    def test_matches_the_fraction_oracle(self, q):
        assert symmetric_signature(q) == fraction_signature(q)

    def test_oracle_on_seeded_dense_forms(self):
        # generic dense forms, larger than the hypothesis draws
        rng = random.Random(53)
        for _ in range(40):
            n = rng.randint(1, 14)
            q = symmetric([[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)])
            assert symmetric_signature(q) == fraction_signature(q)
