"""Exact linear algebra: Smith form, kernels, quotients, signatures."""

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from steincalc.intlinalg import (
    AbelianQuotient,
    gram,
    kernel_basis,
    mat_mul,
    smith_normal_form,
    symmetric_signature,
)


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

    def test_determinant_helper(self):
        assert determinant([]) == 1
        assert determinant([[0, 1], [1, 0]]) == -1
        assert determinant([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]) == 2 * 2 * 156
        assert determinant([[1, 2], [2, 4]]) == 0


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
        # sparse and dense vectors, zero vectors, no vectors, length 0
        rng = random.Random(37)
        for _ in range(300):
            count, length = rng.randint(0, 8), rng.randint(0, 12)
            density = rng.choice([0.0, 0.2, 0.5, 1.0])
            vectors = [[rng.randint(-5, 5) if rng.random() < density else 0 for _ in range(length)] for _ in range(count)]
            assert gram(vectors) == [[sum(x * y for x, y in zip(u, v)) for v in vectors] for u in vectors]


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


class TestAbelianQuotient:
    def test_cyclic_quotient(self):
        q = AbelianQuotient.from_relations(1, [[5]])
        assert q.invariant_factors == (5,)
        assert q.free_rank == 0
        assert q.is_zero([10]) and not q.is_zero([3])
        assert q.order([1]) == 5
        assert q.order([2]) == 5

    def test_mixed_quotient(self):
        # Z^3 / <2e1, 3e2> = Z/2 + Z/3 + Z = Z/6 + Z
        q = AbelianQuotient.from_relations(3, [[2, 0, 0], [0, 3, 0]])
        assert q.invariant_factors == (6,)
        assert q.free_rank == 1
        assert q.order([0, 0, 1]) is None
        assert q.order([1, 1, 0]) == 6

    def test_reduce_is_canonical(self):
        q = AbelianQuotient.from_relations(2, [[4, 0]])
        r1 = q.reduce([5, 2])
        r2 = q.reduce([1, 2])
        assert r1 == r2
        assert q.is_zero([x - y for x, y in zip([5, 2], r1)])

    def test_no_relations(self):
        q = AbelianQuotient.from_relations(2, [])
        assert q.invariant_factors == ()
        assert q.free_rank == 2
        assert not q.is_zero([1, 0])

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
        rep = q.reduce(v)
        shifted = list(v)
        for c, column in zip(coeffs, relations):
            shifted = [x + c * y for x, y in zip(shifted, column)]
        assert q.reduce(shifted) == rep
        assert q.is_zero([x - y for x, y in zip(v, rep)])
        assert q.reduce(rep) == rep

    def test_queries_are_pinned(self):
        # sha256 of reduce/order/is_zero answers on seeded relation
        # matrices, recorded when the quotient still kept U^-1
        rng = random.Random(2026)
        h = hashlib.sha256()
        for _ in range(400):
            n, cols, span = rng.randint(0, 6), rng.randint(0, 7), rng.choice([1, 3, 9])
            relations = [[rng.randint(-span, span) for _ in range(n)] for _ in range(cols)]
            q = AbelianQuotient.from_relations(n, relations)
            answers = [q.report()]
            for _ in range(3):
                v = [rng.randint(-20, 20) for _ in range(n)]
                answers.append((q.reduce(v), q.order(v), q.is_zero(v)))
            h.update(repr(answers).encode())
        assert h.hexdigest() == "3ab7c20dcea5574d064bcac1d6e72e79565d35b3573dc722b6ffa070975f001b"


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
        q = [[raw[i][j] + raw[j][i] for j in range(n)] for i in range(n)]
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
