"""Exact linear algebra: Smith form, kernels, quotients, signatures."""

import pytest
from hypothesis import given, settings, strategies as st

from steincalc.intlinalg import (
    AbelianQuotient,
    identity,
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
        assert mat_mul(mat_mul(snf.row_ops, a), snf.col_ops) == [
            [snf.diag[0], 0],
            [0, snf.diag[1]],
        ]

    @settings(max_examples=80)
    @given(small_matrix())
    def test_reconstruction_and_unimodularity(self, a):
        rows, cols = len(a), len(a[0])
        snf = smith_normal_form(a)
        d = mat_mul(mat_mul(snf.row_ops, a), snf.col_ops)
        for i in range(rows):
            for j in range(cols):
                expected = snf.diag[i] if i == j and i < len(snf.diag) else 0
                assert d[i][j] == expected
        for i in range(len(snf.diag) - 1):
            if snf.diag[i] != 0:
                assert snf.diag[i + 1] % snf.diag[i] == 0
            else:
                assert snf.diag[i + 1] == 0
        assert mat_mul(snf.row_ops, snf.row_ops_inv) == identity(rows)
        assert mat_mul(snf.col_ops, snf.col_ops_inv) == identity(cols)


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
