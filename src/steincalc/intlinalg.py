"""Exact integer linear algebra.

Smith normal form U A V = D with its unimodular U and V (each inverse a
caller needs comes from U A = D V^-1 or A V = U^-1 D), integer kernel bases
and finitely generated abelian quotients.  ``symmetric_signature`` (exact
congruence diagonalization) is the reference the tests check the planar
signature -b2 against; the package itself never calls it.  Matrices are
plain lists of lists of Python ints, so nothing overflows; every computation
here is exact.  ``mat_mul`` skips zero entries: the planar form builds its
Gram matrices with it, because b2 reaches the hundreds while each kernel
column has only a few nonzeros.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import List, Sequence, Tuple

Matrix = List[List[int]]


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def zeros(rows: int, cols: int) -> Matrix:
    return [[0] * cols for _ in range(rows)]


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Matrix:
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = zeros(rows, cols)
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            aik = ai[k]
            if aik:
                bk = b[k]
                for j in range(cols):
                    oi[j] += aik * bk[j]
    return out


def mat_vec(a: Sequence[Sequence[int]], v: Sequence[int]) -> List[int]:
    return [sum(row[j] * v[j] for j in range(len(v))) for row in a]


@dataclass(frozen=True)
class SmithForm:
    """Diagonalization U @ A @ V = D with U, V unimodular.

    ``diag`` is the full diagonal of D (length min(rows, cols)), entries
    non-negative with d_1 | d_2 | ... ; ``rank`` counts the nonzero ones.
    """

    diag: Tuple[int, ...]
    rank: int
    row_ops: Matrix        # U
    col_ops: Matrix        # V


def smith_normal_form(matrix: Sequence[Sequence[int]], rows: int | None = None, cols: int | None = None) -> SmithForm:
    a = [list(map(int, row)) for row in matrix]
    if rows is None:
        rows = len(a)
    if cols is None:
        cols = len(a[0]) if a else 0

    u, v = identity(rows), identity(cols)

    def row_swap(i: int, j: int) -> None:
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def row_negate(i: int) -> None:
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    def row_add(i: int, j: int, q: int) -> None:
        # row_i += q * row_j
        a[i] = [x + q * y for x, y in zip(a[i], a[j])]
        u[i] = [x + q * y for x, y in zip(u[i], u[j])]

    def col_swap(i: int, j: int) -> None:
        for r in range(len(a)):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        for r in range(cols):
            v[r][i], v[r][j] = v[r][j], v[r][i]

    def col_add(i: int, j: int, q: int) -> None:
        # col_i += q * col_j
        for r in range(len(a)):
            a[r][i] += q * a[r][j]
        for r in range(cols):
            v[r][i] += q * v[r][j]

    def smallest_pivot(t: int):
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        return best

    def clean_pivot(t: int) -> bool:
        """Clear row t and column t beyond the pivot, re-selecting the
        smallest entry as pivot after every pass; this keeps coefficient
        growth in check (each re-selection strictly shrinks the pivot)."""
        while True:
            best = smallest_pivot(t)
            if best is None:
                return False
            if best[0] != t:
                row_swap(t, best[0])
            if best[1] != t:
                col_swap(t, best[1])
            if a[t][t] < 0:
                row_negate(t)
            for i in range(t + 1, rows):
                if a[i][t] != 0:
                    row_add(i, t, -(a[i][t] // a[t][t]))
            for j in range(t + 1, cols):
                if a[t][j] != 0:
                    col_add(j, t, -(a[t][j] // a[t][t]))
            if all(a[i][t] == 0 for i in range(t + 1, rows)) and all(
                a[t][j] == 0 for j in range(t + 1, cols)
            ):
                return True

    limit = min(rows, cols)
    t = 0
    while t < limit:
        if not clean_pivot(t):
            break
        # Enforce divisibility of the remaining block by the pivot.
        fixed = True
        while fixed:
            fixed = False
            for i in range(t + 1, rows):
                if any(a[i][j] % a[t][t] != 0 for j in range(t + 1, cols)):
                    row_add(t, i, 1)
                    clean_pivot(t)
                    fixed = True
                    break
        t += 1

    diag = tuple(a[i][i] for i in range(limit))
    rank = sum(1 for d in diag if d != 0)
    return SmithForm(diag=diag, rank=rank, row_ops=u, col_ops=v)


def kernel_basis(matrix: Sequence[Sequence[int]], cols: int | None = None) -> List[List[int]]:
    """Basis of the integer kernel {x : A x = 0}, as a list of column vectors.

    The basis is primitive (the kernel lattice is saturated) because it
    consists of columns of a unimodular matrix.
    """
    rows = len(matrix)
    if cols is None:
        cols = len(matrix[0]) if rows else 0
    if cols == 0:
        return []
    snf = smith_normal_form(matrix, rows=rows, cols=cols)
    basis = []
    for j in range(cols):
        d = snf.diag[j] if j < len(snf.diag) else 0
        if d == 0:
            basis.append([snf.col_ops[r][j] for r in range(cols)])
    return basis


@dataclass(frozen=True)
class AbelianQuotient:
    """The quotient of Z^n by the column lattice of a relation matrix.

    Presents the group as a direct sum of cyclic factors and answers
    membership, canonical-representative, and element-order queries, all
    over the integers.  ``relations`` is A V = U^-1 D for the relation matrix
    A: subtracting its column i k_i times lowers (U v)_i by k_i d_i.
    """

    n: int
    diag: Tuple[int, ...]
    row_ops: Matrix        # U
    relations: Matrix      # A V

    @classmethod
    def from_relations(cls, n: int, relation_columns: Sequence[Sequence[int]]) -> "AbelianQuotient":
        cols = len(relation_columns)
        matrix = [[relation_columns[j][i] for j in range(cols)] for i in range(n)]
        snf = smith_normal_form(matrix, rows=n, cols=cols)
        return cls(n=n, diag=snf.diag, row_ops=snf.row_ops, relations=mat_mul(matrix, snf.col_ops))

    @property
    def invariant_factors(self) -> Tuple[int, ...]:
        return tuple(d for d in self.diag if d > 1)

    @property
    def free_rank(self) -> int:
        rank = sum(1 for d in self.diag if d != 0)
        return self.n - rank

    def report(self) -> list:
        """The JSON-ready pair [invariant factors, free rank]."""
        return [list(self.invariant_factors), self.free_rank]

    def _coords(self, v: Sequence[int]) -> List[int]:
        if len(v) != self.n:
            raise ValueError(f"vector length {len(v)} != ambient rank {self.n}")
        return mat_vec(self.row_ops, list(v))

    def reduce(self, v: Sequence[int]) -> List[int]:
        """Canonical representative U^-1 (U v mod D) of [v]: v minus relations."""
        y = self._coords(v)
        k = [y[i] // d if d else 0 for i, d in enumerate(self.diag)]
        return [x - s for x, s in zip(v, mat_vec(self.relations, k))]

    def is_zero(self, v: Sequence[int]) -> bool:
        return self.order(v) == 1

    def order(self, v: Sequence[int]) -> int | None:
        """Order of [v]; None when the class is non-torsion."""
        y = self._coords(v)
        result = 1
        for i, x in enumerate(y):
            d = self.diag[i] if i < len(self.diag) else 0
            if d == 0:
                if x != 0:
                    return None
            elif x % d != 0:
                result = lcm(result, d // gcd(d, x % d))
        return result


def symmetric_signature(q: Sequence[Sequence[int]]) -> int:
    """Signature of a symmetric integer form, by exact congruence diagonalization.

    Zero eigenvalues contribute nothing.  When every active diagonal entry
    vanishes but some pairing survives, the congruence e_i <- e_i + e_j
    produces a nonzero diagonal entry (2 * m[i][j]) and diagonalization
    proceeds.
    """
    n = len(q)
    m = [[Fraction(q[i][j]) for j in range(n)] for i in range(n)]
    active = list(range(n))
    pos = neg = 0
    while active:
        pivot = next((i for i in active if m[i][i] != 0), None)
        if pivot is None:
            pair = next(
                ((i, j) for ai, i in enumerate(active) for j in active[ai + 1:] if m[i][j] != 0),
                None,
            )
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
