"""Exact integer linear algebra.

Smith normal form U A V = D with its unimodular U and V (each inverse a
caller needs comes from U A = D V^-1 or A V = U^-1 D), integer kernel bases
and finitely generated abelian quotients.  While it eliminates, the Smith
form holds each column of V as a ``{row: value}`` dict, so a column
operation costs the nonzeros of one column (kernel columns of a boundary
map carry a handful of nonzeros among hundreds of rows) and a column swap
exchanges two references; V is returned as dense columns, and the kernel
of A is the tail of that column list.  ``symmetric_signature`` (exact
congruence diagonalization) is the reference the tests check the planar
signature -b2 against; the package itself never calls it.  Matrices are
plain lists of lists of Python ints, so nothing overflows; every
computation here is exact.  ``mat_mul`` skips zero entries in both
factors; ``gram`` builds the symmetric Gram matrix of sparse vectors from
one triangle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Sequence, Tuple

Matrix = List[List[int]]


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def zeros(rows: int, cols: int) -> Matrix:
    return [[0] * cols for _ in range(rows)]


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Matrix:
    """The product a b, skipping zeros in both factors: each nonzero a_ik
    costs the nonzeros of row k of b, collected once as (j, x) pairs."""
    cols = len(b[0]) if b else 0
    nonzero = [[(j, x) for j, x in enumerate(row) if x] for row in b]
    out = []
    for ai in a:
        oi = [0] * cols
        for aik, bk in zip(ai, nonzero):
            if aik:
                for j, x in bk:
                    oi[j] += aik * x
        out.append(oi)
    return out


def gram(vectors: Sequence[Sequence[int]]) -> Matrix:
    """The symmetric Gram matrix (u . v) of the vectors.  Nonzeros are
    grouped by coordinate, each group adds its products to the upper
    triangle only, and the lower triangle is mirrored from it."""
    size = len(vectors)
    by_coord: Dict[int, List[Tuple[int, int]]] = {}
    for j, vec in enumerate(vectors):
        for k, x in enumerate(vec):
            if x:
                by_coord.setdefault(k, []).append((j, x))
    out = zeros(size, size)
    for group in by_coord.values():
        for at, (j, x) in enumerate(group):
            row = out[j]
            for l, y in group[at:]:
                row[l] += x * y
    for l, column in enumerate(zip(*out)):
        out[l][:l] = column[:l]
    return out


def mat_vec(a: Sequence[Sequence[int]], v: Sequence[int]) -> List[int]:
    return [sum(row[j] * v[j] for j in range(len(v))) for row in a]


@dataclass(frozen=True)
class SmithForm:
    """Diagonalization U @ A @ V = D with U, V unimodular.

    ``diag`` is the full diagonal of D (length min(rows, cols)), entries
    non-negative with d_1 | d_2 | ... ; ``rank`` counts the nonzero ones.
    ``row_ops`` holds the rows of U and ``col_ops`` the columns of V, so
    ``col_ops[rank:]`` is a basis of the integer kernel of A.
    """

    diag: Tuple[int, ...]
    rank: int
    row_ops: Matrix        # U, by rows
    col_ops: Matrix        # V, by columns


def smith_normal_form(matrix: Sequence[Sequence[int]], rows: int | None = None, cols: int | None = None) -> SmithForm:
    a = [list(map(int, row)) for row in matrix]
    if rows is None:
        rows = len(a)
    if cols is None:
        cols = len(a[0]) if a else 0

    u = identity(rows)
    v = [{j: 1} for j in range(cols)]  # v[j] is column j of V, sparse

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
        for row in a:
            row[i], row[j] = row[j], row[i]
        v[i], v[j] = v[j], v[i]

    def col_add(i: int, j: int, q: int) -> None:
        # col_i += q * col_j
        for row in a:
            row[i] += q * row[j]
        vi = v[i]
        for k, y in v[j].items():
            x = vi.get(k, 0) + q * y
            if x:
                vi[k] = x
            else:  # q != 0, so only an entry of vi cancels
                del vi[k]

    def smallest_pivot(t: int):
        """The first entry of least nonzero absolute value in row-major
        order over the block a[t:, t:]."""
        best, least = None, 0
        for i in range(t, rows):
            sizes = [abs(x) for x in a[i][t:]]
            m = min((x for x in sizes if x), default=0)
            if m and (best is None or m < least):
                best, least = (i, t + sizes.index(m)), m
                if m == 1:
                    break
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
            if not any(a[t][t + 1:]) and not any(a[i][t] for i in range(t + 1, rows)):
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
            pivot = a[t][t]
            for i in range(t + 1, rows):
                if any(x % pivot for x in a[i][t + 1:]):
                    row_add(t, i, 1)
                    clean_pivot(t)
                    fixed = True
                    break
        t += 1

    diag = tuple(a[i][i] for i in range(limit))
    rank = sum(1 for d in diag if d != 0)
    dense = []
    for column in v:
        col = [0] * cols
        for k, x in column.items():
            col[k] = x
        dense.append(col)
    return SmithForm(diag=diag, rank=rank, row_ops=u, col_ops=dense)


def kernel_basis(matrix: Sequence[Sequence[int]], cols: int | None = None) -> List[List[int]]:
    """Basis of the integer kernel {x : A x = 0}, as a list of column vectors.

    The basis is primitive (the kernel lattice is saturated) because it
    consists of columns of a unimodular matrix.
    """
    rows = len(matrix)
    if cols is None:
        cols = len(matrix[0]) if rows else 0
    snf = smith_normal_form(matrix, rows=rows, cols=cols)
    return snf.col_ops[snf.rank:]


@dataclass(frozen=True)
class AbelianQuotient:
    """The quotient of Z^n by the column lattice of a relation matrix.

    Presents the group as a direct sum of cyclic factors and answers
    membership, canonical-representative, and element-order queries, all
    over the integers.  ``relations`` holds the columns of A V = U^-1 D for
    the relation matrix A: subtracting column i k_i times lowers (U v)_i by
    k_i d_i.
    """

    n: int
    diag: Tuple[int, ...]
    row_ops: Matrix        # U
    relations: Matrix      # A V, by columns

    @classmethod
    def from_relations(cls, n: int, relation_columns: Sequence[Sequence[int]]) -> "AbelianQuotient":
        cols = len(relation_columns)
        matrix = [[relation_columns[j][i] for j in range(cols)] for i in range(n)]
        snf = smith_normal_form(matrix, rows=n, cols=cols)
        # column j of A V is A (column j of V): rows of V^T A^T
        return cls(n=n, diag=snf.diag, row_ops=snf.row_ops, relations=mat_mul(snf.col_ops, relation_columns))

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
        rep = list(v)
        for yi, d, column in zip(y, self.diag, self.relations):
            k = yi // d if d else 0
            if k:
                for i, x in enumerate(column):
                    rep[i] -= k * x
        return rep

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
