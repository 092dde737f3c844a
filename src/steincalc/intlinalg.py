"""Exact integer linear algebra.

Smith normal form U A V = D with its unimodular U and V (each inverse a
caller needs comes from U A = D V^-1 or A V = U^-1 D), integer kernel bases
and finitely generated abelian quotients.  The Smith form holds each column
of V as a ``{row: value}`` dict, so a column operation costs the nonzeros of
one column (kernel columns of a boundary map carry a handful of nonzeros
among hundreds of rows) and a column swap exchanges two references; it
returns V in that form, and the kernel of A is the tail of that column
list.  ``symmetric_signature`` is a fraction-free (Bareiss) congruence
elimination, the one route to a signature; ``invariants.sigma`` reads a
rank off it.  Matrices are plain lists of lists of Python ints, so nothing
overflows; every computation here is exact.  ``mat_mul`` skips zero
entries in both factors; ``gram`` builds the symmetric Gram matrix of
sparse vectors from one triangle.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from typing import Dict, List, Mapping, Sequence, Tuple

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


def gram(vectors: Sequence[Mapping[int, int]]) -> Matrix:
    """The symmetric Gram matrix (u . v) of sparse ``{coord: value}``
    vectors.  Entries are grouped by coordinate, each group adds its
    products to the upper triangle only, and the lower triangle is
    mirrored from it."""
    size = len(vectors)
    by_coord: Dict[int, List[Tuple[int, int]]] = {}
    for j, vec in enumerate(vectors):
        for k, x in vec.items():
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
    ``row_ops`` holds the rows of U and ``columns`` the columns of V as
    sparse ``{row: value}`` dicts, so ``columns[rank:]`` is a basis of the
    integer kernel of A; ``col_ops`` expands them to dense lists.
    """

    diag: Tuple[int, ...]
    rank: int
    row_ops: Matrix                # U, by rows
    columns: List[Dict[int, int]]  # V, by sparse columns

    @property
    def col_ops(self) -> Matrix:
        """V by dense columns."""
        dense = [[0] * len(self.columns) for _ in self.columns]
        for col, column in zip(dense, self.columns):
            for k, x in column.items():
                col[k] = x
        return dense


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
    return SmithForm(diag=diag, rank=rank, row_ops=u, columns=v)


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
        for j, column in enumerate(relation_columns):
            if len(column) != n:
                raise ValueError(f"relation column {j} has length {len(column)} != ambient rank {n}")
        cols = len(relation_columns)
        matrix = [[relation_columns[j][i] for j in range(cols)] for i in range(n)]
        snf = smith_normal_form(matrix, rows=n, cols=cols)
        # column j of A V is the sum over k of V_kj times column k of A
        relations = [[sum(x * relation_columns[k][i] for k, x in column.items()) for i in range(n)]
                     for column in snf.columns]
        return cls(n=n, diag=snf.diag, row_ops=snf.row_ops, relations=relations)

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
    """Signature of a symmetric integer form, by fraction-free congruence
    elimination (Bareiss, Math. Comp. 22, 1968).

    Each step pivots on a nonzero diagonal entry d of the remaining block
    and replaces every other entry x by (d x - x_ip x_pj) / prev, an exact
    division by the previous pivot (Sylvester's identity); the LDL^T entry
    of the step is d / prev, so it counts sign(d) sign(prev).  Zero
    eigenvalues contribute nothing.  When every remaining diagonal entry
    vanishes but some pairing survives, the unimodular congruence
    e_i <- e_i + e_j produces a nonzero diagonal entry (2 * m[i][j]) and
    keeps the divisions exact.
    """
    m = [list(map(int, row)) for row in q]
    prev, signature = 1, 0
    while m:
        p = next((i for i, row in enumerate(m) if row[i]), None)
        if p is None:
            pair = next(((i, j) for i, row in enumerate(m) for j in range(i + 1, len(m)) if row[j]), None)
            if pair is None:
                break  # remaining block is zero
            i, j = pair
            m[i] = [x + y for x, y in zip(m[i], m[j])]
            for row in m:
                row[i] += row[j]
            continue
        d = m[p][p]
        signature += 1 if (d > 0) == (prev > 0) else -1
        pivot_row = m.pop(p)
        del pivot_row[p]
        rest = []
        for row in m:
            f = row.pop(p)
            rest.append([(d * x - f * y) // prev for x, y in zip(row, pivot_row)])
        m = rest
        prev = d
    return signature
