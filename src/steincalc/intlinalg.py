"""Exact integer linear algebra.

Smith normal form U A V = D with its unimodular V (each inverse a caller
needs comes from U A = D V^-1 or A V = U^-1 D), integer kernel bases and
finitely generated abelian quotients.  The Smith form eliminates on the
augmented rows [A | X] for columns X the caller passes, so the right block
ends as U X and a row swap, negation or addition is one list operation;
column steps and the pivot search read the left block only, so D and V do
not depend on X.  No caller reads U itself: X = (), the default, carries
nothing, which is what ``kernel_basis`` and a planar form's boundary map
need, and a caller that needs U B for some B passes B's columns.
A row operation at step t rewrites only the part of its rows from column
t on (the invariant is stated in ``smith_normal_form``).  It holds each
column of V as a ``{row: value}`` dict, so a column operation costs the
nonzeros of one column (kernel columns of a boundary map carry a handful
of nonzeros among hundreds of rows) and a column swap exchanges two
references; it returns V in that form, and the kernel of A is the tail of
that column list.  ``smith_diagonal`` gives D alone, by Euclidean
elimination with no transforms: a quotient's invariant factors and free
rank read only D.  A quotient is the value of n and the rows of its
relation matrix, the layout both eliminations read, so a caller that
builds its relations by rows hands them over with no transpose.  Its one
query, ``order_and_reduce``, gives the order and the canonical
representative of a class v from one ``smith_normal_form`` carrying X = v,
which gives U v and V, and subtracts A (V k) with k_i = (U v)_i // d_i, so
neither U nor A V is built.
``symmetric_signature`` is a fraction-free (Bareiss) congruence
elimination, the one route to a signature; ``invariants.sigma`` reads a
rank off it.  Matrices are plain lists of lists of Python ints, so nothing
overflows; every computation here is exact.  ``negated_gram`` builds the
symmetric matrix -(u . v) of sparse vectors from one triangle, as the
tuple rows a planar form stores.
"""

from __future__ import annotations

from itertools import chain
from math import gcd, lcm
from operator import add, mul, neg, sub
from typing import Dict, List, Mapping, Sequence, Tuple

from .errors import ConsistencyAlarmError, Value

Matrix = List[List[int]]


def zeros(rows: int, cols: int) -> Matrix:
    return [[0] * cols for _ in range(rows)]


def _as_ints(matrix: Sequence[Sequence[int]]) -> Sequence[Sequence[int]]:
    """``matrix`` itself when every entry is a Python int, else a copy with
    each entry passed through ``int``: the eliminations then meet no bool
    and no fixed-width integer, and skip converting the usual input."""
    if {*map(type, chain.from_iterable(matrix))} <= {int}:
        return matrix
    return [list(map(int, row)) for row in matrix]


def add_multiple(row: Sequence[int], x: int, other: Sequence[int]) -> List[int]:
    """row + x * other, entry by entry; x = 1 and x = -1, the usual
    multipliers on 0/1 and unit-pivot matrices, skip the products."""
    if x == 1:
        return list(map(add, row, other))
    if x == -1:
        return list(map(sub, row, other))
    return [y + x * z for y, z in zip(row, other)]


def negated_gram(vectors: Sequence[Mapping[int, int]]) -> Tuple[Tuple[int, ...], ...]:
    """The negated Gram matrix -(u . v) of sparse ``{coord: value}``
    vectors, as tuple rows.  Entries are grouped by coordinate, each group
    subtracts its products from the upper triangle only, and the lower
    triangle is mirrored from it.  The negation is the sign of a planar
    intersection form, -K^T K, and changes no Smith diagonal, so no caller
    needs the unsigned matrix."""
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
                row[l] -= x * y
    for l, column in enumerate(zip(*out)):
        out[l][:l] = column[:l]
    return tuple(map(tuple, out))


class SmithForm(Value):
    """Diagonalization U @ A @ V = D with U, V unimodular.

    ``diag`` is the full diagonal of D (length min(rows, cols)), entries
    non-negative with d_1 | d_2 | ... ; ``rank`` counts the nonzero ones.
    ``row_ops`` holds the rows of U X for the columns X the elimination
    carried (one empty row per row of A when it carried none), and
    ``columns`` the columns of V as sparse ``{row: value}`` dicts, so
    ``columns[rank:]`` is a basis of the integer kernel of A; ``col_ops``
    expands them to dense lists.
    """

    __slots__ = ("diag", "rank", "row_ops", "columns")

    @property
    def col_ops(self) -> Matrix:
        """V by dense columns."""
        dense = [[0] * len(self.columns) for _ in self.columns]
        for col, column in zip(dense, self.columns):
            for k, x in column.items():
                col[k] = x
        return dense


def smith_normal_form(
    matrix: Sequence[Sequence[int]],
    cols: int | None = None,
    carried: Sequence[Sequence[int]] = (),
) -> SmithForm:
    """U A V = D for ``matrix`` (A).  ``carried`` are columns X, one entry
    per row of A, that ride along as the right block of [A | X], so
    ``row_ops`` is U X by rows; the default carries nothing.

    Step t pivots on an entry of least absolute value in the live block
    a[t:, t:cols] and runs Euclid through remainders until the pivot
    divides its row and column.  Every row at or below t is zero left of
    column t (each earlier step cleared its column below its pivot), so a
    row operation rewrites ``row[t:]`` only, the live block and the
    carried block; the rows above hold nothing but their pivot, so a
    column operation touches rows t.. only.  After the row steps a unit
    pivot has only zeros below it, so one pass clears its row and updates
    V, with no re-check.
    """
    rows = len(matrix)
    if cols is None:
        cols = len(matrix[0]) if matrix else 0
    # Row i is [A_i | X_i], the augmented row [A | X]: a row step moves A and
    # U X in one list operation.  Column steps, the pivot search and the
    # divisibility scan read columns < cols only, so X never enters them and
    # D and V do not depend on it.
    matrix = _as_ints(matrix)
    if not carried:
        a = [list(row) for row in matrix]
    else:
        for k, column in enumerate(carried):
            if len(column) != rows:
                raise ValueError(f"carried column {k} has length {len(column)} != {rows} rows")
        a = [[*row, *x] for row, x in zip(matrix, zip(*_as_ints(carried)))]
    v = [{j: 1} for j in range(cols)]  # v[j] is column j of V, sparse

    def col_swap(t: int, j: int) -> None:
        for row in a[t:]:
            row[t], row[j] = row[j], row[t]
        v[t], v[j] = v[j], v[t]

    def smallest_pivot(t: int):
        """The first entry of least nonzero absolute value in row-major
        order over the block a[t:, t:cols]."""
        best, least = None, 0
        for i in range(t, rows):
            row = a[i]
            for j in range(t, cols):
                x = row[j]
                if x:
                    x = abs(x)
                    if best is None or x < least:
                        best, least = (i, j), x
                        if x == 1:
                            return best
        return best

    def clean_pivot(t: int) -> bool:
        """Clear row t and column t beyond the pivot, re-selecting the
        smallest entry as pivot after every pass; this keeps coefficient
        growth in check (each re-selection strictly shrinks the pivot)."""
        while True:
            best = smallest_pivot(t)
            if best is None:
                return False
            i, j = best
            if i != t:
                a[t], a[i] = a[i], a[t]
            if j != t:
                col_swap(t, j)
            top = a[t]
            if top[t] < 0:
                top[t:] = map(neg, top[t:])
            pivot = top[t]
            tail = top[t:]
            for row in a[t + 1:]:
                q = row[t] // pivot
                if q:
                    row[t:] = add_multiple(row[t:], -q, tail)
            # col_j -= q col_t changes only the rows with a nonzero in
            # column t, which after a unit pivot's row steps is row t alone
            unit = pivot == 1
            live = () if unit else [row for row in a[t:] if row[t]]
            vt = v[t]
            for j, x in enumerate(top[t + 1:cols], t + 1):
                q = x // pivot if x else 0
                if q:
                    if unit:
                        top[j] = 0
                    else:
                        for row in live:
                            row[j] -= q * row[t]
                    vj = v[j]
                    for k, y in vt.items():
                        x = vj.get(k, 0) - q * y
                        if x:
                            vj[k] = x
                        else:  # q != 0, so only an entry of vj cancels
                            del vj[k]
            if unit or (len(live) == 1 and not any(top[t + 1:cols])):
                return True

    limit = min(rows, cols)
    t = 0
    while t < limit:
        if not clean_pivot(t):
            break
        # Enforce divisibility of the remaining block by the pivot (a unit
        # pivot divides everything).
        fixed = a[t][t] != 1
        while fixed:
            fixed = False
            pivot = a[t][t]
            for row in a[t + 1:]:
                if any(map(pivot.__rmod__, row[t + 1:cols])):
                    top = a[t]
                    top[t:] = [x + y for x, y in zip(top[t:], row[t:])]
                    clean_pivot(t)
                    fixed = True
                    break
        t += 1

    diag = tuple(a[i][i] for i in range(limit))
    rank = sum(1 for d in diag if d != 0)
    return SmithForm(diag=diag, rank=rank, row_ops=[row[cols:] for row in a], columns=v)


def kernel_basis(matrix: Sequence[Sequence[int]], cols: int | None = None) -> List[List[int]]:
    """Basis of the integer kernel {x : A x = 0}, as a list of column vectors.

    The basis is primitive (the kernel lattice is saturated) because it
    consists of columns of a unimodular matrix.
    """
    snf = smith_normal_form(matrix, cols=cols)
    return snf.col_ops[snf.rank:]


def smith_diagonal(matrix: Sequence[Sequence[int]]) -> Tuple[int, ...]:
    """The Smith diagonal of ``matrix``, equal to ``smith_normal_form(matrix).diag``,
    with no transforms.

    Each pivot starts as an entry of least absolute value.  Row operations
    reduce its column modulo the pivot, column operations its row; a
    nonzero remainder, smaller than the pivot, becomes the next pivot, so
    the steps run Euclid's algorithm through the matrix and the pivot ends
    as the gcd of its row and column (Kannan and Bachem, SIAM J. Comput. 8,
    1979, do the same with one extended-gcd step each, whose coefficients
    multiply and, unreduced, blow up on dense 40 x 40 matrices).  Once the
    pivot divides its whole row and column, clearing them touches nothing
    else, so it splits off as one diagonal entry.  A gcd/lcm pass over the
    entries found turns them into the divisor chain d_1 | d_2 | ... (per
    prime it sorts the exponents); zeros fill the rest.
    """
    a = [list(row) for row in _as_ints(matrix)]
    size = min(len(a), len(a[0])) if a else 0
    a = [row for row in a if any(row)]
    found = []
    while a:
        least, i = min((min(map(abs, filter(None, row))), i) for i, row in enumerate(a))
        j = [abs(x) for x in a[i]].index(least)
        while True:
            top = a[i]
            p = top[j]
            smaller = None
            for k, row in enumerate(a):
                x = row[j]
                if x and k != i:
                    q = x // p
                    if q:
                        a[k] = row = [y - q * z for y, z in zip(row, top)]
                        x = row[j]
                    if x and abs(x) < least:
                        smaller, least = k, abs(x)
            if smaller is not None:
                i = smaller
                continue
            if not any(x % p for x in top):
                break
            # column j is clear below and above, so these column steps change row i only
            top[:] = [x % p for x in top]
            top[j] = p
            least = min(map(abs, filter(None, top)))
            j = [abs(x) for x in top].index(least)
        found.append(abs(p))
        del a[i]
        for row in a:
            del row[j]
        a = [row for row in a if any(row)]
    for i in range(len(found)):
        for k in range(i + 1, len(found)):
            found[i], found[k] = gcd(found[i], found[k]), lcm(found[i], found[k])
    return tuple(found) + (0,) * (size - len(found))


class AbelianQuotient(Value):
    """The quotient of Z^n by the column lattice of a relation matrix A.

    Its fields are ``n`` and ``rows``, the n rows of A as tuples (one entry
    per relation), so two quotients are equal when their presentations
    are; ``from_relations`` builds one from the relation columns.  ``diag``,
    all that ``report``, ``invariant_factors`` and ``free_rank`` read, comes
    from ``smith_diagonal``; a copy or a pickle rebuilds it when read.
    ``order_and_reduce`` runs one ``smith_normal_form`` carrying v as the
    one column of [A | v], which gives D, V and y = U v, and no U.  The
    order compares y with D, and the canonical representative is
    v - A (V k) with k_i = y_i // d_i, since subtracting column i of A V
    k_i times lowers y_i by k_i d_i, so A V is never formed.  A diagonal
    read before must equal that D, else ``ConsistencyAlarmError``.
    """

    # _diag caches the Smith diagonal, set by the first read of ``diag`` or
    # the first ``order_and_reduce``
    __slots__ = ("n", "rows", "_diag")

    def __init__(self, n: int, rows: Sequence[Sequence[int]]):
        if len(rows) != n:
            raise ValueError(f"{len(rows)} relation rows != ambient rank {n}")
        width = len(rows[0]) if rows else 0
        for i, row in enumerate(rows):
            if len(row) != width:
                raise ValueError(f"relation row {i} has length {len(row)} != {width} relations")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", tuple(map(tuple, rows)))

    @classmethod
    def from_relations(cls, n: int, columns: Sequence[Sequence[int]]) -> "AbelianQuotient":
        """The quotient of Z^n by the given relation columns."""
        for j, column in enumerate(columns):
            if len(column) != n:
                raise ValueError(f"relation column {j} has length {len(column)} != ambient rank {n}")
        return cls(n, tuple(zip(*columns)) if columns else ((),) * n)

    @property
    def diag(self) -> Tuple[int, ...]:
        try:
            return self._diag
        except AttributeError:  # first read
            object.__setattr__(self, "_diag", smith_diagonal(self.rows))
            return self._diag

    @property
    def invariant_factors(self) -> Tuple[int, ...]:
        return tuple(d for d in self.diag if d > 1)

    @property
    def free_rank(self) -> int:
        return self.n - sum(1 for d in self.diag if d)

    def report(self) -> list:
        """The JSON-ready pair [invariant factors, free rank]."""
        return [list(self.invariant_factors), self.free_rank]

    def order_and_reduce(self, v: Sequence[int]) -> Tuple[int | None, List[int]]:
        """The order of [v] (None when the class is non-torsion) and its
        canonical representative U^-1 (U v mod D), v minus relations."""
        if len(v) != self.n:
            raise ValueError(f"vector length {len(v)} != ambient rank {self.n}")
        snf = smith_normal_form(self.rows, carried=(v,))
        diag = snf.diag
        try:
            known = self._diag
        except AttributeError:
            object.__setattr__(self, "_diag", diag)
        else:
            if known != diag:
                raise ConsistencyAlarmError(f"Smith diagonal {known} differs from the Smith form's {diag}")
        order: int | None = 1
        combination = [0] * len(snf.columns)  # V k
        for i, (y,) in enumerate(snf.row_ops):
            d = diag[i] if i < len(diag) else 0
            if not d:
                if y:
                    order = None  # a free coordinate
                continue
            k, rest = divmod(y, d)
            if rest and order is not None:
                order = lcm(order, d // gcd(d, rest))
            if k:
                for j, x in snf.columns[i].items():
                    combination[j] += k * x
        rep = [y - sum(map(mul, row, combination)) for y, row in zip(v, self.rows)]
        return order, rep


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
    m = [list(row) for row in _as_ints(q)]
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
