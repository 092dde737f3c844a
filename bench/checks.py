"""Output checks that do not trust the search code.

The witness replayer re-derives every commutation from three facts only:
identical curves, nested or disjoint hole sets, and the declared disjoint
pairs.  It reads curve data from the library's value objects but imports
nothing from ``steincalc.words``.  The planar checks recompute the rank of
the boundary map with exact fractions and test the identities the paper's
exact invariants must satisfy.
"""

from __future__ import annotations

from fractions import Fraction


def curve_key(curve):
    """Identity of a curve: its name plus the data that fixes its class."""
    return (curve.name, curve.hole_set, curve.homology.coords)


def letters(word):
    """A word as a list of (curve key, sign) pairs."""
    return [(curve_key(t.curve), t.sign) for t in word.twists]


def commute(c1, c2, declared):
    """True when twists about the curve keys c1 and c2 certainly commute."""
    if c1 == c2 or frozenset((c1[0], c2[0])) in declared:
        return True
    h1, h2 = c1[1], c2[1]
    return h1 is not None and h2 is not None and (h1 <= h2 or h2 <= h1 or not (h1 & h2))


def replay(word, target, positions, swaps, declared):
    """Replay a containment witness; return the final order of the original
    indices, or raise ValueError naming the first step that does not hold."""
    w = letters(word)
    t = letters(target)
    declared = {frozenset(p) for p in declared}
    if len(positions) != len(t) or len(set(positions)) != len(positions):
        raise ValueError("witness positions do not match the target")
    for p, letter in zip(positions, t):
        if not 0 <= p < len(w) or w[p] != letter:
            raise ValueError(f"position {p} does not carry the target letter")
    seq = list(range(len(w)))
    for i in swaps:
        if not 0 <= i < len(seq) - 1:
            raise ValueError(f"swap {i} out of range")
        a, b = seq[i], seq[i + 1]
        if not commute(w[a][0], w[b][0], declared):
            raise ValueError(f"swap {i} exchanges {w[a][0][0]} and {w[b][0][0]} without a certificate")
        seq[i], seq[i + 1] = b, a
    where = {orig: k for k, orig in enumerate(seq)}
    final = [where[p] for p in positions]
    if any(x >= y for x, y in zip(final, final[1:])):
        raise ValueError("matched letters are not in target order after the swaps")
    return seq


def check_containment(word, target, witness, declared):
    seq = replay(word, target, witness.positions, witness.swaps, declared)
    where = {orig: k for k, orig in enumerate(seq)}
    if tuple(where[p] for p in witness.positions) != tuple(witness.final_positions):
        raise ValueError("final_positions disagree with the replayed swaps")


def check_substitution(word, relator, new_word, record, declared):
    """The record's swaps must bring the matched left side into one block, and
    the new word must be that order with the block replaced by the right side."""
    seq = replay(word, relator.left, record.positions, record.swaps, declared)
    m = len(relator.left)
    start = seq.index(record.positions[0])
    if seq[start:start + m] != list(record.positions):
        raise ValueError("matched letters are not contiguous after the swaps")
    w = letters(word)
    expected = [w[i] for i in seq[:start]] + letters(relator.right) + [w[i] for i in seq[start + m:]]
    got = letters(new_word)
    if len(got) != len(w) - m + len(relator.right):
        raise ValueError("substituted word has the wrong length")
    if got != expected:
        raise ValueError("substituted word differs from the replayed substitution")


def rational_rank(rows):
    """Rank over Q of an integer matrix given as a list of rows."""
    m = [[Fraction(x) for x in row] for row in rows if any(row)]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        pivot = next((r for r in range(rank, len(m)) if m[r][c] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][c] != 0:
                f = m[r][c] / m[rank][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def check_planar_report(result, boundary, hole_sets, rng):
    """Identities of the exact planar invariants of a positive word whose
    twists enclose the given hole sets on the ``boundary``-holed sphere."""
    n = len(hole_sets)
    boundary_map = [[1 if j in hs else 0 for hs in hole_sets] for j in range(2, boundary + 1)]
    b2 = n - rational_rank(boundary_map)
    euler = 2 - boundary + n
    if result["euler"] != euler:
        raise ValueError(f"euler {result['euler']} != 2 - b + n = {euler}")
    if result["b2"] != b2:
        raise ValueError(f"b2 {result['b2']} != n - rank = {b2}")
    if result["sigma"] != {"mode": "exact", "value": -b2}:
        raise ValueError(f"sigma {result['sigma']} != exact -b2 = {-b2}")
    if result["esig"] != euler - b2 or result["esig_mod4"] != (euler - b2) % 4:
        raise ValueError("esig is not euler + sigma")
    q = result["q_matrix"]
    if len(q) != b2 or any(len(row) != b2 for row in q):
        raise ValueError("form matrix is not b2 x b2")
    for i in range(b2):
        if q[i][i] >= 0 or any(q[i][j] != q[j][i] for j in range(i)):
            raise ValueError("form matrix is not symmetric with negative diagonal")
    for _ in range(2):
        x = [rng.randint(-3, 3) for _ in range(b2)]
        if any(x) and sum(x[i] * q[i][j] * x[j] for i in range(b2) for j in range(b2)) >= 0:
            raise ValueError("form is not negative definite")
    factors = result["q_invariant_factors"]
    if len(factors) > b2 or any(d <= 0 for d in factors) or any(b % a for a, b in zip(factors, factors[1:])):
        raise ValueError("invariant factors are not a divisibility chain")
