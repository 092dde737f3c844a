"""A seeded adversarial corpus: inputs that once ran long, each with the
answer it must keep and the bound it must answer within.

Wedged substitutions: a 285-twist planar word whose relator's left side is
four of its own twists.  The search yields embeddings in lexicographic
order, and on some seeds tens of thousands of them are wedged (a matched
block that an unmatched twist is forced into), each costing one
``_linearize`` call that the node budget does not count.
"""

import random

import pytest

from steincalc import words
from steincalc.errors import NotApplicableError
from steincalc.surfaces import Surface, convex_curve
from steincalc.words import Relator, substitute, word_of

WEDGED_LENGTH = 285


def wedged_substitution(seed):
    """The word and its 4-letter target of one seed: b in 6..10 holes, 5..16
    convex curves over sorted nonempty hole samples named c0, c1, ...,
    285 twists drawn from them, and the twists at 4 sorted random
    positions."""
    rng = random.Random(seed)
    b = rng.randint(6, 10)
    s = Surface(0, b)
    holes = range(2, b + 1)
    pool = [convex_curve(s, f"c{i}", sorted(rng.sample(holes, rng.randint(1, b - 1))))
            for i in range(rng.randint(5, 16))]
    curves = [rng.choice(pool) for _ in range(WEDGED_LENGTH)]
    positions = sorted(rng.sample(range(WEDGED_LENGTH), 4))
    return word_of(s, curves), word_of(s, [curves[p] for p in positions])


def _substituted_positions(seed):
    w, target = wedged_substitution(seed)
    return substitute(w, Relator("t", target, target))[1].positions


# the seeds that answer in under 0.1 s (one Xeon core, Python 3.11), all hits,
# with the positions of the embedding each substitutes
FAST_HITS = {
    1: (4, 18, 15, 23), 2: (0, 7, 1, 10), 7: (5, 8, 4, 11), 14: (9, 13, 2, 18),
    15: (9, 11, 15, 2), 16: (0, 6, 4, 23), 17: (11, 12, 4, 13), 18: (4, 7, 11, 2),
    19: (1, 42, 9, 44), 20: (11, 39, 38, 23), 21: (9, 24, 0, 7), 29: (1, 14, 5, 16),
    30: (13, 5, 6, 0), 31: (1, 11, 0, 9), 34: (2, 4, 8, 6), 36: (9, 0, 2, 12),
    37: (3, 9, 0, 2), 39: (7, 20, 3, 22),
}

# the hits that take 0.1 to 1.5 s, after 5 to 57 thousand wedged embeddings
SLOW_HITS = {
    0: (51, 54, 52, 57), 8: (21, 17, 22, 24), 11: (253, 258, 3, 266), 13: (52, 1, 53, 4),
    26: (57, 12, 61, 2), 32: (16, 102, 104, 105), 33: (0, 267, 273, 276),
}

WEDGED_SEEDS = range(40)
LINEARIZE_CAP = 1000


class LinearizeCapReached(Exception):
    pass


class TestWedgedSubstitution:
    def test_fast_seeds_keep_their_embeddings(self):
        for seed, positions in FAST_HITS.items():
            assert _substituted_positions(seed) == positions, seed

    @pytest.mark.xfail(strict=True, raises=LinearizeCapReached,
                       reason="ROADMAP item 10: substitute tries every wedged embedding, one _linearize call each")
    def test_every_seed_answers_within_the_cap(self, monkeypatch):
        # every seed answers within LINEARIZE_CAP calls, and every recorded
        # hit keeps its embedding; the counter raises at the cap, so a seed
        # that would run for seconds fails at once
        calls = 0
        real = words._linearize

        def counting(*args, **kwargs):
            nonlocal calls
            calls += 1
            if calls > LINEARIZE_CAP:
                raise LinearizeCapReached(f"seed {seed}: over {LINEARIZE_CAP} _linearize calls")
            return real(*args, **kwargs)

        monkeypatch.setattr(words, "_linearize", counting)
        hits = {**FAST_HITS, **SLOW_HITS}
        for seed in WEDGED_SEEDS:
            calls = 0
            try:
                positions = _substituted_positions(seed)
            except NotApplicableError:
                positions = None
            if seed in hits:
                assert positions == hits[seed], seed
