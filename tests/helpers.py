"""Shared fixtures: gradings, random generators, and independent oracles.

The oracles here deliberately avoid the chain-based evaluation path: matrix
products are computed entry by entry, and monomial identities are decided
by exhaustive matrix-unit substitution.
"""

from __future__ import annotations

import itertools
import random
from typing import Optional

from matident import (
    CayleyGroup,
    CyclicGroup,
    FreePoly,
    Grading,
    GVar,
    ProductGroup,
)
from matident.generic import GenericMatrix, word_product_direct


def s3_group() -> CayleyGroup:
    """S3 as a Cayley table, built from permutation composition."""
    base = [(0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1)]

    def compose(p, q):  # apply q first, then p
        return tuple(p[q[i]] for i in range(3))

    names = ["e", "a", "b", "c", "r", "s"]
    table = [[base.index(compose(x, y)) for y in base] for x in base]
    return CayleyGroup(names, table)


def z2z2_group() -> ProductGroup:
    return ProductGroup([CyclicGroup(2), CyclicGroup(2)])


def suite_gradings() -> list[Grading]:
    """The fixed distinct-tuple grading suite used by the acceptance tests."""
    gradings = [Grading(CyclicGroup(n), n, tuple(range(n))) for n in range(2, 6)]
    gradings.append(Grading(CyclicGroup(4), 2, (0, 1)))
    v4 = z2z2_group()
    gradings.append(Grading(v4, 4, ((0, 0), (0, 1), (1, 0), (1, 1))))
    s3 = s3_group()
    gradings.append(Grading(s3, 6, tuple(range(6))))
    return gradings


# ---------------------------------------------------------------------------
# independent oracles


def evaluate_direct(grading: Grading, f: FreePoly) -> GenericMatrix:
    """Evaluation through plain matrix products (no chain shortcuts)."""
    result = GenericMatrix.zero(f.field, grading.n)
    for word, coeff in f.terms.items():
        result = result + word_product_direct(grading, f.field, word).scale(coeff)
    return result


def units_of_degree(grading: Grading, h) -> list[tuple[int, int]]:
    return [
        (i, j)
        for i in range(1, grading.n + 1)
        for j in range(1, grading.n + 1)
        if grading.unit_degree(i, j) == h
    ]


def sequence_vanishes_by_units(grading: Grading, hseq) -> bool:
    """True when no chain of matrix units with these degrees multiplies to
    a nonzero product (exhaustive substitution)."""
    options = [units_of_degree(grading, h) for h in hseq]
    for choice in itertools.product(*options):
        if all(choice[a][1] == choice[a + 1][0] for a in range(len(choice) - 1)):
            return False
    return True


def naive_step(grading: Grading, pos: int, h) -> Optional[int]:
    """Least row j with g_j = g_pos * h: one group op and a scan of the tuple."""
    target = grading.group.op(grading.entry(pos), h)
    return next((j for j in range(1, grading.n + 1) if grading.entry(j) == target), None)


def naive_lset(grading: Grading, hseq) -> tuple[tuple[int, ...], dict]:
    """Chain starts and row paths, walking every row with a group op per letter."""
    starts: list[int] = []
    paths: dict = {}
    for k in range(1, grading.n + 1):
        path = [k]
        for h in hseq:
            nxt = naive_step(grading, path[-1], h)
            if nxt is None:
                break
            path.append(nxt)
        else:
            starts.append(k)
            paths[k] = tuple(path)
    return tuple(starts), paths


def naive_transition(grading: Grading, state, h) -> frozenset:
    return frozenset(
        nxt for nxt in (naive_step(grading, pos, h) for pos in state) if nxt is not None
    )


# ---------------------------------------------------------------------------
# random generators (all deterministic through an explicit Random)


def random_word(rng: random.Random, grading: Grading, max_len: int, index_pool: int = 4):
    """Uniform degrees from the support; indices from a small pool."""
    support = grading.support()
    length = rng.randint(1, max_len)
    return tuple(
        GVar(rng.choice(support), rng.randint(1, index_pool)) for _ in range(length)
    )


def random_chain_word(
    rng: random.Random,
    grading: Grading,
    length: int,
    start: Optional[int] = None,
    end: Optional[int] = None,
    index_pool: int = 4,
):
    """Word whose degree sequence follows a row walk, so evaluation is nonzero.

    With `end` set, the walk is steered to finish on that row (the last step
    jumps there directly).
    """
    n = grading.n
    pos = start if start is not None else rng.randint(1, n)
    letters = []
    for step in range(length):
        if end is not None and step == length - 1:
            nxt = end
        else:
            nxt = rng.randint(1, n)
        h = grading.unit_degree(pos, nxt)
        letters.append(GVar(h, rng.randint(1, index_pool)))
        pos = nxt
    return tuple(letters)


def random_neutral_word(rng: random.Random, grading: Grading, length: int, index_pool: int = 4):
    """Closed row walk: the word's total degree is the group identity."""
    start = rng.randint(1, grading.n)
    return random_chain_word(rng, grading, length, start=start, end=start, index_pool=index_pool)


def valid_rewrite_steps(group, word) -> list:
    """All neutral/conjugate swaps applicable to the word."""
    from matident.rewrite import CONJUGATE_SWAP, NEUTRAL_SWAP, RewriteStep

    eps = group.identity()
    L = len(word)
    prefix = [eps]
    for v in word:
        prefix.append(group.op(prefix[-1], v.degree))

    def block(a, b):  # degree of word[a:b]
        return group.op(group.inverse(prefix[a]), prefix[b])

    steps = []
    for i in range(L):
        for j in range(i + 1, L):
            for k in range(j + 1, L + 1):
                if block(i, j) == eps and block(j, k) == eps:
                    steps.append(RewriteStep(NEUTRAL_SWAP, (i, j, k)))
            for t_end in range(j + 1, L):
                du = block(i, j)
                if du == eps or block(j, t_end) != group.inverse(du):
                    continue
                for l in range(t_end + 1, L + 1):
                    if block(t_end, l) == du:
                        steps.append(RewriteStep(CONJUGATE_SWAP, (i, j, t_end, l)))
    return steps


def random_rewrite_variant(rng: random.Random, grading: Grading, word, max_steps: int = 4):
    """Apply up to max_steps random valid swaps; returns the reached word."""
    from matident.rewrite import apply_step

    group = grading.group
    current = tuple(word)
    for _ in range(rng.randint(0, max_steps)):
        steps = valid_rewrite_steps(group, current)
        if not steps:
            break
        current = apply_step(group, current, rng.choice(steps))
    return current


def random_swappable_word(rng: random.Random, grading: Grading, index_pool: int = 6):
    """Nonzero-evaluation word built from closed-walk blocks, so swaps exist."""
    start = rng.randint(1, grading.n)
    blocks = []
    for _ in range(rng.randint(2, 3)):
        blocks.append(
            random_chain_word(
                rng, grading, rng.randint(1, 3), start=start, end=start, index_pool=index_pool
            )
        )
    tail = random_chain_word(rng, grading, rng.randint(1, 2), start=start, index_pool=index_pool)
    return tuple(itertools.chain.from_iterable(blocks)) + tail
