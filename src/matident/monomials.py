"""Monomial graded identities: decision, enumeration, shortest length, bounds.

A word is a graded identity exactly when no matrix-unit chain survives its
degree sequence, so monomial identities are a property of the degree
sequence alone.  Row k survives exactly when every g_k * d_i is a tuple
entry, where d_i are the prefix degrees, so identity and minimality are
decided from one survivor mask per prefix degree (`Grading.survivors`),
with no chain walk; only `Grading.lset` and the certificate checkers walk
chains.  The set of surviving rows evolves under a finite subset
automaton (state: set of current rows, transition by one degree), which
yields exact shortest-identity answers by breadth-first search; the
exhaustive enumerator walks the same automaton depth-first and builds
only the states it visits.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import accumulate
from typing import NamedTuple, Optional, Sequence, Union

from .grading import Grading
from .groups import Element

State = frozenset  # frozenset[int], current 1-based rows


def _prefix_degrees(grading: Grading, hseq: Sequence[Element]):
    """d_2, ..., d_{q+1} of a nonempty degree sequence, each degree validated."""
    group = grading.group
    hseq = [group.check(h) for h in hseq]
    if not hseq:
        raise ValueError("degree sequence must be nonempty")
    return accumulate(hseq, group.op)


def is_monomial_identity(grading: Grading, hseq: Sequence[Element]) -> bool:
    """True when every matrix-unit chain of these degrees dies out."""
    return not grading.survivors(_prefix_degrees(grading, hseq))


def transition(grading: Grading, state: State, h: Element) -> State:
    """One automaton step: advance every surviving row through degree h."""
    table = grading.step(grading.group.check(h))[0]
    return frozenset({table[pos] for pos in state} - {None})


def initial_state(grading: Grading) -> State:
    return frozenset(range(1, grading.n + 1))


def enumerate_monomial_identities(
    grading: Grading, max_len: int
) -> list[tuple[Element, ...]]:
    """Identity degree sequences over the support, up to max_len.

    Depth-first over the support alphabet, in lexicographic order; an
    identity prefix subsumes all of its extensions.  The walk memoizes as
    it goes: each state's row of transitions is built on its first visit,
    and `barren` keeps, per state, the largest number of steps left under
    which its subtree emitted nothing, so the state is skipped whenever it
    recurs with at most that many.  Only states within max_len steps of the
    full row set are built.  A grading with no identity at all returns []
    at once, which keeps the walk from going max_len levels deep for
    nothing.
    """
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    if shortest_monomial_identity(grading) is None:
        return []
    alphabet = grading.support()
    rows: dict[State, list[tuple[Element, State]]] = {}
    barren: dict[State, int] = {}
    out: list[tuple[Element, ...]] = []

    def walk(state: State, prefix: tuple[Element, ...], remaining: int) -> None:
        if remaining <= barren.get(state, 0):
            return
        row = rows.get(state)
        if row is None:
            row = rows[state] = [(h, transition(grading, state, h)) for h in alphabet]
        emitted = len(out)
        for h, nxt in row:
            if not nxt:
                out.append(prefix + (h,))
            elif remaining > 1:
                walk(nxt, prefix + (h,), remaining - 1)
        if len(out) == emitted:
            barren[state] = remaining

    try:
        walk(initial_state(grading), (), max_len)
    except RecursionError:
        # once an identity exists, the neutral degree keeps the walk alive max_len deep
        raise ValueError(f"max_len {max_len} is too deep to enumerate") from None
    return out


def is_minimal_identity(grading: Grading, hseq: Sequence[Element]) -> bool:
    """Minimality filter for identity degree sequences.

    A sequence fails when (a) some proper contiguous factor is already an
    identity, or (b) merging consecutive blocks into their degree products
    yields a strictly shorter identity sequence that stays inside the
    support.  Coarsenings that leave the support are not counted: those
    sequences vanish for the trivial reason that a whole component is zero,
    and the enumeration alphabet excludes them from the start.

    Three facts, true for any tuple, reduce both to ANDs of the survivor
    masks of the prefix degrees d_2, ..., d_{q+1}:
    1. Identities are closed under extension, so (a) holds exactly when
       seq[1:] or seq[:-1] (all masks but the last) is an identity.
    2. A factor whose product leaves the support is an identity, so once
       (a) fails, every block of a coarsening into >= 2 blocks lies in the
       support; the one-block coarsening is an identity only outside it.
    3. A coarsening's prefix degrees are those at its block ends, and fewer
       ends AND fewer masks, so for q >= 3, (b) holds exactly when merging
       one adjacent pair, which leaves out one mask, gives an identity."""
    seq = tuple(hseq)
    degrees = list(_prefix_degrees(grading, seq))
    q = len(degrees)
    # the empty seq[1:] of q = 1 keeps every row, as a non-identity should
    if grading.survivors(degrees) or not grading.survivors(accumulate(seq[1:], grading.group.op)):
        return False
    # leaving out degrees[i] = d_{i+2} merges (h_{i+1}, h_{i+2}), or gives seq[:-1] at i = q - 1
    skips = range(0 if q >= 3 else q - 1, q)
    return all(grading.survivors(degrees[:i] + degrees[i + 1 :]) for i in skips)


def shortest_monomial_identity(
    grading: Grading,
) -> Optional[tuple[int, tuple[Element, ...]]]:
    """Exact shortest identity length with its lexicographically least witness.

    Breadth-first search on the subset automaton from the full row set to
    the empty state; None when the empty state is unreachable, in which
    case no word over the support is an identity, of any length.
    """
    alphabet = grading.support()
    start = initial_state(grading)
    parent: dict[State, tuple[State, Element]] = {}
    seen = {start}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        for h in alphabet:
            nxt = transition(grading, state, h)
            if nxt in seen:
                continue
            parent[nxt] = (state, h)
            if not nxt:
                witness: list[Element] = []
                cur: State = nxt
                while cur != start:
                    prev, sym = parent[cur]
                    witness.append(sym)
                    cur = prev
                witness.reverse()
                return len(witness), tuple(witness)
            seen.add(nxt)
            queue.append(nxt)
    return None


MAX_PRINTED_DIGITS = 4300


class LengthBounds(NamedTuple):
    """Each cap is an int when it has at most MAX_PRINTED_DIGITS decimal
    digits, and otherwise its power form as text, such as "4*28^3140"."""

    support_bound: Union[int, str]  # 4*s^(2s+2) with s = |support|
    size_bound: Union[int, str]     # 4*n^(4*(n^2+1))


def _four_times_power(base: int, exponent: int) -> Union[int, str]:
    """4*base^exponent, exact when short enough to print, else its text.

    The digit count is read from a float logarithm, so an integer too long
    to print is never built.  Both caps grow with s and n, and the ones
    nearest the limit (s = 747 and 748, n = 27 and 28) lie 0.9 or more
    from it on the log10 scale, far beyond float error.
    """
    if math.log10(4) + exponent * math.log10(base) >= MAX_PRINTED_DIGITS:
        return f"4*{base}^{exponent}"
    return 4 * base**exponent


def length_bounds(grading: Grading) -> LengthBounds:
    """Closed-form caps on the length of basis monomial identities."""
    s = len(grading.support())
    n = grading.n
    return LengthBounds(
        support_bound=_four_times_power(s, 2 * s + 2),
        size_bound=_four_times_power(n, 4 * (n * n + 1)),
    )
