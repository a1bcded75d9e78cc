"""Monomial graded identities: decision, enumeration, shortest length, bounds.

A word is a graded identity exactly when no matrix-unit chain survives its
degree sequence, so monomial identities are a property of the degree
sequence alone.  The set of surviving rows evolves under a finite subset
automaton (state: set of current rows, transition by one degree), which
yields exact shortest-identity answers by breadth-first search and exact
pruning for the exhaustive enumerator.
"""

from __future__ import annotations

import math
from collections import deque
from typing import NamedTuple, Optional, Sequence, Union

from .grading import Grading
from .groups import Element

State = frozenset  # frozenset[int], current 1-based rows


def is_monomial_identity(grading: Grading, hseq: Sequence[Element]) -> bool:
    """True when every matrix-unit chain of these degrees dies out."""
    return grading.lset(hseq).is_empty


def transition(grading: Grading, state: State, h: Element) -> State:
    """One automaton step: advance every surviving row through degree h."""
    table = grading.step_table(h)
    out = {table[pos] for pos in state}
    out.discard(None)
    return frozenset(out)


def initial_state(grading: Grading) -> State:
    return frozenset(range(1, grading.n + 1))


def _reachable_transitions(
    grading: Grading, alphabet: Sequence[Element]
) -> dict[State, dict[Element, State]]:
    """Transition table of all states reachable from the initial state."""
    start = initial_state(grading)
    table: dict[State, dict[Element, State]] = {}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        if state in table:
            continue
        row = {}
        for h in alphabet:
            nxt = transition(grading, state, h)
            row[h] = nxt
            if nxt and nxt not in table:
                queue.append(nxt)
        table[state] = row
    return table


def _distance_to_dead(table: dict[State, dict[Element, State]]) -> dict[State, int]:
    """Shortest number of steps from each state to the empty state."""
    empty: State = frozenset()
    dist: dict[State, int] = {empty: 0}
    # reverse edges over the reachable graph
    back: dict[State, list[State]] = {}
    for state, row in table.items():
        for nxt in row.values():
            back.setdefault(nxt, []).append(state)
    queue = deque([empty])
    while queue:
        cur = queue.popleft()
        for prev in back.get(cur, ()):
            if prev not in dist:
                dist[prev] = dist[cur] + 1
                queue.append(prev)
    return dist


def enumerate_monomial_identities(
    grading: Grading, max_len: int
) -> list[tuple[Element, ...]]:
    """Identity degree sequences over the support, up to max_len.

    Depth-first over the support alphabet with exact pruning: an identity
    prefix subsumes all of its extensions, and subtrees from which the dead
    state is out of reach within the remaining budget are skipped.  Output
    is in lexicographic order.
    """
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    alphabet = grading.support()
    table = _reachable_transitions(grading, alphabet)
    dist = _distance_to_dead(table)
    out: list[tuple[Element, ...]] = []

    def walk(state: State, prefix: tuple[Element, ...]) -> None:
        remaining = max_len - len(prefix)
        if remaining == 0:
            return
        for h in alphabet:
            nxt = table[state][h]
            if not nxt:
                out.append(prefix + (h,))
                continue
            if dist.get(nxt, max_len + 1) <= remaining - 1:
                walk(nxt, prefix + (h,))

    start = initial_state(grading)
    if dist.get(start, max_len + 1) <= max_len:
        walk(start, ())
    return out


def _coarsenings(seq: tuple[Element, ...]):
    """Splits of the sequence into consecutive blocks, at least one of size >= 2."""
    q = len(seq)
    for mask in range(2 ** (q - 1)):
        cuts = [i + 1 for i in range(q - 1) if mask >> i & 1]
        bounds = [0] + cuts + [q]
        if len(bounds) - 1 == q:
            continue  # all singletons: the sequence itself
        yield [seq[a:b] for a, b in zip(bounds, bounds[1:])]


def is_minimal_identity(grading: Grading, hseq: Sequence[Element]) -> bool:
    """Minimality filter for identity degree sequences.

    A sequence fails when (a) some proper contiguous factor is already an
    identity, or (b) merging consecutive blocks into their degree products
    yields a strictly shorter identity sequence that stays inside the
    support.  Coarsenings that leave the support are not counted: those
    sequences vanish for the trivial reason that a whole component is zero,
    and the enumeration alphabet excludes them from the start.
    """
    seq = tuple(hseq)
    if not is_monomial_identity(grading, seq):
        return False
    q = len(seq)
    for a in range(q):
        for b in range(a + 1, q + 1):
            if (b - a) < q and is_monomial_identity(grading, seq[a:b]):
                return False
    group = grading.group
    support = set(grading.support())
    for blocks in _coarsenings(seq):
        merged = []
        for block in blocks:
            acc = block[0]
            for h in block[1:]:
                acc = group.op(acc, h)
            merged.append(acc)
        if all(h in support for h in merged) and is_monomial_identity(grading, merged):
            return False
    return True


def shortest_monomial_identity(
    grading: Grading,
) -> Optional[tuple[int, tuple[Element, ...]]]:
    """Exact shortest identity length with one witness sequence.

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
