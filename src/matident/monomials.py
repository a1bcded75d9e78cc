"""Monomial graded identities: enumeration, shortest length, bounds.

A word is a graded identity exactly when no matrix-unit chain survives its
degree sequence, so monomial identities are a property of the degree
sequence alone.  Row k survives exactly when every g_k * d_i is a tuple
entry, where d_i are the prefix degrees, so `generic` decides a word from
one survivor mask per prefix degree (`Grading.survivors`), with no chain
walk; only `Grading.walk` follows chains, for `lset` and the certificate
checkers.  The set of surviving rows evolves under a finite subset
automaton (state: set of current rows; its one step rule, `successors`,
advances a state through every support degree at once, from the same step
tables), which yields exact shortest-identity answers by breadth-first
search.  The exhaustive enumerator walks the same automaton depth-first,
and needs that search only when its cap outgrows the stack.  It emits the
identities in runs that share all but their last letter, and flags each
identity seq as minimal (no proper factor and no coarsening inside the
support is an identity) when, as for minimal forbidden words (Crochemore,
Mignosi, Restivo 1998), neither seq[:-1] (by construction) nor seq[1:]
(its state is carried along) is an identity and, for q >= 3 letters, no
AND of prefix masks that leaves out one of the first q-1 is 0.
"""

from __future__ import annotations

import math
from collections import deque
from typing import NamedTuple, Optional, Sequence, Union

from .grading import Grading
from .groups import Element

State = frozenset  # frozenset[int], current 1-based rows


def successors(grading: Grading, state: State) -> list[State]:
    """The automaton's one step rule: the state's successor through each
    support degree, in `support()` order, each advancing every surviving
    row through that degree's step table.  Support degrees are products of
    validated entries, so nothing is checked."""
    tables = [grading.step(h)[0] for h in grading.support()]
    return [frozenset({table[pos] for pos in state} - {0}) for table in tables]


# a run of identities that share all but their last letter: the shared
# prefix, the last letters in support order and their minimality flags
Run = tuple[tuple[Element, ...], Sequence[Element], Sequence[bool]]


def monomial_identity_runs(grading: Grading, max_len: int) -> list[Run]:
    """Identity degree sequences over the support up to max_len, in
    lexicographic order, as runs `(prefix, last letters, flags)`: each run
    stands for the sequences prefix + (h,), for h among its last letters,
    with their minimality flags, and no two consecutive runs share a prefix.

    Depth-first over the support alphabet, so no identity has length 1 and
    every prefix is nonempty; an identity prefix subsumes all of its
    extensions.  Beside the prefix's state the walk carries `tail`, the
    state of the prefix without its first letter, its product degree and its
    degrees' survivor masks, for `_merges_survive`.  Each state's row of
    `successors`, and each degree's row of extensions by one letter, is
    built on its first use and kept for this call only; so is, at the last
    step, each (state, tail) pair's run of dead letters with the positions
    whose tail successor survives, the only ones `_merges_survive` is asked
    about.  Reference counting frees these memos when the call returns or
    raises, which needs the walk to hold no reference to itself on any exit.
    `barren` keeps, per state, the largest number of steps left under which
    its subtree emitted nothing, so the state is skipped whenever it recurs
    with at most that many.  Only states within max_len steps of the full
    row set are built.  The shortest-identity search runs only when the walk
    outgrows the interpreter's stack: a grading with no identity then
    returns [], whatever the cap, and one with an identity refuses the cap
    as too deep to enumerate.
    """
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    alphabet = grading.support()
    op = grading.group.op
    full = frozenset(range(1, grading.n + 1))
    rows: dict[State, list[State]] = {}
    extensions: dict[Element, list[tuple[Element, tuple[int]]]] = {}
    # (state, tail) -> (dead letters, their flags when none is minimal,
    # (position in the run, letter index) for each whose tail successor survives)
    last_runs: dict[tuple[State, State], tuple[tuple, tuple, tuple]] = {}
    barren: dict[State, int] = {}
    out: list[Run] = []

    def row_of(state: State) -> list[State]:
        row = rows.get(state)
        if row is None:
            row = rows[state] = successors(grading, state)
        return row

    def extensions_of(degree: Element) -> list[tuple[Element, tuple[int]]]:
        # per letter: the extended product degree and the 1-tuple of its mask
        row = extensions.get(degree)
        if row is None:
            row = extensions[degree] = [
                (d, (grading.step(d)[1],)) for d in (op(degree, h) for h in alphabet)
            ]
        return row

    def last_run_of(state: State, tail: State) -> tuple[tuple, tuple, tuple]:
        dead = [i for i, nxt in enumerate(row_of(state)) if not nxt]
        tail_row = row_of(tail)
        found = last_runs[state, tail] = (
            tuple(alphabet[i] for i in dead),
            (False,) * len(dead),
            tuple((pos, i) for pos, i in enumerate(dead) if tail_row[i]),
        )
        return found

    def walk(
        state: State, tail: State, prefix: tuple, degree: Element, masks: tuple, remaining: int
    ) -> None:
        if remaining <= barren.get(state, 0):
            return
        emitted = len(out)
        if remaining == 1:
            lasts, flags, candidates = last_runs.get((state, tail)) or last_run_of(state, tail)
            if lasts:
                if candidates:
                    ext = extensions_of(degree)
                    flags = list(flags)
                    for pos, i in candidates:
                        flags[pos] = _merges_survive(masks + ext[i][1])
                out.append((prefix, lasts, flags))
        else:
            lasts = None  # the open run of this prefix, while no subtree emits after it
            for h, nxt, tail_nxt, (d, mask) in zip(
                alphabet, row_of(state), row_of(tail), extensions_of(degree)
            ):
                if not nxt:
                    if lasts is None:
                        lasts, flags = [], []
                        out.append((prefix, lasts, flags))
                    lasts.append(h)
                    flags.append(bool(tail_nxt) and _merges_survive(masks + mask))
                else:
                    before = len(out)
                    walk(nxt, tail_nxt if prefix else full, prefix + (h,), d, masks + mask,
                         remaining - 1)
                    if len(out) != before:
                        lasts = None
        if len(out) == emitted:
            barren[state] = remaining

    try:
        walk(full, full, (), grading.group.identity(), (), max_len)
    except RecursionError:
        if shortest_monomial_identity(grading) is None:
            return []
        # once an identity exists, the neutral degree keeps the walk alive max_len deep
        raise ValueError(f"max_len {max_len} is too deep to enumerate") from None
    finally:
        # `walk` calls itself through its own closure cell, a cycle that holds
        # the memos and `out`; cut it so reference counting frees them on every exit
        walk = None
    return out


def enumerate_monomial_identities(
    grading: Grading, max_len: int
) -> list[tuple[tuple[Element, ...], bool]]:
    """Identity degree sequences over the support up to max_len, in
    lexicographic order, each with its minimality flag: the runs of
    `monomial_identity_runs`, one pair per sequence."""
    return [
        (prefix + (h,), flag)
        for prefix, lasts, flags in monomial_identity_runs(grading, max_len)
        for h, flag in zip(lasts, flags)
    ]


def _merges_survive(masks: tuple[int, ...]) -> bool:
    """Whether no coarsening inside the support of an identity seq is an
    identity, given that no proper factor of seq is one; `masks` are the
    survivor masks of seq's prefix degrees d_2, ..., d_{q+1} (products of
    support elements), as the walk carries them.  Two facts, true for any
    tuple, reduce this to ANDs of those masks:
    1. A factor whose product leaves the support is an identity, so every
       block of a coarsening into >= 2 blocks lies in the support; the
       one-block coarsening is an identity only outside it, so q <= 2 passes.
    2. A coarsening's prefix degrees are those at its block ends, and fewer
       ends AND fewer masks, so for q >= 3 some coarsening is an identity
       exactly when merging one adjacent pair, which leaves out one of the
       first q-1 masks, gives one."""
    if len(masks) < 3:
        return True
    # leaving out masks[i] merges (h_{i+1}, h_{i+2}); after[-1 - i] ANDs masks[i + 1:]
    after = [-1]
    for mask in reversed(masks[1:]):
        after.append(after[-1] & mask)
    before = -1
    for mask, rest in zip(masks[:-1], reversed(after)):
        if not before & rest:
            return False
        before &= mask
    return True


def shortest_monomial_identity(
    grading: Grading,
) -> Optional[tuple[int, tuple[Element, ...]]]:
    """Exact shortest identity length with its lexicographically least witness.

    Breadth-first search on the subset automaton from the full row set to
    the empty state; None when the empty state is unreachable, in which
    case no word over the support is an identity, of any length.
    """
    alphabet = grading.support()
    start = frozenset(range(1, grading.n + 1))
    # reached state -> (state it was first reached from, degree); the start -> None
    parent: dict[State, Optional[tuple[State, Element]]] = {start: None}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        for h, nxt in zip(alphabet, successors(grading, state)):
            if nxt in parent:
                continue
            parent[nxt] = (state, h)
            if not nxt:
                witness: list[Element] = []
                while parent[nxt] is not None:
                    nxt, h = parent[nxt]
                    witness.append(h)
                return len(witness), tuple(reversed(witness))
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
