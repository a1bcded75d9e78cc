"""Elementary gradings of n x n matrix algebras.

A grading is induced by a tuple (g_1, ..., g_n) of group elements: the
matrix unit E_ij is homogeneous of degree g_i^-1 * g_j.  This module
computes the degree map, the support, homogeneous component dimensions,
and the chain structure of matrix-unit products: for a degree sequence
(h_1, ..., h_q), the starting rows k from which a nonzero product of units
of those degrees exists, together with the row path it traces.

The step table and survivor mask of a degree are built with n group
operations the first time the grading sees it (`step`).  Row 0 is the dead
row: a table maps it to itself and sends there every row whose chain
leaves the tuple, so one degree advances all rows at once with one C-level
`itemgetter` over its table (`walk`).  Row k survives a degree sequence
exactly when every g_k * d_i is a tuple entry, where d_i are its prefix
degrees, so `survivors` decides survival as one mask AND per prefix
degree; only `walk`, and `lset` through it, follow the rows.  Like group
arithmetic, `step`, `survivors` and `walk` trust their degrees.  `lset`,
`Grading.__init__` and `component_dimension` validate theirs, so
non-elements, True and 1.0 included, stay out of the value-keyed tables.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Any, Iterable, NamedTuple, Sequence

from .groups import Element, Group, element_from_json, group_from_config


class NeutralBlocks(NamedTuple):
    sizes: tuple[int, ...]      # multiplicities of equal tuple entries, descending
    dimension: int              # sum of squared sizes


@dataclass(frozen=True)
class Grading:
    """Elementary grading of M_n induced by an n-tuple of group elements.

    Repeated tuple entries are allowed; queries that are only meaningful
    for pairwise-distinct tuples live in the `generic` module and enforce
    distinctness there.
    """

    group: Group
    n: int
    entries: tuple[Element, ...]

    def __init__(self, group: Group, n: int, entries: Sequence[Element]) -> None:
        entries = tuple(entries)
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ValueError(f"matrix size must be an integer >= 1, got {n!r}")
        if len(entries) != n:
            raise ValueError(f"grading tuple has {len(entries)} entries, expected {n}")
        for e in entries:
            group.check(e)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "entries", entries)

    def entry(self, i: int) -> Element:
        """The tuple entry g_i, 1-based."""
        if not 1 <= i <= self.n:
            raise ValueError(f"index {i} out of range 1..{self.n}")
        return self.entries[i - 1]

    @property
    def is_distinct(self) -> bool:
        return len(set(self.entries)) == self.n

    @cached_property
    def _least_index(self) -> dict[Element, int]:
        # value -> least 1-based position carrying it (unique when distinct)
        out: dict[Element, int] = {}
        for i, v in enumerate(self.entries, start=1):
            out.setdefault(v, i)
        return out

    @cached_property
    def _entry_count(self) -> dict[Element, int]:
        return dict(Counter(self.entries))

    def unit_degree(self, i: int, j: int) -> Element:
        """Degree of the matrix unit E_ij."""
        gi = self.entry(i)
        gj = self.entry(j)
        return self.group.op(self.group.inverse(gi), gj)

    @cached_property
    def _support(self) -> tuple[Element, ...]:
        """Every g_a^-1 * g_b over the distinct entry values a, b, sorted:
        the degrees of the units E_ij, with one group operation per pair of
        values and no index check; `__init__` validated the entries."""
        values = set(self.entries)
        op = self.group.op
        return tuple(sorted({op(a, b) for a in map(self.group.inverse, values) for b in values}))

    def support(self) -> list[Element]:
        """Degrees with a nonzero homogeneous component, sorted."""
        return list(self._support)

    def component_dimension(self, g: Element) -> int:
        """Number of matrix units of degree g."""
        self.group.check(g)
        count = 0
        for gi in self.entries:
            target = self.group.op(gi, g)
            count += self._entry_count.get(target, 0)
        return count

    @cached_property
    def _steps(self) -> dict[Element, tuple[tuple[int, ...], int]]:
        return {}

    def step(self, h: Element) -> tuple[tuple[int, ...], int]:
        """Step table and survivor mask of degree h, built on the first call.

        The table is indexed by 1-based row: entry `pos` is the least row j
        with g_j = g_pos * h, or 0, the dead row, when that product leaves
        the tuple's value set; entry 0 is 0, so a dead chain stays dead.
        Bit `pos` of the mask is set exactly where the table has a row.
        Like group arithmetic, this trusts h: callers pass elements already
        validated, or products of them.
        """
        entry = self._steps.get(h)
        if entry is None:
            least = self._least_index
            op = self.group.op
            table = (0,) + tuple(least.get(op(g, h), 0) for g in self.entries)
            mask = sum(1 << pos for pos, row in enumerate(table) if row)
            entry = self._steps[h] = (table, mask)
        return entry

    def survivors(self, degrees: Iterable[Element]) -> int:
        """Rows k with every g_k * d a tuple entry: for a sequence's prefix
        degrees, the start rows whose chains survive it.  The AND of the
        `step` masks stops at 0; like `step`, this trusts its degrees."""
        mask = -1
        for d in degrees:
            mask &= self.step(d)[1]
            if not mask:
                break
        return mask

    def walk(self, hseq: Iterable[Element]) -> list[tuple[int, ...]]:
        """Every row's chain through a degree sequence, one tuple per stage.

        Stage i holds, at index k, the row the chain from start row k
        reaches after the first i degrees, or 0 once it has left the tuple;
        stage 0 is 0..n, so index 0 is the dead row throughout.  Each
        degree advances all rows at once, with one C-level `itemgetter`
        over its step table.  Like `step`, this trusts its degrees.
        """
        step = self.step
        rows = tuple(range(self.n + 1))  # n + 1 >= 2 indexes: itemgetter returns a tuple
        stages = [rows]
        for h in hseq:
            rows = itemgetter(*rows)(step(h)[0])
            stages.append(rows)
        return stages

    def lset(self, hseq: Sequence[Element]) -> dict[int, tuple[int, ...]]:
        """Start rows whose unit chains survive the whole degree sequence,
        as {start row k: row path}, in ascending start order.

        The path of k is (s_1, ..., s_{q+1}) with s_1 = k and
        g_{s_{i+1}} = g_{s_i} * h_i.  Each degree is validated once; the
        paths are then read from the `walk` of all rows.
        """
        hseq = [self.group.check(h) for h in hseq]
        if not hseq:
            raise ValueError("degree sequence must be nonempty")
        # the dead row's path ends at 0, like that of every chain that dies
        return {path[0]: path for path in zip(*self.walk(hseq)) if path[-1]}

    def neutral_blocks(self) -> NeutralBlocks:
        """Multiplicities of equal tuple entries and the neutral dimension."""
        sizes = tuple(sorted(self._entry_count.values(), reverse=True))
        return NeutralBlocks(sizes=sizes, dimension=sum(m * m for m in sizes))


def grading_from_config(obj: Any) -> Grading:
    """Build a grading from its document form.

    Expected shape: {"group": {...}, "n": int, "tuple": [element, ...]}
    where elements use the group's literal syntax (or native JSON values).
    """
    if not isinstance(obj, dict):
        raise ValueError(f"grading description must be an object, got {type(obj).__name__}")
    for key in ("group", "n", "tuple"):
        if key not in obj:
            raise ValueError(f"grading description is missing the {key!r} key")
    group = group_from_config(obj["group"])
    n = obj["n"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"'n' must be an integer, got {n!r}")
    raw = obj["tuple"]
    if not isinstance(raw, list):
        raise ValueError("'tuple' must be a list of element literals")
    entries = [element_from_json(group, v) for v in raw]
    return Grading(group, n, entries)
