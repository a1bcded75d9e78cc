"""Elementary gradings of n x n matrix algebras.

A grading is induced by a tuple (g_1, ..., g_n) of group elements: the
matrix unit E_ij is homogeneous of degree g_i^-1 * g_j.  This module
computes the degree map, the support, homogeneous component dimensions,
and the chain structure of matrix-unit products: for a degree sequence
(h_1, ..., h_q), the starting rows k from which a nonzero product of units
of those degrees exists, together with the row path it traces.

The step table and survivor mask of a degree are built with n group
operations the first time the grading sees it (`step`).  Row k survives a
degree sequence exactly when every g_k * d_i is a tuple entry, where d_i
are its prefix degrees, so `survivors` decides survival as one mask AND
per prefix degree; only `lset` walks the rows.  Like group arithmetic,
`step` and `survivors` trust their degrees.  `lset`, `Grading.__init__`
and `component_dimension` validate theirs, so non-elements, True and 1.0
included, stay out of the value-keyed tables.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Iterable, NamedTuple, Optional, Sequence

from .groups import Element, Group, element_from_json, group_from_config


@dataclass(frozen=True)
class LSet:
    """Surviving start rows for a degree sequence, with their row paths.

    For each start k in `starts`, `paths[k]` is the tuple
    (s_1, ..., s_{q+1}) with s_1 = k and g_{s_{i+1}} = g_{s_i} * h_i.
    """

    starts: tuple[int, ...]
    paths: dict[int, tuple[int, ...]]

    @property
    def is_empty(self) -> bool:
        return not self.starts


class NeutralReport(NamedTuple):
    """Three independent views of the neutral component's shape."""

    distinct_entries: bool      # the inducing tuple has pairwise different entries
    neutral_is_diagonal: bool   # neutral units are exactly the E_ii
    neutral_commutes: bool      # x1*x2 - x2*x1 on neutral units vanishes


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
        seen = {self.unit_degree(i, j) for i in range(1, self.n + 1) for j in range(1, self.n + 1)}
        return tuple(sorted(seen))

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
    def _steps(self) -> dict[Element, tuple[tuple[Optional[int], ...], int]]:
        return {}

    def step(self, h: Element) -> tuple[tuple[Optional[int], ...], int]:
        """Step table and survivor mask of degree h, built on the first call.

        The table is indexed by 1-based row: entry `pos` is the least row j
        with g_j = g_pos * h, or None when that product leaves the tuple's
        value set; entry 0 is unused.  Bit `pos` of the mask is set exactly
        where the table has a row.  Like group arithmetic, this trusts h:
        callers pass elements already validated, or products of them.
        """
        entry = self._steps.get(h)
        if entry is None:
            least = self._least_index
            op = self.group.op
            table = (None,) + tuple(least.get(op(g, h)) for g in self.entries)
            mask = sum(1 << pos for pos, row in enumerate(table) if row is not None)
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

    def lset(self, hseq: Sequence[Element]) -> LSet:
        """Start rows whose unit chains survive the whole degree sequence.

        Each degree is validated once; the walk from every start row then
        only reads the step tables.
        """
        tables = [self.step(self.group.check(h))[0] for h in hseq]
        if not tables:
            raise ValueError("degree sequence must be nonempty")
        starts: list[int] = []
        paths: dict[int, tuple[int, ...]] = {}
        for k in range(1, self.n + 1):
            path = [k]
            pos: Optional[int] = k
            for table in tables:
                pos = table[pos]
                if pos is None:
                    break
                path.append(pos)
            else:
                starts.append(k)
                paths[k] = tuple(path)
        return LSet(starts=tuple(starts), paths=paths)

    def neutral_report(self) -> NeutralReport:
        """Evaluate the three equivalent descriptions of a diagonal neutral part.

        Each condition is computed independently: (i) by comparing tuple
        entries, (ii) by scanning all matrix units of neutral degree, and
        (iii) by substituting every pair of neutral-degree matrix units into
        the commutator and comparing the products exactly.
        """
        eps = self.group.identity()
        distinct = self.is_distinct

        neutral_units = [
            (i, j)
            for i in range(1, self.n + 1)
            for j in range(1, self.n + 1)
            if self.unit_degree(i, j) == eps
        ]
        diagonal = all(i == j for i, j in neutral_units)

        def unit_product(a: tuple[int, int], b: tuple[int, int]) -> Optional[tuple[int, int]]:
            return (a[0], b[1]) if a[1] == b[0] else None

        commutes = all(
            unit_product(u, v) == unit_product(v, u)
            for u in neutral_units
            for v in neutral_units
        )
        return NeutralReport(distinct, diagonal, commutes)

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
