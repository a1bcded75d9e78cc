"""Group arithmetic for grading tuples.

Four kinds of groups cover every grading handled by this package: additive
cyclic groups, the additive integers, direct products, and finite groups
presented by an explicit multiplication table (validated on construction).

Element values are plain Python data -- residues, signed ints, tuples of
component values, or label indices.  They are hashable and totally ordered
within one group (numeric order, lexicographic order on tuples, label-index
order), and carry no back-reference to their group: every operation takes
the group as explicit context.  Values are validated where they enter
(`parse`, `check`, `element_from_json`); `op`, `inverse` and `format`
trust their arguments and may return garbage for a non-element.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Iterator, Optional, Sequence

Element = Any


@dataclass(frozen=True)
class CayleyViolation:
    """First group axiom violated by a candidate multiplication table."""

    axiom: str  # "latin-square" | "identity" | "inverse" | "associativity"
    witness: tuple
    detail: str

    def __str__(self) -> str:
        return f"{self.axiom} violated: {self.detail}"


class Group:
    """Base interface; only `parse` and `check` validate element values."""

    def op(self, a: Element, b: Element) -> Element:
        raise NotImplementedError

    def inverse(self, a: Element) -> Element:
        raise NotImplementedError

    def identity(self) -> Element:
        raise NotImplementedError

    def contains(self, a: Element) -> bool:
        raise NotImplementedError

    def elements(self) -> Iterator[Element]:
        """Iterate every element; raises for infinite groups."""
        raise NotImplementedError

    def parse(self, text: str) -> Element:
        raise NotImplementedError

    def format(self, a: Element) -> str:
        raise NotImplementedError

    def check(self, a: Element) -> Element:
        if not self.contains(a):
            raise ValueError(f"{a!r} is not an element of {self}")
        return a

    @property
    def order(self) -> Optional[int]:
        raise NotImplementedError


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class CyclicGroup(Group):
    """Z_n in additive notation; elements are residues 0..n-1."""

    n: int

    def __post_init__(self) -> None:
        if not _is_int(self.n) or self.n < 1:
            raise ValueError(f"cyclic group order must be a positive integer, got {self.n!r}")

    def op(self, a: Element, b: Element) -> Element:
        return (a + b) % self.n

    def inverse(self, a: Element) -> Element:
        return (-a) % self.n

    def identity(self) -> Element:
        return 0

    def contains(self, a: Element) -> bool:
        return _is_int(a) and 0 <= a < self.n

    def elements(self) -> Iterator[Element]:
        return iter(range(self.n))

    def parse(self, text: str) -> Element:
        text = text.strip()
        try:
            value = int(text)
        except ValueError:
            raise ValueError(f"invalid residue literal {text!r} for {self}") from None
        if not 0 <= value < self.n:
            raise ValueError(f"residue {value} out of range for {self}")
        return value

    def format(self, a: Element) -> str:
        return str(a)

    @property
    def order(self) -> Optional[int]:
        return self.n

    def __str__(self) -> str:
        return f"Z{self.n}"


@dataclass(frozen=True)
class IntegerGroup(Group):
    """The additive integers, with arbitrary-precision values."""

    def op(self, a: Element, b: Element) -> Element:
        return a + b

    def inverse(self, a: Element) -> Element:
        return -a

    def identity(self) -> Element:
        return 0

    def contains(self, a: Element) -> bool:
        return _is_int(a)

    def elements(self) -> Iterator[Element]:
        raise ValueError("the integers are infinite; cannot enumerate elements")

    def parse(self, text: str) -> Element:
        text = text.strip()
        try:
            return int(text)
        except ValueError:
            raise ValueError(f"invalid integer literal {text!r}") from None

    def format(self, a: Element) -> str:
        return str(a)

    @property
    def order(self) -> Optional[int]:
        return None

    def __str__(self) -> str:
        return "Z"


def split_top_level(text: str) -> list[str]:
    """Split on commas that are not nested inside parentheses."""
    parts: list[str] = []
    depth = 0
    current: list[str] = []
    for ch in text:
        if ch == "(":
            depth += 1
            current.append(ch)
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced parentheses in {text!r}")
            current.append(ch)
        elif ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    if depth != 0:
        raise ValueError(f"unbalanced parentheses in {text!r}")
    parts.append("".join(current))
    return parts


@dataclass(frozen=True)
class ProductGroup(Group):
    """Direct product; elements are tuples of factor elements."""

    factors: tuple[Group, ...]

    def __init__(self, factors: Sequence[Group]) -> None:
        factors = tuple(factors)
        if not factors:
            raise ValueError("product group needs at least one factor")
        for f in factors:
            if not isinstance(f, Group):
                raise ValueError(f"product factor {f!r} is not a group")
        object.__setattr__(self, "factors", factors)

    def op(self, a: Element, b: Element) -> Element:
        return tuple(f.op(x, y) for f, x, y in zip(self.factors, a, b))

    def inverse(self, a: Element) -> Element:
        return tuple(f.inverse(x) for f, x in zip(self.factors, a))

    def identity(self) -> Element:
        return tuple(f.identity() for f in self.factors)

    def contains(self, a: Element) -> bool:
        return (
            isinstance(a, tuple)
            and len(a) == len(self.factors)
            and all(f.contains(x) for f, x in zip(self.factors, a))
        )

    def elements(self) -> Iterator[Element]:
        return itertools.product(*(f.elements() for f in self.factors))

    def parse(self, text: str) -> Element:
        text = "".join(text.split())
        if not (text.startswith("(") and text.endswith(")")):
            raise ValueError(f"product element must be parenthesized, got {text!r}")
        parts = split_top_level(text[1:-1])
        if len(parts) != len(self.factors):
            raise ValueError(
                f"expected {len(self.factors)} components for {self}, got {len(parts)}"
            )
        return tuple(f.parse(p) for f, p in zip(self.factors, parts))

    def format(self, a: Element) -> str:
        return "(" + ",".join(f.format(x) for f, x in zip(self.factors, a)) + ")"

    @property
    def order(self) -> Optional[int]:
        total = 1
        for f in self.factors:
            if f.order is None:
                return None
            total *= f.order
        return total

    def __str__(self) -> str:
        return "x".join(str(f) for f in self.factors)


def validate_cayley(
    names: Sequence[str], table: Sequence[Sequence[int]]
) -> Optional[CayleyViolation]:
    """Check that a multiplication table defines a group.

    Axioms are checked in a fixed order (Latin square, two-sided identity,
    two-sided inverses, associativity of all triples) and the first failure
    is reported with witnesses.  Returns None when all checks pass.
    Dimension mismatches raise ValueError since no axiom can be evaluated.
    """
    n = len(names)
    if n == 0:
        raise ValueError("cayley group needs at least one element")
    if len(set(names)) != n:
        raise ValueError("cayley element labels must be distinct")
    if len(table) != n or any(len(row) != n for row in table):
        raise ValueError(f"cayley table must be {n}x{n} to match {n} labels")
    for i, row in enumerate(table):
        for j, v in enumerate(row):
            if not _is_int(v) or not 0 <= v < n:
                raise ValueError(f"table entry at ({i},{j}) is {v!r}, not a label index")

    for i, row in enumerate(table):
        if sorted(row) != list(range(n)):
            return CayleyViolation(
                "latin-square", (i,), f"row of {names[i]!r} is not a permutation of all labels"
            )
    for j in range(n):
        col = [table[i][j] for i in range(n)]
        if sorted(col) != list(range(n)):
            return CayleyViolation(
                "latin-square", (j,), f"column of {names[j]!r} is not a permutation of all labels"
            )

    ident = None
    for e in range(n):
        if all(table[e][j] == j for j in range(n)) and all(table[i][e] == i for i in range(n)):
            ident = e
            break
    if ident is None:
        return CayleyViolation("identity", (), "no two-sided identity element")

    for a in range(n):
        if not any(table[a][b] == ident and table[b][a] == ident for b in range(n)):
            return CayleyViolation(
                "inverse", (a,), f"{names[a]!r} has no two-sided inverse"
            )

    for a in range(n):
        for b in range(n):
            ab = table[a][b]
            for c in range(n):
                if table[ab][c] != table[a][table[b][c]]:
                    return CayleyViolation(
                        "associativity",
                        (a, b, c),
                        f"({names[a]}*{names[b]})*{names[c]} != {names[a]}*({names[b]}*{names[c]})",
                    )
    return None


_LABEL_SEPARATORS = ";,()"


@dataclass(frozen=True)
class CayleyGroup(Group):
    """Finite group given by labels and a validated multiplication table.

    Elements are label indices 0..n-1; the label text is used only for
    parsing and formatting.  Labels must be nonempty strings free of
    whitespace, ';', ',', '(' and ')', so that they read back from every
    literal that holds them: x[label;i], product tuples, degree lists.
    """

    names: tuple[str, ...]
    table: tuple[tuple[int, ...], ...]

    def __init__(self, names: Sequence[str], table: Sequence[Sequence[int]]) -> None:
        names = tuple(names)
        for label in names:
            if not isinstance(label, str):
                raise ValueError(f"cayley label {label!r} is not a string")
            if not label or any(ch.isspace() or ch in _LABEL_SEPARATORS for ch in label):
                raise ValueError(
                    f"cayley label {label!r} would not read back: labels must be "
                    f"nonempty, without whitespace or any of {_LABEL_SEPARATORS!r}"
                )
        table = tuple(tuple(row) for row in table)
        violation = validate_cayley(names, table)
        if violation is not None:
            raise ValueError(f"not a group table: {violation}")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "table", table)

    def op(self, a: Element, b: Element) -> Element:
        return self.table[a][b]

    def inverse(self, a: Element) -> Element:
        # in a group a*b = e has the one solution b = a^-1
        return self.table[a].index(self.identity())

    def identity(self) -> Element:
        # in a group 0*e = 0 has the one solution e
        return self.table[0].index(0)

    def contains(self, a: Element) -> bool:
        return _is_int(a) and 0 <= a < len(self.names)

    def elements(self) -> Iterator[Element]:
        return iter(range(len(self.names)))

    def parse(self, text: str) -> Element:
        label = text.strip()
        try:
            return self.names.index(label)
        except ValueError:
            raise ValueError(f"unknown label {label!r}; expected one of {list(self.names)}") from None

    def format(self, a: Element) -> str:
        return self.names[a]

    @property
    def order(self) -> Optional[int]:
        return len(self.names)

    def __str__(self) -> str:
        return f"cayley({','.join(self.names)})"


def element_from_json(group: Group, value: Any) -> Element:
    """Coerce a JSON value (string literal, int, or nested list) to an element."""
    if isinstance(value, str):
        return group.parse(value)
    if isinstance(value, list):
        if not isinstance(group, ProductGroup):
            raise ValueError(f"list element literal {value!r} only valid for product groups")
        if len(value) != len(group.factors):
            raise ValueError(
                f"expected {len(group.factors)} components, got {len(value)}"
            )
        return tuple(element_from_json(f, v) for f, v in zip(group.factors, value))
    return group.check(value)


def group_from_config(obj: Any) -> Group:
    """Build a group from the document form used by grading files.

    Recognized shapes:
      {"type": "cyclic", "order": n}
      {"type": "integers"}
      {"type": "product", "factors": [<group>, ...]}
      {"type": "cayley", "names": [...], "table": [[...], ...]}
    """
    if not isinstance(obj, dict):
        raise ValueError(f"group description must be an object, got {type(obj).__name__}")
    kind = obj.get("type")
    if kind == "cyclic":
        if "order" not in obj:
            raise ValueError("cyclic group needs an 'order' key")
        return CyclicGroup(obj["order"])
    if kind == "integers":
        return IntegerGroup()
    if kind == "product":
        factors = obj.get("factors")
        if not isinstance(factors, list) or not factors:
            raise ValueError("product group needs a nonempty 'factors' list")
        return ProductGroup([group_from_config(f) for f in factors])
    if kind == "cayley":
        names, table = obj.get("names"), obj.get("table")
        if not isinstance(names, list) or not (
            isinstance(table, list) and all(isinstance(row, list) for row in table)
        ):
            raise ValueError("cayley group needs a 'names' list and a 'table' list of lists")
        return CayleyGroup(names, table)
    raise ValueError(f"unknown group type {kind!r}")
