"""Finite sets of non-negative integers with sumset arithmetic.

Sets are stored as bit masks (bit ``i`` set iff ``i`` is a member), which
makes subset tests, unions, intersections and sumsets cheap enough for the
exhaustive enumerations elsewhere in the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

#: Largest element a ground set may contain.  Bit masks stay well below
#: arbitrary-precision slowness and 64 covers every desk-scale search here
#: (a graph on n vertices never needs elements beyond 2n-3, so n ~ 33).
UNIVERSE_LIMIT = 64

#: Most significant digits a parsed decimal word may have.  ``int`` refuses
#: longer words than the interpreter's limit (4300 digits by default, never
#: set below 640), and no number a parser accepts comes near this length.
DECIMAL_DIGITS_LIMIT = 640


class DomainError(ValueError):
    """An operation was applied outside its mathematical domain."""


class ParseError(ValueError):
    """Malformed textual input.  ``offset`` locates the offending position."""

    def __init__(self, message: str, offset: int | None = None):
        self.reason = message
        if offset is not None:
            message = f"{message} (offset {offset})"
        super().__init__(message)
        self.offset = offset

    def on_line(self, what: str, lineno: int, start: int) -> "ParseError":
        """This error, raised with a 0-based column offset into the part of
        a line that begins at column ``start``, restated with the line
        number as its offset and the position as a 1-based column."""
        column = start + self.offset + 1
        return ParseError(f"{what}: {self.reason} at column {column}", lineno)


class IntSet:
    """Immutable set of non-negative integers.

    Behaves like a small ``frozenset`` of ints (``in``, ``len``, iteration,
    ``<=`` subset, ``|`` union, ``&`` intersection) and additionally supports
    ``+`` for the sumset ``A + B = {a + b : a in A, b in B}``.
    """

    __slots__ = ("_mask",)

    def __init__(self, elements: Iterable[int] = ()):
        mask = 0
        for e in elements:
            if not isinstance(e, int) or isinstance(e, bool) or e < 0:
                raise DomainError(f"set elements must be non-negative integers, got {e!r}")
            mask |= 1 << e
        self._mask = mask

    @classmethod
    def from_mask(cls, mask: int) -> "IntSet":
        if mask < 0:
            raise DomainError("bit mask must be non-negative")
        s = cls.__new__(cls)
        s._mask = mask
        return s

    @property
    def mask(self) -> int:
        return self._mask

    @property
    def elements(self) -> tuple[int, ...]:
        return tuple(self)

    @property
    def max_element(self) -> int:
        if not self._mask:
            raise DomainError("empty set has no maximum")
        return self._mask.bit_length() - 1

    @property
    def min_element(self) -> int:
        if not self._mask:
            raise DomainError("empty set has no minimum")
        return (self._mask & -self._mask).bit_length() - 1

    def __iter__(self) -> Iterator[int]:
        m = self._mask
        while m:
            low = m & -m
            yield low.bit_length() - 1
            m ^= low

    def __len__(self) -> int:
        return self._mask.bit_count()

    def __contains__(self, e: int) -> bool:
        return e >= 0 and self._mask >> e & 1 == 1

    def __bool__(self) -> bool:
        return self._mask != 0

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntSet) and self._mask == other._mask

    def __hash__(self) -> int:
        return hash(self._mask)

    # Subset comparisons, mirroring frozenset.
    def __le__(self, other: "IntSet") -> bool:
        return self._mask & ~other._mask == 0

    def __lt__(self, other: "IntSet") -> bool:
        return self._mask != other._mask and self <= other

    def __ge__(self, other: "IntSet") -> bool:
        return other <= self

    def __gt__(self, other: "IntSet") -> bool:
        return other < self

    def __or__(self, other: "IntSet") -> "IntSet":
        return IntSet.from_mask(self._mask | other._mask)

    def __and__(self, other: "IntSet") -> "IntSet":
        return IntSet.from_mask(self._mask & other._mask)

    def __add__(self, other: "IntSet") -> "IntSet":
        return sumset(self, other)

    def __repr__(self) -> str:
        return f"IntSet({{{', '.join(map(str, self))}}})"

    def __str__(self) -> str:
        return format_set(self)


def canonical_key(s: IntSet) -> tuple[int, tuple[int, ...]]:
    """Sort key for the canonical set order: by cardinality, then elements."""
    return (len(s), s.elements)


def sumset_mask(a: int, b: int) -> int:
    """Sumset of two non-empty bit masks, as a bit mask."""
    out = 0
    while a:
        low = a & -a
        out |= b << (low.bit_length() - 1)
        a ^= low
    return out


def sumset(a: IntSet, b: IntSet) -> IntSet:
    """``{x + y : x in a, y in b}``.  Undefined (error) on empty operands."""
    if not a or not b:
        raise DomainError("sumset of an empty set is undefined")
    return IntSet.from_mask(sumset_mask(a.mask, b.mask))


def check_universe(top: int) -> None:
    """Refuse a ground set whose largest element ``top`` exceeds
    ``UNIVERSE_LIMIT``; callers may ask before building its mask."""
    if top > UNIVERSE_LIMIT:
        raise DomainError(f"ground set element {top} exceeds the universe limit {UNIVERSE_LIMIT}")


@dataclass(frozen=True)
class GroundSet:
    """Non-empty universe X that labels and topologies live inside."""

    members: IntSet

    def __post_init__(self):
        if not self.members:
            raise DomainError("ground set must be non-empty")
        check_universe(self.members.max_element)

    @classmethod
    def from_elements(cls, elements: Iterable[int]) -> "GroundSet":
        return cls(IntSet(elements))

    @property
    def max_element(self) -> int:
        return self.members.max_element

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, e: int) -> bool:
        return e in self.members

    def __str__(self) -> str:
        return format_set(self.members)


def is_subset(a: IntSet, x: GroundSet) -> bool:
    """True iff every element of ``a`` lies in the ground set ``x``."""
    return a.mask & ~x.members.mask == 0


def nontrivial_summand_pairs(
    c: IntSet, universe: Iterable[IntSet]
) -> list[tuple[IntSet, IntSet]]:
    """Unordered pairs (a, b) from ``universe`` with a + b == c, where neither
    operand is {0} (the sumset identity) nor ``c`` itself.

    Empty members of ``universe`` are skipped (they cannot be summands).
    """
    if not c:
        raise DomainError("summand decomposition of the empty set is undefined")
    zero = IntSet((0,))
    candidates = sorted({s for s in universe if s}, key=canonical_key)
    pairs: list[tuple[IntSet, IntSet]] = []
    for i, a in enumerate(candidates):
        if a == zero or a == c:
            continue
        for b in candidates[i:]:
            if b == zero or b == c:
                continue
            if sumset(a, b) == c:
                pairs.append((a, b))
    return pairs


def format_set(s: IntSet) -> str:
    """Canonical text form: ``{0,1,2}``; the empty set is ``{}``."""
    return "{" + ",".join(map(str, s)) + "}"


def numbered_lines(text: str) -> list[tuple[int, str]]:
    """The non-blank lines of ``text``, stripped, each with its 1-based
    physical line number, which is what a line-oriented parser reports."""
    return [
        (lineno, ln)
        for lineno, ln in enumerate((raw.strip() for raw in text.splitlines()), start=1)
        if ln
    ]


def parse_decimal(word: str, offset: int) -> int:
    """The value of ``word``, a string of decimal digits.  Leading zeros are
    insignificant; more than DECIMAL_DIGITS_LIMIT significant digits are a
    ParseError at ``offset``."""
    digits = word.lstrip("0") or "0"
    if len(digits) > DECIMAL_DIGITS_LIMIT:
        raise ParseError(f"number has {len(digits)} digits, more than {DECIMAL_DIGITS_LIMIT}", offset)
    return int(digits)


def parse_set_text(text: str) -> IntSet:
    """Parse the canonical ``{0,1,2}`` form (whitespace around items allowed)."""
    stripped = text.strip()
    pad = len(text) - len(text.lstrip())
    if not stripped.startswith("{"):
        raise ParseError("set literal must start with '{'", pad)
    if not stripped.endswith("}"):
        raise ParseError("set literal must end with '}'", pad + len(stripped) - 1)
    body = stripped[1:-1]
    if not body.strip():
        return IntSet()
    mask = 0
    pos = pad + 1
    for item in body.split(","):
        lead = len(item) - len(item.lstrip())
        word = item.strip()
        if not word.isdecimal():
            raise ParseError(f"expected a non-negative integer, got {word!r}", pos + lead)
        e = parse_decimal(word, pos + lead)
        if e > UNIVERSE_LIMIT:
            raise ParseError(f"element {e} exceeds the universe limit {UNIVERSE_LIMIT}", pos + lead)
        if mask >> e & 1:
            raise ParseError(f"duplicate element {e}", pos + lead)
        mask |= 1 << e
        pos += len(item) + 1
    return IntSet.from_mask(mask)


def parse_ground_header(lines: list[tuple[int, str]], what: str) -> GroundSet:
    """The ground set of a ``what`` file, read from its first numbered line,
    which must be ``ground: {…}``; errors carry that line's number."""
    if not lines or not lines[0][1].startswith("ground:"):
        raise ParseError(
            f"{what} file must start with a 'ground:' line", lines[0][0] if lines else 1
        )
    lineno, line = lines[0]
    try:
        return GroundSet(parse_set_text(line[len("ground:") :]))
    except ParseError as exc:
        raise exc.on_line("bad ground set", lineno, len("ground:")) from exc
    except DomainError as exc:
        raise ParseError(f"bad ground set: {exc}", lineno) from exc
