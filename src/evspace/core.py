"""Shared domain types and text formats.

Every probability in this package is an exact rational (``fractions.Fraction``)
in [0, 1], and every comparison is exact.  All types defined here are
immutable after construction.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Iterator, Mapping, Optional

ZERO = Fraction(0)
ONE = Fraction(1)


class FormatError(ValueError):
    """An input literal or file does not follow the expected text format."""


class CapExceededError(ValueError):
    """An input is larger than a fixed bound on the work it would take:
    the 2^n LP cap on a correlation vector or the survey's row bound."""


# ---------------------------------------------------------------------------
# Exact probabilities
# ---------------------------------------------------------------------------

def prob(num: int, den: int) -> Fraction:
    """Reduced rational probability from an integer numerator/denominator pair."""
    if den <= 0:
        raise ValueError(f"denominator must be positive, got {den}")
    if num < 0 or num > den:
        raise ValueError(f"{num}/{den} is outside [0, 1]")
    return Fraction(num, den)


def as_prob(value: Fraction | int) -> Fraction:
    value = Fraction(value)
    if value < 0 or value > 1:
        raise ValueError(f"probability {value} is outside [0, 1]")
    return value


# an optional sign, then a/b or a plain decimal (5, 0.25, .25 or 5.), in
# ASCII digits only; anything else, exponents included, is not a literal
_RATIONAL = re.compile(
    r"([+-]?)(?:([0-9]+)/([0-9]+)|(?=\.?[0-9])([0-9]*)(?:\.([0-9]*))?)")


def parse_rational(text: str) -> Fraction:
    """Parse ``a/b`` or a plain decimal, read exactly as a/10^k, by the
    grammar of ``_RATIONAL``.  An exponent is refused: ``Fraction`` would
    expand 1e-30000000 into 30 million digits."""
    m = _RATIONAL.fullmatch(text.strip())
    if m is not None:
        sign, num, den, whole, frac = m.groups()
        frac = frac or ""
        try:
            value = (Fraction(int(num), int(den)) if num is not None
                     else Fraction(int(whole + frac), 10 ** len(frac)))
        # a zero denominator, or more digits than int() converts
        except (ValueError, ZeroDivisionError):
            pass
        else:
            return -value if sign == "-" else value
    raise FormatError(f"not a rational literal: {text!r}")


def parse_prob(text: str) -> Fraction:
    value = parse_rational(text)
    if value < 0 or value > 1:
        raise FormatError(f"probability out of range: {text.strip()!r}")
    return value


# ---------------------------------------------------------------------------
# Conditional triples
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CondTriple:
    """Symmetric conditional probabilities between three observables.

    ``p`` sits between the first and second observable, ``q`` between the
    second and third, ``r`` between the first and third.  ``marginal`` is the
    common measure of the three observables when it is known to be shared.
    """

    p: Fraction
    q: Fraction
    r: Fraction
    marginal: Optional[Fraction] = None

    def __post_init__(self) -> None:
        for name in ("p", "q", "r"):
            object.__setattr__(self, name, as_prob(getattr(self, name)))
        if self.marginal is not None:
            m = Fraction(self.marginal)
            if not (0 < m <= 1):
                raise ValueError(f"marginal {m} is outside (0, 1]")
            object.__setattr__(self, "marginal", m)


# ---------------------------------------------------------------------------
# Correlation vectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CorrelationVector:
    """Unary and pairwise probabilities for n events; pairwise entries may be
    absent, meaning the corresponding co-occurrence was never observed."""

    n: int
    unary: Mapping[int, Fraction]
    pairwise: Mapping[tuple[int, int], Fraction] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")
        unary = {}
        for i, v in dict(self.unary).items():
            if not 1 <= i <= self.n:
                raise ValueError(f"unary index {i} outside 1..{self.n}")
            unary[i] = as_prob(v)
        pairwise = {}
        for (i, j), v in dict(self.pairwise).items():
            if not (1 <= i < j <= self.n):
                raise ValueError(f"pairwise key ({i},{j}) invalid for n={self.n}")
            pairwise[(i, j)] = as_prob(v)
        object.__setattr__(self, "unary", unary)
        object.__setattr__(self, "pairwise", pairwise)

    @property
    def is_complete(self) -> bool:
        return len(self.unary) == self.n and len(self.pairwise) == self.n * (self.n - 1) // 2

    def entries(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """Present entries in canonical order, each keyed by its events:
        (i,) for the unary entries by index, then the pairs (i, j)."""
        return [((i,), self.unary[i]) for i in sorted(self.unary)] + sorted(
            self.pairwise.items())


# ---------------------------------------------------------------------------
# Event tables
# ---------------------------------------------------------------------------

class Ternary(Enum):
    PRESENT = "1"
    ABSENT = "0"
    UNKNOWN = "?"


@dataclass(frozen=True)
class EventTable:
    """Tuples of ternary observable values with multiplicities.

    Rows with count 0 are accepted on input and normalized away.
    """

    observables: tuple[str, ...]
    rows: tuple[tuple[tuple[Ternary, ...], int], ...]

    def __post_init__(self) -> None:
        names = tuple(self.observables)
        if len(set(names)) != len(names):
            raise ValueError("duplicate observable names")
        kept = []
        for cells, count in self.rows:
            cells = tuple(cells)
            if len(cells) != len(names):
                raise ValueError(
                    f"row arity {len(cells)} does not match {len(names)} observables")
            if not all(isinstance(c, Ternary) for c in cells):
                raise ValueError("row cells must be Ternary values")
            if count < 0:
                raise ValueError(f"negative count {count}")
            if count > 0:
                kept.append((cells, int(count)))
        if not kept:
            raise ValueError("empty table")
        object.__setattr__(self, "observables", names)
        object.__setattr__(self, "rows", tuple(kept))

    @property
    def total(self) -> int:
        return sum(count for _, count in self.rows)

    def column(self, name: str) -> int:
        try:
            return self.observables.index(name)
        except ValueError:
            raise ValueError(f"unknown observable {name!r}") from None


# ---------------------------------------------------------------------------
# Admissibility verdicts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdmissibilityVerdict:
    """Per-theory admissibility flags with the deciding bounds.

    ``classical_bounds`` is the exact interval |p+q-1| .. 1-|p-q|;
    ``complex_bounds`` is the (generally irrational) interval of the
    complex-space condition, reported as floats for display only -- all
    decisions are made exactly elsewhere.
    """

    classical: bool
    real_qs: bool
    complex_qs: bool
    classical_bounds: tuple[Fraction, Fraction]
    complex_bounds: tuple[float, float]
    symmetry_checked: bool
    boundary: bool

    def __post_init__(self) -> None:
        if self.classical and not self.complex_qs:
            raise ValueError("classical admissibility must imply complex admissibility")
        if self.real_qs and not self.complex_qs:
            raise ValueError("real admissibility must imply complex admissibility")
        if self.classical and self.classical_bounds[0] > self.classical_bounds[1]:
            raise ValueError("classical verdict with empty classical interval")


# ---------------------------------------------------------------------------
# Text formats
# ---------------------------------------------------------------------------

def data_lines(text: str) -> Iterator[str]:
    """The stripped lines of an input file that carry data: blank lines and
    lines whose first non-blank character is ``#`` are skipped."""
    for ln in text.splitlines():
        ln = ln.strip()
        if ln and not ln.startswith("#"):
            yield ln


_COUNT_SUFFIX = re.compile(r"(?:\s+|\s*,\s*)x(\d+)\s*$")
_CELL = {t.value: t for t in Ternary}


def parse_event_table(text: str) -> EventTable:
    """Parse the event-table text format.

    First data line: comma-separated observable names.  Each later line:
    comma-separated cells from {1, 0, ?} with an optional ``xN`` count suffix
    (default 1).
    """
    lines = data_lines(text)
    header = next(lines, None)
    if header is None:
        raise FormatError("empty table")
    observables = tuple(name.strip() for name in header.split(","))
    if any(not name for name in observables):
        raise FormatError(f"bad header line: {header!r}")
    rows = []
    for ln in lines:
        count = 1
        m = _COUNT_SUFFIX.search(ln)
        if m:
            count = int(m.group(1))
            ln = ln[: m.start()]
        cells = []
        for tok in ln.split(","):
            tok = tok.strip()
            if tok not in _CELL:
                raise FormatError(f"unknown cell symbol {tok!r}")
            cells.append(_CELL[tok])
        if len(cells) != len(observables):
            raise FormatError(
                f"row has {len(cells)} cells, expected {len(observables)}")
        rows.append((tuple(cells), count))
    try:
        return EventTable(observables, tuple(rows))
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def serialize_event_table(table: EventTable) -> str:
    lines = [",".join(table.observables)]
    for cells, count in table.rows:
        body = ",".join(c.value for c in cells)
        lines.append(body if count == 1 else f"{body} x{count}")
    return "\n".join(lines) + "\n"


_VEC_KEY = re.compile(r"^p(\d+)(?:,(\d+))?$")


def parse_correlation_vector(text: str) -> CorrelationVector:
    """Parse the key/value correlation-vector format (``n=``, ``p<i>=``,
    ``p<i>,<j>=`` lines; rationals as a/b or exact decimals)."""
    n = None
    unary: dict[int, Fraction] = {}
    pairwise: dict[tuple[int, int], Fraction] = {}
    for ln in data_lines(text):
        if "=" not in ln:
            raise FormatError(f"bad line: {ln!r}")
        key, _, value = ln.partition("=")
        key = key.strip().replace(" ", "")
        if key == "n":
            if n is not None:
                raise FormatError(f"duplicate key: {key!r}")
            try:
                n = int(value.strip())
            except ValueError:
                raise FormatError(f"bad n= line: {ln!r}") from None
            continue
        m = _VEC_KEY.match(key)
        if not m:
            raise FormatError(f"bad key: {key!r}")
        if m.group(2) is None:
            entries, index = unary, int(m.group(1))
        else:
            entries, index = pairwise, (int(m.group(1)), int(m.group(2)))
        if index in entries:
            raise FormatError(f"duplicate key: {key!r}")
        entries[index] = parse_prob(value)
    if n is None:
        raise FormatError("missing n=<int> line")
    try:
        return CorrelationVector(n, unary, pairwise)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def serialize_correlation_vector(v: CorrelationVector) -> str:
    lines = [f"n={v.n}"]
    for i in sorted(v.unary):
        lines.append(f"p{i}={v.unary[i]}")
    for i, j in sorted(v.pairwise):
        lines.append(f"p{i},{j}={v.pairwise[(i, j)]}")
    return "\n".join(lines) + "\n"
