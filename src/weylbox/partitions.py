"""Partitions, Young diagrams, semistandard tableaux, Kostka numbers.

This is the indexing backbone of the toolkit: partitions label irreducible
polynomial representations of GL_n, semistandard tableaux label their bases,
and Kostka numbers are the weight-space dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator


class Partition(tuple):
    """A weakly decreasing tuple of positive integers; () is the empty partition.

    Trailing zeros are stripped on construction, so ``Partition((3, 2, 0))``
    equals ``Partition((3, 2))``.
    """

    def __new__(cls, parts=()):
        parts = tuple(int(p) for p in parts)
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        for i in range(len(parts) - 1):
            if parts[i] < parts[i + 1]:
                raise ValueError(f"parts must be weakly decreasing: {parts}")
        if parts and parts[-1] < 0:
            raise ValueError(f"parts must be nonnegative: {parts}")
        return super().__new__(cls, parts)

    @property
    def size(self) -> int:
        return sum(self)

    def padded(self, n: int) -> tuple[int, ...]:
        """Parts padded with zeros to length n (n >= length required)."""
        if n < len(self):
            raise ValueError(f"cannot pad {self} to length {n}")
        return tuple(self) + (0,) * (n - len(self))

    def scale(self, k: int) -> "Partition":
        return Partition(k * p for p in self)

    def serialize(self) -> str:
        return ",".join(str(p) for p in self)

    @classmethod
    def parse(cls, text: str) -> "Partition":
        text = text.strip()
        if not text:
            return cls()
        return cls(int(tok) for tok in text.split(","))

    def __repr__(self) -> str:
        return f"Partition({tuple(self)!r})"


def conjugate(lam: Partition) -> Partition:
    """Transpose of the Young diagram: column lengths of lam."""
    lam = Partition(lam)
    if not lam:
        return lam
    return Partition(sum(1 for p in lam if p > c) for c in range(lam[0]))


def is_even(gamma: Partition) -> bool:
    """True iff every part is divisible by 2 (vacuously true for ())."""
    return all(p % 2 == 0 for p in Partition(gamma))


def partitions_of(n: int, max_length: int | None = None,
                  max_part: int | None = None) -> Iterator[Partition]:
    """All partitions of n, largest part first, in lexicographically
    decreasing order."""
    if n < 0:
        return
    if max_part is None:
        max_part = n
    if max_length is None:
        max_length = n

    def rec(remaining: int, bound: int, room: int, prefix: list[int]):
        if remaining == 0:
            yield Partition(prefix)
            return
        if room == 0:
            return
        for part in range(min(bound, remaining), 0, -1):
            prefix.append(part)
            yield from rec(remaining - part, part, room - 1, prefix)
            prefix.pop()

    yield from rec(n, max_part, max_length, [])


def weak_compositions(total: int, caps) -> Iterator[tuple[int, ...]]:
    """Weak compositions c of total with c[i] <= caps[i], one coordinate per
    cap, in lexicographically decreasing order."""
    k = len(caps)
    room = [0] * (k + 1)  # room[i] = sum(caps[i:])
    for i in range(k - 1, -1, -1):
        room[i] = room[i + 1] + caps[i]
    if not 0 <= total <= room[0]:
        return
    c = [0] * k

    def fill(pos: int, remaining: int) -> None:
        # the largest completion: each coordinate as full as its cap allows
        for t in range(pos, k):
            c[t] = min(remaining, caps[t])
            remaining -= c[t]

    fill(0, total)
    while True:
        yield tuple(c)
        # the successor lowers the rightmost coordinate whose suffix has room
        # for one more unit, and refills that suffix greedily
        rest = 0
        for i in range(k - 1, -1, -1):
            if c[i] and rest < room[i + 1]:
                break
            rest += c[i]
        else:
            return
        c[i] -= 1
        fill(i + 1, rest + 1)


@dataclass(frozen=True)
class Tableau:
    """A filling of a Young diagram by positive integers."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        shape = tuple(len(r) for r in self.rows)
        for i in range(len(shape) - 1):
            if shape[i] < shape[i + 1]:
                raise ValueError("row lengths must weakly decrease")
        if any(e < 1 for row in self.rows for e in row):
            raise ValueError("entries must be positive")

    @property
    def shape(self) -> Partition:
        return Partition(len(r) for r in self.rows)

    def content(self, max_entry: int | None = None) -> tuple[int, ...]:
        """Multiplicity vector of the entries 1..max_entry."""
        if max_entry is None:
            max_entry = max((e for row in self.rows for e in row), default=0)
        counts = [0] * max_entry
        for row in self.rows:
            for e in row:
                counts[e - 1] += 1
        return tuple(counts)

    def columns(self) -> list[tuple[int, ...]]:
        width = len(self.rows[0]) if self.rows else 0
        return [tuple(row[c] for row in self.rows if len(row) > c)
                for c in range(width)]


def iter_ssyt(shape: Partition, max_entry: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Semistandard fillings of ``shape`` with entries in 1..max_entry, as raw
    row tuples, in lexicographic order on the row-major reading."""
    shape = Partition(shape)
    if not shape:
        yield ()
        return
    if len(shape) > max_entry:
        return
    col_len = conjugate(shape).padded(shape[0])
    cells = [(r, c) for r, width in enumerate(shape) for c in range(width)]
    rows = [[0] * width for width in shape]
    n_cells = len(cells)

    def fill(idx: int):
        if idx == n_cells:
            yield tuple(tuple(row) for row in rows)
            return
        r, c = cells[idx]
        lo = 1
        if c > 0:
            lo = rows[r][c - 1]
        if r > 0:
            lo = max(lo, rows[r - 1][c] + 1)
        # remaining cells below in this column need strictly larger entries
        hi = max_entry - (col_len[c] - r - 1)
        for v in range(lo, hi + 1):
            rows[r][c] = v
            yield from fill(idx + 1)

    yield from fill(0)


def enumerate_ssyt(shape: Partition, max_entry: int) -> list[Tableau]:
    """All semistandard tableaux of ``shape`` over 1..max_entry, in a fixed
    deterministic order (lexicographic on the row-major reading)."""
    return [Tableau(rows) for rows in iter_ssyt(shape, max_entry)]


def kostka(lam: Partition, content) -> int:
    """Number of semistandard tableaux of shape lam with the given content."""
    lam = Partition(lam)
    content = tuple(int(c) for c in content)
    if any(c < 0 for c in content):
        raise ValueError(f"content must be nonnegative: {content}")
    if sum(content) != lam.size:
        raise ValueError(
            f"content sums to {sum(content)}, shape has size {lam.size}")
    # Kostka numbers do not change when the content is permuted (Bender-Knuth
    # involutions) or its zeros dropped, so cache on the sorted content
    return _kostka(lam, tuple(sorted((c for c in content if c), reverse=True)))


@lru_cache(maxsize=None)
def _kostka(lam: Partition, content: tuple[int, ...]) -> int:
    # the largest entry fills a horizontal strip lam/rho of size content[-1]:
    # row i gives up r[i] <= lam[i] - lam[i+1] cells; sizes stay equal, so
    # lam is empty once content is
    if not content:
        return 1
    if len(lam) > len(content):
        return 0
    caps = [a - b for a, b in zip(lam, lam[1:] + (0,))]
    return sum(_kostka(Partition(a - r for a, r in zip(lam, removed)),
                       content[:-1])
               for removed in weak_compositions(content[-1], caps))


@lru_cache(maxsize=None)
def dim_weyl(lam: Partition, n: int) -> int:
    """Dimension of the irreducible polynomial GL_n representation labelled
    by lam, by the hook-content formula prod (n + c - r) / hook(r, c) over
    the cells (Stanley, EC2 Cor. 7.21.4). It counts the semistandard
    tableaux of shape lam over 1..n; ``count_ssyt`` is its test oracle.
    Raises ValueError for n < 0; n = 0 is the zero-variable case."""
    lam = Partition(lam)
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if not lam:
        return 1
    if len(lam) > n:
        return 0
    cols = conjugate(lam)
    num = den = 1
    for r, width in enumerate(lam):
        for c in range(width):
            num *= n + c - r
            den *= (width - c) + (cols[c] - r) - 1
    return num // den


def count_ssyt(shape: Partition, max_entry: int) -> int:
    """Count the semistandard fillings that ``iter_ssyt`` yields."""
    return sum(1 for _ in iter_ssyt(shape, max_entry))


def canonical_tableau(lam: Partition) -> Tableau:
    """The tableau whose i-th row contains only i's."""
    lam = Partition(lam)
    return Tableau(tuple(tuple([i + 1] * width) for i, width in enumerate(lam)))
