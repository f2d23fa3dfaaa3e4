"""Shared vocabulary: Hessenberg functions, diagram fillings, dimension pairs.

Conventions used throughout the package:

* Diagrams are drawn in English orientation, rows top to bottom, boxes flush
  left.  Box coordinates are 1-based ``(row, col)`` pairs with ``(1, 1)`` the
  top-left box.
* A filling is its row lengths and its row-reading word (left to right
  within a row, top row first), with 0 for an empty box of a partial
  filling.  It prints as ``54213``, ``24/13`` or ``1.2``, with commas
  between entries above 9 boxes.
* ``Monomial`` is an exponent vector over ``x_1 .. x_n``; slot ``i-1`` holds
  the exponent of ``x_i``.
"""

from __future__ import annotations

import operator
import os
from bisect import bisect_left
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from functools import cache
from itertools import accumulate

DEFAULT_MAX_N = 9
_MAX_N_ENV = "HESSKIT_MAX_N"


class HesskitError(Exception):
    """Base class for all errors raised by this package."""


class ConstraintViolation(HesskitError, ValueError):
    """A sequence fails one of the two Hessenberg constraints.

    ``constraint`` is ``'a'`` (``i <= h_i <= n``) or ``'b'`` (monotonicity);
    ``index`` is the 1-based position where the check failed.
    """

    def __init__(self, constraint: str, index: int, message: str):
        super().__init__(message)
        self.constraint = constraint
        self.index = index


class NotPermissible(HesskitError, ValueError):
    """A filling violates the horizontal adjacency rule for the given h."""


class NotInBasis(HesskitError, ValueError):
    """A monomial lies outside the basis an inverse map is defined on."""


class SizeLimitExceeded(HesskitError, ValueError):
    """An enumeration was requested beyond the configured size cap."""


def size_cap(override: int | None = None) -> int:
    """Resolve the enumeration size cap: argument, then env var, then default."""
    if override is not None:
        return override
    env = os.environ.get(_MAX_N_ENV)
    if env is None:
        return DEFAULT_MAX_N
    try:
        if cap := read_int(env):
            return cap
    except ValueError:
        pass
    raise ValueError(f"{_MAX_N_ENV}={env!r} is not a positive integer")


def read_int(text: str) -> int:
    """The integer that ``text`` writes in ASCII digits, with spaces around
    them allowed: the one reader of integers given as text.  Anything else,
    such as ``-1``, ``1_2`` or the Arabic-Indic ``٣``, raises ValueError."""
    digits = text.strip()
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{text!r} is not an integer in ASCII digits")
    return int(digits)


def as_int(value) -> int:
    """The value as an int.  Only integers are accepted: anything else, such
    as 1.9 or "2", raises ValueError instead of being truncated or parsed."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{value!r} is not an integer") from None


def _check_cap(n: int, override: int | None, what: str) -> None:
    cap = size_cap(override)
    if n > cap:
        raise SizeLimitExceeded(f"{what} with n={n} exceeds the size cap {cap}")


class HessenbergFunction:
    """A nondecreasing step function h: {1..n} -> {1..n} with h(i) >= i."""

    __slots__ = ("values",)

    def __init__(self, values: Iterable[int]):
        vals = tuple(map(as_int, values))
        if not vals:
            raise ConstraintViolation("a", 1, "empty sequence is not a Hessenberg function")
        n = len(vals)
        for i, v in enumerate(vals, start=1):
            # the step down to a too-small value reads as a monotonicity break
            if i > 1 and vals[i - 2] > v:
                raise ConstraintViolation(
                    "b", i, f"h({i})={v} < h({i - 1})={vals[i - 2]} breaks monotonicity"
                )
            if not i <= v <= n:
                raise ConstraintViolation(
                    "a", i, f"h({i})={v} violates {i} <= h({i}) <= {n}"
                )
        self.values = vals

    @classmethod
    def parse(cls, text: str) -> "HessenbergFunction":
        """Parse a comma-separated value list such as ``"3,3,3,4"``."""
        return cls(map(read_int, text.split(",")))

    @property
    def n(self) -> int:
        return len(self.values)

    def __call__(self, i: int) -> int:
        """Value h(i), 1-based."""
        return self.values[i - 1]

    def __iter__(self) -> Iterator[int]:
        return iter(self.values)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, HessenbergFunction):
            return self.values == other.values
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.values)

    def __repr__(self) -> str:
        return f"HessenbergFunction({list(self.values)})"

    def __str__(self) -> str:
        return ",".join(str(v) for v in self.values)


def make_hessenberg(values: Iterable[int]) -> HessenbergFunction:
    """Validate a sequence as a Hessenberg function."""
    return HessenbergFunction(values)


def degree_tuple(h: HessenbergFunction) -> tuple[int, ...]:
    """Degrees beta_i = i - #{k : h(k) < i}, returned indexed by i.

    The conventional display order reverses this tuple (beta_n first); use
    ``degree_tuple(h)[::-1]`` for that rendering.  beta_1 is always 1.
    h is nondecreasing, so the count is a bisection of its values.
    """
    vals = h.values
    return tuple(i - bisect_left(vals, i) for i in range(1, h.n + 1))


def nu_tuple(h: HessenbergFunction) -> tuple[int, ...]:
    """Column lengths nu_i = h(i) - i + 1 of the staircase diagram of h."""
    return tuple(v - i for i, v in enumerate(h.values, start=0))


class HessenbergDiagram:
    """Shading of the on-or-below-diagonal boxes of an n x n grid.

    Box (row r, col c) with c <= r is shaded when r <= h(c).  Column lengths
    are the nu-tuple, row lengths (top to bottom) the degree tuple indexed
    by i.
    """

    __slots__ = ("h", "column_lengths", "row_lengths")

    def __init__(self, h: HessenbergFunction):
        self.h = h
        self.column_lengths = nu_tuple(h)
        self.row_lengths = degree_tuple(h)

    def is_shaded(self, row: int, col: int) -> bool:
        return col <= row <= self.h(col)

    def render(self) -> str:
        """ASCII grid, ``#`` for shaded boxes, ``.`` for the rest of the staircase."""
        n = self.h.n
        lines = []
        for r in range(1, n + 1):
            cells = ["#" if self.is_shaded(r, c) else "." for c in range(1, r + 1)]
            lines.append("".join(cells))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"HessenbergDiagram(h={self.h})"


def hessenberg_diagram(h: HessenbergFunction) -> HessenbergDiagram:
    return HessenbergDiagram(h)


def hessenberg_functions(n: int) -> Iterator[HessenbergFunction]:
    """All Hessenberg functions for a given n, in lexicographic order.

    There are Catalan(n) of them; generated as lattice paths with
    h(i) ranging over max(i, h(i-1)) .. n.
    """

    def extend(prefix: list[int]) -> Iterator[HessenbergFunction]:
        i = len(prefix) + 1
        if i > n:
            yield HessenbergFunction(prefix)
            return
        lo = max(i, prefix[-1] if prefix else 1)
        for v in range(lo, n + 1):
            prefix.append(v)
            yield from extend(prefix)
            prefix.pop()

    yield from extend([])


# ---------------------------------------------------------------------------
# Monomials


class Monomial(tuple):
    """Exponent vector over x_1 .. x_n.  Tuple comparison is lex order with
    x_1 > x_2 > ... > x_n, so ``sorted`` and ``max`` agree with that order."""

    __slots__ = ()

    @classmethod
    def one(cls, n: int) -> "Monomial":
        return cls((0,) * n)

    @classmethod
    def from_exponents(cls, exps: Sequence[int]) -> "Monomial":
        m = cls(map(as_int, exps))
        if any(e < 0 for e in m):
            raise ValueError(f"negative exponent in {list(m)}")
        return m

    @classmethod
    def variable(cls, n: int, i: int, power: int = 1) -> "Monomial":
        """x_i^power in n variables (i is 1-based)."""
        exps = [0] * n
        exps[i - 1] = power
        return cls(exps)

    @property
    def degree(self) -> int:
        return sum(self)

    def __mul__(self, other: "Monomial") -> "Monomial":  # type: ignore[override]
        if not isinstance(other, tuple):
            return NotImplemented
        return Monomial(a + b for a, b in zip(self, other, strict=True))

    def __str__(self) -> str:
        factors = _factor_texts(len(self))
        # a negative exponent comes only from a monomial built unchecked
        return "*".join(
            [f[e] if 0 < e < 10 else f"{f[1]}^{e}" for f, e in zip(factors, self) if e]
        ) or "1"

    def __repr__(self) -> str:
        return f"Monomial({str(self)!r}, n={len(self)})"

    @classmethod
    def parse(cls, text: str, n: int) -> "Monomial":
        """Parse the CLI syntax ``x2*x4^2``; bare ``1`` is the monomial 1, and
        empty text is refused like any other factor that is not ``x<i>``."""
        text = text.strip().replace(" ", "")
        exps = [0] * n
        if text == "1":
            return cls(exps)
        for factor in text.split("*"):
            i, e = _parse_power(factor, n)
            exps[i - 1] += e
        return cls(exps)

    def to_json(self) -> list[int]:
        return list(self)

    @classmethod
    def from_json(cls, data: Sequence[int]) -> "Monomial":
        return cls.from_exponents(data)


@cache
def _factor_texts(n: int) -> tuple[tuple[str, ...], ...]:
    """The text of x_i^e for e = 0 .. 9 ("" for 0), one tuple per variable
    x_1 .. x_n: what :meth:`Monomial.__str__` reads.  Cached per n."""
    return tuple(("", f"x{i}", *(f"x{i}^{e}" for e in range(2, 10))) for i in range(1, n + 1))


def _parse_power(factor: str, n: int) -> tuple[int, int]:
    """Read one factor ``x<i>`` or ``x<i>^<e>`` of the text syntax as (i, e)."""
    base, caret, power = factor.partition("^")
    if caret and not power:
        raise ValueError(f"empty exponent in {factor!r}")
    try:
        if not base.startswith("x"):
            raise ValueError(base)
        i = read_int(base[1:])
        e = read_int(power.removeprefix("-")) if caret else 1  # "-" is refused below, by name
    except ValueError:
        raise ValueError(f"bad monomial factor {factor!r}") from None
    if not 1 <= i <= n:
        raise ValueError(f"variable x{i} out of range for n={n}")
    if power.startswith("-"):
        raise ValueError(f"negative exponent in {factor!r}")
    return i, e


# ---------------------------------------------------------------------------
# Shapes and fillings


def as_shape(rows: Iterable[int]) -> tuple[int, ...]:
    """Normalize a row-length sequence; zero rows are allowed."""
    shape = tuple(map(as_int, rows))
    if any(r < 0 for r in shape):
        raise ValueError(f"negative row length in {shape}")
    return shape


def is_partition(shape: Sequence[int]) -> bool:
    """Weakly decreasing with all rows positive."""
    return all(r > 0 for r in shape) and all(
        shape[i] >= shape[i + 1] for i in range(len(shape) - 1)
    )


def check_partition(shape: Iterable[int]) -> tuple[int, ...]:
    rows = as_shape(shape)
    if not is_partition(rows):
        raise ValueError(f"{rows} is not a partition (weakly decreasing, positive rows)")
    return rows


class _ShapeWord:
    """A shape and its row-reading word, 0 marking an empty box: the one form
    of :class:`Filling` and :class:`PartialFilling`."""

    __slots__ = ("shape", "word")

    @classmethod
    def _of(cls, shape: tuple[int, ...], word: tuple[int, ...]):
        """An instance of a shape and word the caller built valid: nothing is checked."""
        obj = cls.__new__(cls)
        obj.shape = shape
        obj.word = word
        return obj

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        starts = accumulate(self.shape, initial=0)
        return tuple(self.word[s : s + length] for s, length in zip(starts, self.shape))

    def boxes(self) -> dict[tuple[int, int], int]:
        """Mapping (row, col) -> value of the filled boxes, both 1-based."""
        return {
            (r, c): v
            for r, row in enumerate(self.rows, start=1)
            for c, v in enumerate(row, start=1)
            if v
        }

    def __eq__(self, other: object) -> bool:
        if type(other) is type(self):
            return self.shape == other.shape and self.word == other.word
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.shape, self.word))

    def __str__(self) -> str:
        return filling_text(self.shape, self.word)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(shape={list(self.shape)}, word={list(self.word)})"


class Filling(_ShapeWord):
    """Injective placement of 1..n into the boxes of a left-justified shape."""

    __slots__ = ()

    def __init__(self, shape: Iterable[int], rows: Iterable[Iterable[int]]):
        shape = as_shape(shape)
        rows = [tuple(row) for row in rows]
        if [len(row) for row in rows] != list(shape):
            raise ValueError(f"rows {rows} do not match shape {shape}")
        filling = self.from_word(shape, [v for row in rows for v in row])
        self.shape, self.word = filling.shape, filling.word

    @classmethod
    def from_word(cls, shape: Iterable[int], word: Iterable[int]) -> "Filling":
        shape, word = as_shape(shape), tuple(map(as_int, word))
        n = sum(shape)
        if len(word) != n:
            raise ValueError(f"word of length {len(word)} does not fill shape {shape}")
        if sorted(word) != list(range(1, n + 1)):
            raise ValueError(f"entries {word} are not a bijection with 1..{n}")
        return cls._of(shape, word)

    @property
    def n(self) -> int:
        return len(self.word)

    def to_json(self) -> dict:
        return {"shape": list(self.shape), "word": list(self.word)}

    @classmethod
    def from_json(cls, data: dict) -> "Filling":
        return cls.from_word(data["shape"], data["word"])


class PartialFilling(_ShapeWord):
    """Some boxes of a shape with distinct values in 1..#boxes; rows may have gaps.

    Produced by :func:`subfilling` and carried by the partial states of the
    modified GP-tree.  Re-assemble the filled boxes as a composition with
    :meth:`composition` when no row has a gap.
    """

    __slots__ = ()

    def __init__(self, shape: Iterable[int], word: Iterable[int]):
        self.shape = as_shape(shape)
        self.word = tuple(map(as_int, word))
        size = sum(self.shape)
        if len(self.word) != size:
            raise ValueError(f"word {list(self.word)} does not fill shape {self.shape}")
        values = [v for v in self.word if v]
        if len(set(values)) != len(values) or not all(1 <= v <= size for v in values):
            raise ValueError(f"entries {list(self.word)} are not distinct values in 1..{size}")

    def is_composition(self) -> bool:
        """True when every row's filled boxes are exactly its first columns."""
        return all(0 not in row[: len(row) - row.count(0)] for row in self.rows)

    def composition(self) -> tuple[int, ...]:
        """Row lengths, including zero rows up to the deepest occupied row."""
        if not self.is_composition():
            raise ValueError("rows contain gaps; not a composition")
        lengths = [len(row) - row.count(0) for row in self.rows]
        while lengths and not lengths[-1]:
            lengths.pop()
        return tuple(lengths)


def filling_text(shape: Sequence[int], word: Sequence[int]) -> str:
    """The text of a filling or partial filling: rows top to bottom joined by
    ``/``, ``.`` for an empty box (0), and ``,`` between the entries of a
    row once the shape has more than 9 boxes.  Entries are 0 .. #boxes, as
    in every filling and partial filling.  Cell texts come from a table per
    word length, and a shape of several rows is printed through its layout,
    a ``%s`` per box: both tables are cached."""
    cells = _cell_texts(len(word))
    if len(shape) == 1:
        return ("," if len(word) > 9 else "").join([cells[v] for v in word])
    return _layout(tuple(shape)) % tuple([cells[v] for v in word])


@cache
def _cell_texts(n: int) -> tuple[str, ...]:
    """The text of each entry 0 .. n of a word with n boxes, "." for 0."""
    return (".", *map(str, range(1, n + 1)))


@cache
def _layout(shape: tuple[int, ...]) -> str:
    """The format string of a shape's filling text, ``%s`` for each box."""
    sep = "," if sum(shape) > 9 else ""
    return "/".join(sep.join(["%s"] * length) for length in shape)


def subfilling(filling: Filling, i: int) -> PartialFilling:
    """Restriction T^(i): drop the values above i together with their boxes."""
    if not 1 <= i <= filling.n:
        raise ValueError(f"i={i} out of range 1..{filling.n}")
    return PartialFilling._of(filling.shape, tuple(v if v <= i else 0 for v in filling.word))


def is_row_strict(filling: Filling) -> bool:
    """Entries strictly increase left to right within every row."""
    return all(k < j for row in filling.rows for k, j in zip(row, row[1:]))


def has_subfilling_property(filling: Filling) -> bool:
    """Each value i sits in the rightmost box of its row within T^(i): every
    value right of i in its row is above i, so T^(i) drops those boxes."""
    return all(v > i for row in filling.rows for p, i in enumerate(row) for v in row[p + 1 :])


def dimension_ordering(shape: Sequence[int]) -> list[tuple[int, int]]:
    """Order the far-right boxes of a composition.

    One box per nonzero row, sorted by column from rightmost to leftmost,
    top to bottom within a column.  Returns 1-based (row, col) coordinates,
    as a fresh list.  The shape is checked here; the tree steps, whose
    shapes are built valid, read the cached kernel :func:`_dimension_order`.
    """
    return list(_dimension_order(as_shape(shape)))


@cache
def _dimension_order(shape: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """:func:`dimension_ordering` of a valid composition, unchecked, as a
    tuple: cached per shape, and immutable, so no caller can change it.
    A one-path walk meets each composition once and calls the uncached
    ``_dimension_order.__wrapped__`` instead."""
    boxes = [(r, length) for r, length in enumerate(shape, start=1) if length > 0]
    boxes.sort(key=lambda rc: (-rc[1], rc[0]))
    return tuple(boxes)


# ---------------------------------------------------------------------------
# Permissibility, dimension pairs, and the filling -> monomial map


_Box = tuple[int, int, int]  # (value, cap, partner mask) of a box, from _boxes


@cache
def _column_order(shape: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """Word positions of a shape's boxes in column reading order (columns
    left to right, each bottom to top), each with its right neighbour's
    position, or 0 for none: no box has position 0 on its right.  Cached."""
    starts = list(accumulate(shape, initial=0))
    return tuple(
        (s + c, s + c + 1 if c + 1 < length else 0)
        for c in range(max(shape, default=0))
        for s, length in reversed(list(zip(starts, shape)))
        if c < length
    )


def _boxes(h_values: Sequence[int], shape: tuple[int, ...], word: Sequence[int]) -> list[_Box]:
    """The one kernel pass: each filled box of a row-reading word (0 marks
    an empty box) in column reading order, as ``(a, cap, mask)``.

    a is its value and cap is h of its right neighbour, or n when that is
    empty or missing: a filling is permissible exactly when a <= cap for
    every box.  In this order b pairs with a exactly when b is read before
    a and a < b <= cap, so with bit b of ``seen`` set for each value read,
    mask holds bits a+1 .. cap of ``seen`` shifted down: bit j is b = a+1+j."""
    n, seen, boxes = len(h_values), 0, []
    for p, q in _column_order(shape):
        if a := word[p]:
            cap = h_values[word[q] - 1] if q and word[q] else n
            boxes.append((a, cap, (seen & ((2 << cap) - 1)) >> (a + 1)))
            seen |= 1 << a
    return boxes


def _permissible_boxes(h: HessenbergFunction, filling: Filling) -> list[_Box] | None:
    """The :func:`_boxes` of a filling of h, or None when a value exceeds its cap."""
    if filling.n != h.n:
        raise ValueError(f"filling has {filling.n} boxes but h has n={h.n}")
    boxes = _boxes(h.values, filling.shape, filling.word)
    return None if any(a > cap for a, cap, _ in boxes) else boxes


def _checked_boxes(h: HessenbergFunction, filling: Filling) -> list[_Box]:
    """The :func:`_boxes` of a filling that must be permissible for h."""
    if (boxes := _permissible_boxes(h, filling)) is None:
        raise NotPermissible(f"{filling} is not permissible for h={h}")
    return boxes


def is_permissible(h: HessenbergFunction, filling: Filling) -> bool:
    """Check every horizontal adjacency: k immediately left of j needs k <= h(j)."""
    return _permissible_boxes(h, filling) is not None


def _pairs(boxes: list[_Box]) -> frozenset[tuple[int, int]]:
    """The partner masks of :func:`_boxes` expanded into pairs (a, b)."""
    pairs = []
    for a, _, mask in boxes:
        while mask:
            low = mask & -mask  # bit j: b = a + 1 + j = a + low.bit_length()
            pairs.append((a, a + low.bit_length()))
            mask ^= low
    return frozenset(pairs)


def _exponents(n: int, boxes: list[_Box]) -> tuple[int, ...]:
    """The exponents of phi, straight from the masks: each partner b adds 1 to x_b."""
    exps = [0] * n
    for a, _, mask in boxes:
        while mask:
            low = mask & -mask
            exps[a + low.bit_length() - 1] += 1
            mask ^= low
    return tuple(exps)


def dimension_pairs(h: HessenbergFunction, filling: Filling) -> frozenset[tuple[int, int]]:
    """The pairs (a, b) with b > a, b below-in-column or strictly left of a,
    and b <= h(c) whenever a has a right neighbor c, as a frozenset of int
    tuples.  Its size is the cell dimension; the group D_y = {(x, y)} has
    the exponent of x_y in :func:`phi` as its size."""
    return _pairs(_checked_boxes(h, filling))


def dimension_pairs_partial(
    h: HessenbergFunction, partial: PartialFilling
) -> frozenset[tuple[int, int]]:
    """Dimension pairs of a partial filling with h.n boxes, as for
    :func:`dimension_pairs`; columns are read literally by index, and
    adjacency is not checked."""
    if (size := len(partial.word)) != h.n:
        raise ValueError(f"partial filling has {size} boxes but h has n={h.n}")
    return _pairs(_boxes(h.values, partial.shape, partial.word))


def phi(h: HessenbergFunction, filling: Filling) -> Monomial:
    """Map a permissible filling to the monomial prod x_b over its pairs (a, b).

    The exponent of x_b is |D_b|; the degree equals the number of dimension
    pairs, and x_1 never appears.  One kernel pass checks permissibility
    and gives the partner masks, expanded straight into exponents."""
    return Monomial(_exponents(h.n, _checked_boxes(h, filling)))


def phi_word(h_values: Sequence[int], word: Sequence[int]) -> tuple[int, ...]:
    """:func:`phi` of a one-row word as an exponent tuple: the kernel pass on
    shape ``(n,)``, whose column reading is the word itself.  Assumes the
    word is permissible for h; nothing is checked."""
    return _exponents(len(word), _boxes(h_values, (len(word),), word))


# ---------------------------------------------------------------------------
# Enumeration and Betti numbers


def _fillable(h: HessenbergFunction, shape: Sequence[int], max_n: int | None) -> tuple[int, ...]:
    """The shape, once it has h.n boxes and h.n is within the size cap."""
    shape = as_shape(shape)
    n = sum(shape)
    if n != h.n:
        raise ValueError(f"shape {shape} has {n} boxes but h has n={h.n}")
    _check_cap(n, max_n, "filling enumeration")
    return shape


def _prune_tables(h_values: Sequence[int], depth: int) -> tuple[list, list[list[int]]]:
    """The two tables of the pruned word walks, for r = 0 .. depth - 1.

    ``allowed[k]`` lists the values that may sit right of k, in increasing
    order; index 0 serves a row start.  ``above[r][v]`` is the mask of the
    values >= m^r(v), bit u for the value u, where m(k) = min{u : h(u) >= k}
    is the bisection of the sorted h values: v stays only when its row can
    still take the r boxes after it (see :func:`enumerate_fillings`)."""
    n = len(h_values)
    values = range(1, n + 1)
    allowed = [values] + [[v for v in values if k <= h_values[v - 1]] for k in values]
    full = (2 << n) - 2
    floor = list(range(n + 1))
    above = []
    for _ in range(depth):
        above.append([full >> u << u for u in floor])
        floor = [bisect_left(h_values, u) + 1 for u in floor]
    return allowed, above


def _words(h: HessenbergFunction, shape: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The permissible row-reading words of a shape with h.n boxes, in
    lexicographic order, as bare tuples; see :func:`enumerate_fillings`."""
    n = h.n
    hv = h.values
    joined = [c > 0 for length in shape for c in range(length)]
    rest = [length - 1 - c for length in shape for c in range(length)]
    allowed, above = _prune_tables(hv, max(rest, default=0) + 1)
    full = (2 << n) - 2
    last = n - 1
    out = []

    def extend(word: tuple[int, ...], free: int) -> None:
        p = len(word)
        if p == last:
            # the one free value u needs no test: if its row goes on from
            # a = word[-1], the r = 1 prune kept a only with u >= m(a), and
            # since h is nondecreasing that is exactly a <= h(u)
            out.append(word + (free.bit_length() - 1,))
            return
        r = rest[p]
        reach = above[r]
        for v in allowed[word[-1] if joined[p] else 0]:
            # free still holds v, and v >= m^r(v): r others means r + 1 in all
            if free >> v & 1 and (free & reach[v]).bit_count() > r:
                extend(word + (v,), free ^ (1 << v))

    extend((), full)
    del extend  # the closure refers to itself: free the cycle, and out with it
    return out


def enumerate_fillings(
    h: HessenbergFunction, shape: Sequence[int], max_n: int | None = None
) -> list[Filling]:
    """All permissible fillings of the shape, in lexicographic word order.

    One depth-first walk grows bare word tuples box by box in row-reading
    order, with the free values as a bitmask.  Right of k only the values v
    with k <= h(v) are tried, and v is dropped when its row cannot be
    finished: with r boxes of the row left after v, at least r other free
    values must be >= m^r(v), where m(k) = min{u : h(u) >= k}.  That is
    necessary: a right neighbour of k is >= m(k), m is nondecreasing and
    m(k) <= k, so the j-th value after v is >= m^j(v) >= m^r(v).  For the
    minimal h the rule reads "r free values above v", and one row takes n
    steps, not about 2^n.  The walk builds only valid words, so each becomes
    a :class:`Filling` unchecked.
    """
    shape = _fillable(h, shape, max_n)
    return [Filling._of(shape, word) for word in _words(h, shape)]


def betti_numbers(
    h: HessenbergFunction, shape: Sequence[int], max_n: int | None = None
) -> tuple[int, ...]:
    """Even Betti numbers b_0, b_2, ...: fillings counted by dimension-pair count.

    Each word of the walk behind :func:`enumerate_fillings` goes through the
    kernel pass :func:`_boxes`, and its pair count is the ``bit_count`` of
    its partner masks: no pair tuple and no :class:`Filling` is built."""
    shape = _fillable(h, shape, max_n)
    counts = Counter(
        sum(mask.bit_count() for _, _, mask in _boxes(h.values, shape, word))
        for word in _words(h, shape)
    )
    return tuple(counts[k] for k in range(max(counts, default=0) + 1))
