"""Tiled orders and their fractional ideals.

Locally (at one maximal ideal) a tiled order is an integer exponent matrix
with zero diagonal and min-plus ring closure; fractional ideals over it
are integer matrices with bimodule closure and may have negative entries.
Globally, over the PID bases Z and Z[i], a tiled order is determined by its
exponent matrix at each place of its finite support, and is maximal (the
all-zero matrix) everywhere else; a global bimodule is likewise a map from
places to local fractional ideal matrices.

Containment of ideals is entrywise >= on exponents; products are min-plus.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .base_rings import (
    BaseRing,
    FractionalIdealR,
    MaximalIdeal,
    check_place,
    place_key,
    valuation,
)


# largest matrix dimension accepted from input; the closure check alone
# is cubic in it
MAX_DIMENSION = 64


class OrderError(ValueError):
    pass


class ZeroDiagonalViolation(OrderError):
    pass


class ClosureViolation(OrderError):
    def __init__(self, i: int, j: int, k: int, msg: str = ""):
        self.triple = (i, j, k)
        super().__init__(msg or f"closure fails at (i={i}, j={j}, k={k})")


class NotHereditary(OrderError):
    pass


class NotInvertible(OrderError):
    pass


IntMatrix = tuple[tuple[int, ...], ...]


def as_matrix(rows) -> IntMatrix:
    return tuple(tuple(int(x) for x in r) for r in rows)


def minplus(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Min-plus product of an (m x r) and an (r x n) matrix."""
    r = len(b)
    if any(len(row) != r for row in a):
        raise OrderError("inner dimensions do not match")
    return tuple(
        tuple(min(arow[k] + b[k][j] for k in range(r)) for j in range(len(b[0])))
        for arow in a
    )


def shift(a: IntMatrix, s: int) -> IntMatrix:
    return tuple(tuple(x + s for x in row) for row in a)


def constant_shift_of(a: IntMatrix, b: IntMatrix) -> int | None:
    """The s with a == b + s, if one exists."""
    s = a[0][0] - b[0][0]
    for ra, rb in zip(a, b):
        for xa, xb in zip(ra, rb):
            if xa - xb != s:
                return None
    return s


@dataclass(frozen=True)
class ExponentMatrix:
    """A tiled order in M_n at ``place`` of ``ring``; without them, a plain exponent matrix."""

    n: int
    entries: IntMatrix
    ring: BaseRing | None = None
    place: MaximalIdeal | None = None

    def __post_init__(self):
        if len(self.entries) != self.n or any(
            len(r) != self.n for r in self.entries
        ):
            raise OrderError("entries are not an n x n matrix")


@dataclass(frozen=True)
class FractionalIdealMatrix:
    order: ExponentMatrix
    entries: IntMatrix

    def __post_init__(self):
        n = self.order.n
        if len(self.entries) != n or any(len(r) != n for r in self.entries):
            raise OrderError("entries are not an n x n matrix")


def validate_order(
    rows, ring: BaseRing | None = None, place: MaximalIdeal | None = None
) -> ExponentMatrix:
    entries = as_matrix(rows)
    n = len(entries)
    if any(len(r) != n for r in entries):
        raise OrderError("entries are not an n x n matrix")
    for i in range(n):
        if entries[i][i] != 0:
            raise ZeroDiagonalViolation(f"diagonal entry ({i},{i}) is {entries[i][i]}")
        for j in range(n):
            if entries[i][j] < 0:
                raise OrderError(
                    f"order entry ({i},{j}) is negative; only fractional "
                    "ideals may carry negative exponents"
                )
    _check_closure(entries, entries, entries)
    return ExponentMatrix(n, entries, ring, place)


def _check_closure(a: IntMatrix, b: IntMatrix, c: IntMatrix) -> None:
    """a_ik + b_kj >= c_ij for all i, j, k."""
    n = len(a)
    for i in range(n):
        for k in range(n):
            for j in range(n):
                if a[i][k] + b[k][j] < c[i][j]:
                    raise ClosureViolation(i, j, k)


def order_ideal(order: ExponentMatrix) -> FractionalIdealMatrix:
    return FractionalIdealMatrix(order, order.entries)


def ideal_multiply(
    x: FractionalIdealMatrix, y: FractionalIdealMatrix
) -> FractionalIdealMatrix:
    if x.order != y.order:
        raise OrderError("ideals over different orders")
    return FractionalIdealMatrix(x.order, minplus(x.entries, y.entries))


def ideal_power(x: FractionalIdealMatrix, k: int) -> FractionalIdealMatrix:
    if k < 0:
        raise OrderError("negative ideal power")
    out = order_ideal(x.order)
    # repeated squaring: min-plus products are associative
    while k:
        if k & 1:
            out = ideal_multiply(out, x)
        k >>= 1
        if k:
            x = ideal_multiply(x, x)
    return out


def zero_pair_classes(order: ExponentMatrix) -> list[list[int]]:
    """Index classes under i ~ j iff entries (i,j) and (j,i) sum to zero."""
    lam = order.entries
    n = order.n
    classes: list[list[int]] = []
    assigned = [-1] * n
    for i in range(n):
        if assigned[i] >= 0:
            continue
        cls = [i]
        assigned[i] = len(classes)
        for j in range(i + 1, n):
            if assigned[j] < 0 and lam[i][j] + lam[j][i] == 0:
                cls.append(j)
                assigned[j] = len(classes)
        classes.append(cls)
    return classes


def radical(order: ExponentMatrix) -> FractionalIdealMatrix:
    """Largest ideal that is nilpotent modulo the uniformizer times the
    order: add 1 exactly on the zero-pair equivalence positions."""
    lam = order.entries
    classes = zero_pair_classes(order)
    label = {}
    for c, cls in enumerate(classes):
        for i in cls:
            label[i] = c
    entries = tuple(
        tuple(
            lam[i][j] + (1 if label[i] == label[j] else 0)
            for j in range(order.n)
        )
        for i in range(order.n)
    )
    return FractionalIdealMatrix(order, entries)


def dual_ideal(x: FractionalIdealMatrix) -> FractionalIdealMatrix:
    """Largest Y with Y*X contained in the order."""
    lam = x.order.entries
    xe = x.entries
    n = x.order.n
    entries = tuple(
        tuple(max(lam[i][j] - xe[k][j] for j in range(n)) for k in range(n))
        for i in range(n)
    )
    return FractionalIdealMatrix(x.order, entries)


def is_hereditary_local(order: ExponentMatrix) -> bool:
    """Radical invertibility over the completion."""
    rad = radical(order)
    dual = dual_ideal(rad)
    return (
        minplus(dual.entries, rad.entries) == order.entries
        and minplus(rad.entries, dual.entries) == order.entries
    )


def is_free_left_module(x: FractionalIdealMatrix) -> bool:
    """Whether x is isomorphic to its order as a left module: the columns
    of x, up to shifts, are the order's columns with their multiplicities.
    Two columns of the (hereditary) order differ by a shift exactly when
    they lie in one projective class."""
    order = x.order
    if not is_hereditary_local(order):
        raise NotHereditary("left-module classification needs a hereditary order")
    n = order.n

    def columns_up_to_shift(entries: IntMatrix) -> Counter:
        return Counter(tuple(entries[i][j] - entries[0][j] for i in range(n)) for j in range(n))

    ours, free = columns_up_to_shift(x.entries), columns_up_to_shift(order.entries)
    if not ours.keys() <= free.keys():
        raise NotInvertible("column matches no projective class of the order")
    return ours == free


def hereditary_staircase(
    block_sizes: tuple[int, ...],
    ring: BaseRing | None = None,
    place: MaximalIdeal | None = None,
) -> ExponentMatrix:
    """The standard hereditary order with the given block profile: zero on
    and above the block diagonal, one below."""
    n = sum(block_sizes)
    label = []
    for b, size in enumerate(block_sizes):
        label += [b] * size
    entries = tuple(
        tuple(1 if label[i] > label[j] else 0 for j in range(n))
        for i in range(n)
    )
    return ExponentMatrix(n, entries, ring, place)


# ---------------------------------------------------------------------------
# Global tiled orders


@dataclass(frozen=True)
class GlobalTiledOrder:
    """A tiled order over a PID: one validated exponent matrix per place of
    its support, sorted by place; off the support it is maximal."""

    ring: BaseRing
    n: int
    local: tuple[ExponentMatrix, ...]

    @property
    def support(self) -> tuple[MaximalIdeal, ...]:
        return tuple(lam.place for lam in self.local)


def validate_global_order(
    ring: BaseRing, rows: list[list[FractionalIdealR]]
) -> GlobalTiledOrder:
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise OrderError("entries are not an n x n matrix")
    for i in range(n):
        if rows[i][i].factors != ():
            raise OrderError(f"diagonal entry ({i},{i}) is not the base ring")
    places = {m for row in rows for ideal in row for m in ideal.support()}
    local = tuple(
        validate_order([[valuation(ideal, m) for ideal in row] for row in rows], ring, m)
        for m in sorted(places, key=place_key)
    )
    return GlobalTiledOrder(ring, n, local)


def localize(order: GlobalTiledOrder, m: MaximalIdeal) -> ExponentMatrix:
    check_place(order.ring, m)
    for lam in order.local:
        if lam.place == m:
            return lam
    zero = tuple((0,) * order.n for _ in range(order.n))
    return ExponentMatrix(order.n, zero, order.ring, m)


def is_hereditary_global(
    order: GlobalTiledOrder,
) -> tuple[bool, list[MaximalIdeal]]:
    """Check every place of the support; everywhere else the localization
    is maximal, hence hereditary."""
    failing = [lam.place for lam in order.local if not is_hereditary_local(lam)]
    return not failing, failing
