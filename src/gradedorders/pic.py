"""Picard-element bookkeeping for hereditary tiled orders.

At a single place the central Picard group of a hereditary order is cyclic
of order t (the block count), generated by the radical; globally, over a
PID base, it is the direct sum of the local groups over the places where
the order is not maximal.  Invertible bimodules are classified by their
radical-power class at each such place; a global bimodule is the map
from those places to its local fractional ideal matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

from .base_rings import MaximalIdeal, place_key
from .tiled import (
    ExponentMatrix,
    FractionalIdealMatrix,
    GlobalTiledOrder,
    NotHereditary,
    constant_shift_of,
    ideal_multiply,
    ideal_power,
    is_hereditary_global,
    is_hereditary_local,
    order_ideal,
    radical,
    zero_pair_classes,
)


class PicError(ValueError):
    pass


class NoMatchingPower(PicError):
    """An invertible bimodule outside the cyclic group generated by the
    radical; impossible for a hereditary prime order, so this signals an
    internal inconsistency."""


@dataclass(frozen=True)
class LocalPicent:
    order: ExponentMatrix
    cyclic_order: int
    generator: FractionalIdealMatrix


@dataclass(frozen=True)
class GlobalPicent:
    components: tuple[tuple[MaximalIdeal, LocalPicent], ...]

    def __str__(self) -> str:
        if not self.components:
            return "trivial"
        return " + ".join(
            f"Z/{lp.cyclic_order} at {m}" for m, lp in self.components
        )


@dataclass(frozen=True)
class PicClass:
    """Residue class of a bimodule at each relevant place, mod the local
    cyclic order; places not listed have class zero."""

    per_place: tuple[tuple[MaximalIdeal, int], ...]

    def as_dict(self) -> dict[MaximalIdeal, int]:
        return dict(self.per_place)

    @staticmethod
    def of(classes: dict[MaximalIdeal, int]) -> PicClass:
        return PicClass(tuple(sorted(classes.items(), key=lambda t: place_key(t[0]))))


def picent_local(order: ExponentMatrix) -> LocalPicent:
    """Cyclic, generated by the radical; the order is verified by powering
    the radical until a constant shift of the order appears."""
    if not is_hereditary_local(order):
        raise NotHereditary("local Picent computed only for hereditary orders")
    rad = radical(order)
    power = rad
    t = 1
    while constant_shift_of(power.entries, order.entries) is None:
        power = ideal_multiply(power, rad)
        t += 1
        if t > order.n + 1:
            raise PicError("radical powers never reach a scalar multiple")
    if t != len(zero_pair_classes(order)):
        raise PicError("cyclic order differs from the number of projective classes")
    return LocalPicent(order, t, rad)


def picent_global(order: GlobalTiledOrder) -> GlobalPicent:
    ok, failing = is_hereditary_global(order)
    if not ok:
        raise NotHereditary(f"order not hereditary at {failing}")
    comps = []
    for lam in order.local:
        lp = picent_local(lam)
        if lp.cyclic_order > 1:
            comps.append((lam.place, lp))
    return GlobalPicent(tuple(comps))


def _local_class_of(x: FractionalIdealMatrix) -> int:
    lp = picent_local(x.order)
    power = order_ideal(x.order)
    for k in range(lp.cyclic_order):
        if constant_shift_of(x.entries, power.entries) is not None:
            return k
        power = ideal_multiply(power, lp.generator)
    raise NoMatchingPower("bimodule is not a radical power up to scalars")


def pic_class_of(x: dict[MaximalIdeal, FractionalIdealMatrix]) -> PicClass:
    """Radical-power class of an invertible bimodule, given by its local
    matrices, at each place where the order is not maximal."""
    classes: dict[MaximalIdeal, int] = {}
    for m, local in x.items():
        if len(zero_pair_classes(local.order)) == 1:
            # maximal localization: the bimodule must be scalar there
            if constant_shift_of(local.entries, local.order.entries) is None:
                raise NoMatchingPower(f"non-scalar bimodule at maximal place {m}")
            continue
        k = _local_class_of(local)
        if k:
            classes[m] = k
    return PicClass.of(classes)


def construct_class_representative(
    order: GlobalTiledOrder, target: PicClass
) -> dict[MaximalIdeal, FractionalIdealMatrix]:
    """A bimodule whose class is the target: the matching local radical
    power at each place where the order is not maximal, keyed by place."""
    non_maximal = [lam for lam in order.local if len(zero_pair_classes(lam)) > 1]
    places = {lam.place for lam in non_maximal}
    for m, _ in target.per_place:
        if m not in places:
            raise PicError(f"unsupported place {m}: order is maximal there")
    classes = target.as_dict()
    out = {}
    for lam in non_maximal:
        lp = picent_local(lam)
        out[lam.place] = ideal_power(lp.generator, classes.get(lam.place, 0) % lp.cyclic_order)
    return out
