"""The hereditariness verdict, through the semiprime reduction.

The grading group permutes the central idempotents of the identity
component (one per prime block).  Each orbit of blocks contributes a
corner, strongly graded by the stabilizer H of a representative block,
with a prime identity component; the whole order is hereditary exactly
when every such corner is.  A prime identity component is the one-orbit
case, with H the whole group, so every order takes this one path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .base_rings import MaximalIdeal, factorint, maximal_ideals_above
from .graded import GradedOrder, inner_elements
from .groups import (
    FiniteGroup,
    GroupAction,
    OrbitData,
    Perm,
    orbits_and_stabilizers,
    sylow_subgroup,
)
from .tiled import is_hereditary_local


def idempotent_action(order: GradedOrder) -> GroupAction:
    """The right action of the grading group on the prime blocks of the
    identity component, read off the component block permutations.
    ``orbits_and_stabilizers`` validates it before use."""
    perms = {g: comp.perm for g, comp in order.components.items()}
    return GroupAction(order.group, order.base.t, lambda g, i: perms[g][i])


def orbit_decompose(order: GradedOrder) -> list[OrbitData]:
    """The orbits of blocks: the representative is the least block index,
    with its stabilizer."""
    return orbits_and_stabilizers(idempotent_action(order))


@dataclass(frozen=True)
class VerdictEntry:
    orbit: int
    prime: int
    place: MaximalIdeal
    sylow: FiniteGroup
    inner_witness: Perm | None


@dataclass(frozen=True)
class HereditaryVerdict:
    hereditary: bool
    delta_hereditary: bool
    breakdown: tuple[VerdictEntry, ...]


def main_hereditary_verdict(
    order: GradedOrder,
    sylow_choice: Mapping[int, FiniteGroup] | None = None,
) -> HereditaryVerdict:
    """Hereditary iff every block of the identity component is hereditary
    and, for every orbit of blocks (representative b, stabilizer H) and
    every prime p dividing |H|, a Sylow p-subgroup of H has no inner
    element but the identity on the corner of b at each place over p: the
    order's own place if it is local, every place over p if it is global.
    A Sylow choice for p is used in the orbits whose stabilizer contains
    it; a Sylow subgroup is only chosen for a prime with a place to
    examine.

    Each corner is read off the order's own blocks, never built: for g, h
    in H, block b of gamma(g, h) X_g X_h is the product of the corner's
    components, and the order's strong-grading check already matched it
    with block b of X_gh."""
    delta_ok = all(
        is_hereditary_local(blk) for local in order.local_orders() for blk in local.base.blocks
    )
    breakdown = []
    for k, data in enumerate(orbit_decompose(order)):
        stab = data.stabilizer
        for p in factorint(stab.order):  # primes in increasing order
            places = [
                m
                for m in maximal_ideals_above(order.base.ring, p)
                if not order.is_local or m == order.base.place
            ]
            if not places:
                continue
            syl = sylow_choice.get(p) if sylow_choice else None
            if syl is None or not syl.element_set <= stab.element_set:
                syl = sylow_subgroup(stab, p)
            for m in places:
                inner = inner_elements(order.localize(m), syl, data.representative)
                witness = next((h for h in inner if h != stab.identity), None)
                breakdown.append(VerdictEntry(k, p, m, syl, witness))
    hereditary = delta_ok and all(e.inner_witness is None for e in breakdown)
    return HereditaryVerdict(hereditary, delta_ok, tuple(breakdown))
