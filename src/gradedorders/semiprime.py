"""Semiprime reduction: central idempotents, grade orbits, and the main
hereditariness decision.

The grading group permutes the central idempotents of the identity
component (one per prime block).  Each orbit contributes a corner that is
again strongly graded, by the stabilizer of a chosen representative
block, with a prime identity component; the whole order is hereditary
exactly when every such corner is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .graded import (
    GradedOrder,
    HereditaryVerdict,
    block_corner_graded_order,
    prime_hereditary_verdict,
    _delta_hereditary,
)
from .groups import FiniteGroup, GroupAction, OrbitData, orbits_and_stabilizers


def idempotent_action(order: GradedOrder) -> GroupAction:
    """The right action of the grading group on the prime blocks of the
    identity component, read off the component block permutations.
    ``orbits_and_stabilizers`` validates it before use."""
    perms = {g: comp.perm for g, comp in order.components.items()}
    return GroupAction(order.group, order.base.t, lambda g, i: perms[g][i])


@dataclass(frozen=True)
class OrbitCorner:
    data: OrbitData
    corner: GradedOrder


def orbit_decompose(order: GradedOrder) -> list[OrbitCorner]:
    """One corner per orbit of blocks: the representative is the least
    block index, graded by its stabilizer."""
    out = []
    for data in orbits_and_stabilizers(idempotent_action(order)):
        corner = block_corner_graded_order(order, data.representative, data.stabilizer)
        out.append(OrbitCorner(data, corner))
    return out


def main_hereditary_verdict(
    order: GradedOrder,
    sylow_choice: Mapping[int, FiniteGroup] | None = None,
) -> HereditaryVerdict:
    """Hereditary iff every orbit corner passes the prime-case test."""
    if order.is_prime:
        return prime_hereditary_verdict(order, sylow_choice)
    breakdown = []
    hereditary = _delta_hereditary(order)
    delta_ok = hereditary
    for k, oc in enumerate(orbit_decompose(order)):
        v = prime_hereditary_verdict(oc.corner, sylow_choice, orbit_index=k)
        hereditary = hereditary and v.hereditary
        breakdown.extend(v.breakdown)
    return HereditaryVerdict(hereditary, delta_ok, tuple(breakdown))
