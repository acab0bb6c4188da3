"""Finite permutation groups: closure, subgroups, Sylow subgroups,
conjugation, and actions on finite sets with orbits and Schreier
stabilizers.  A subgroup is a ``FiniteGroup`` named by its generators.

Permutations are tuples of images on {0..degree-1}; the product p * q
means "apply p, then q", so points are acted on from the right and
x . (gh) = (x . g) . h holds on the nose.  Cycle strings in the external
format are 1-based, e.g. "(1 2 3)(4 5)".
"""

from __future__ import annotations

import re as _re
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable

from .base_rings import _is_prime

MAX_GROUP_ORDER = 10_080
# largest permutation degree accepted from input: a group holds up to
# MAX_GROUP_ORDER permutations of this length
MAX_DEGREE = 64


class GroupError(ValueError):
    pass


class ActionError(GroupError):
    """Action-axiom violation; carries a witness."""


Perm = tuple[int, ...]


def identity_perm(degree: int) -> Perm:
    return tuple(range(degree))


def pmul(p: Perm, q: Perm) -> Perm:
    """Apply p, then q."""
    return tuple([q[i] for i in p])


def pinv(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def perm_order(p: Perm) -> int:
    n = 1
    q = p
    e = identity_perm(len(p))
    while q != e:
        q = pmul(q, p)
        n += 1
    return n


def perm_to_cycles(p: Perm) -> str:
    seen = set()
    parts = []
    for i in range(len(p)):
        if i in seen or p[i] == i:
            seen.add(i)
            continue
        cyc = [i]
        seen.add(i)
        j = p[i]
        while j != i:
            cyc.append(j)
            seen.add(j)
            j = p[j]
        parts.append("(" + " ".join(str(k + 1) for k in cyc) + ")")
    return "".join(parts) if parts else "()"


def perm_from_cycles(s: str, degree: int) -> Perm:
    if not isinstance(s, str):
        raise GroupError(f"expected a cycle string, got {s!r}")
    s = s.strip()
    if s in ("()", "", "e", "1"):
        return identity_perm(degree)
    if not _re.fullmatch(r"(\s*\([\d\s,]*\))+\s*", s):
        raise GroupError(f"cannot parse cycle string {s!r}")
    out = list(range(degree))
    for cyc in _re.findall(r"\(([^()]*)\)", s):
        pts = [int(t) - 1 for t in cyc.replace(",", " ").split()]
        if any(not 0 <= x < degree for x in pts):
            raise GroupError(f"point out of range in cycle string {s!r}")
        if len(set(pts)) != len(pts):
            raise GroupError(f"repeated point in cycle string {s!r}")
        for a, b in zip(pts, pts[1:] + pts[:1]):
            out[a] = b
    return tuple(out)


def _close(degree: int, gens: tuple[Perm, ...]) -> tuple[Perm, ...]:
    e = identity_perm(degree)
    seen = {e}
    frontier = [e]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = pmul(x, g)
                if y not in seen:
                    if len(seen) >= MAX_GROUP_ORDER:
                        raise GroupError(
                            f"group order exceeds cap {MAX_GROUP_ORDER}"
                        )
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return tuple(sorted(seen))


@dataclass(frozen=True)
class FiniteGroup:
    degree: int
    generators: tuple[Perm, ...]

    def __post_init__(self):
        for g in self.generators:
            if sorted(g) != list(range(self.degree)):
                raise GroupError(f"not a permutation of degree {self.degree}: {g}")

    @cached_property
    def elements(self) -> tuple[Perm, ...]:
        return _close(self.degree, self.generators)

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def identity(self) -> Perm:
        return identity_perm(self.degree)

    @cached_property
    def element_set(self) -> frozenset[Perm]:
        return frozenset(self.elements)

    def __contains__(self, p: Perm) -> bool:
        return p in self.element_set

    def subgroup(self, gens: Iterable[Perm]) -> FiniteGroup:
        """The subgroup generated by gens, which must lie in this group."""
        gens = tuple(gens)
        for g in gens:
            if g not in self.element_set:
                raise GroupError(f"generator {g} not in parent group")
        return FiniteGroup(self.degree, gens)


def symmetric_group(n: int) -> FiniteGroup:
    if n <= 1:
        return FiniteGroup(max(n, 1), ())
    gens = [tuple([1, 0] + list(range(2, n)))]
    if n > 2:
        gens.append(tuple(list(range(1, n)) + [0]))
    return FiniteGroup(n, tuple(gens))


def cyclic_group(n: int) -> FiniteGroup:
    if n == 1:
        return FiniteGroup(1, ())
    return FiniteGroup(n, (tuple(list(range(1, n)) + [0]),))


def conjugate_subgroup(h: FiniteGroup, g: Perm) -> FiniteGroup:
    """g^-1 H g."""
    gi = pinv(g)
    return FiniteGroup(h.degree, tuple(pmul(pmul(gi, x), g) for x in h.generators))


def normalizer(group: FiniteGroup, sub: FiniteGroup) -> FiniteGroup:
    hset = sub.element_set
    gens = []
    for g in group.elements:
        gi = pinv(g)
        if all(pmul(pmul(gi, h), g) in hset for h in sub.generators):
            if set(pmul(pmul(gi, h), g) for h in sub.elements) == hset:
                gens.append(g)
    return FiniteGroup(group.degree, tuple(gens))


def _p_part(n: int, p: int) -> int:
    k = 1
    while n % (k * p) == 0:
        k *= p
    return k


def sylow_subgroup(group: FiniteGroup, p: int) -> FiniteGroup:
    """A Sylow p-subgroup, deterministically the one with lexicographically
    least sorted element list among all conjugates."""
    if not _is_prime(p):
        raise GroupError(f"{p} is not prime")
    target = _p_part(group.order, p)
    sub = FiniteGroup(group.degree, ())
    while sub.order < target:
        nor = normalizer(group, sub)
        candidates = [
            x
            for x in nor.elements
            if x not in sub and _is_p_element(x, p)
        ]
        # x normalizes sub and has p-power order, so <sub, x> is a p-group
        grown = None
        for x in sorted(candidates):
            cand = FiniteGroup(group.degree, sub.generators + (x,))
            if cand.order % p == 0 and _p_part(cand.order, p) == cand.order:
                grown = cand
                break
        if grown is None:
            raise GroupError("sylow ascent stalled (internal error)")
        sub = grown
    best = min(conjugate_subgroup(sub, x).elements for x in group.elements)
    return FiniteGroup(group.degree, best)


def all_sylow_subgroups(group: FiniteGroup, p: int) -> list[FiniteGroup]:
    """Every Sylow p-subgroup (as conjugates of one of them)."""
    base = sylow_subgroup(group, p)
    seen = {}
    for x in group.elements:
        c = conjugate_subgroup(base, x)
        seen.setdefault(c.elements, c)
    return sorted(seen.values(), key=lambda s: s.elements)


def _is_p_element(x: Perm, p: int) -> bool:
    n = perm_order(x)
    return n > 1 and _p_part(n, p) == n


@dataclass(frozen=True)
class GroupAction:
    """A right action of a finite group on {0..set_size-1}."""

    group: FiniteGroup
    set_size: int
    mapping: Callable[[Perm, int], int]

    def validate(self) -> None:
        """The identity fixes every point, and x.(gs) == (x.g).s for every
        g and every generator s.  That covers every pair (g, h): by
        induction on the length of h as a word in the generators,
        x.(ghs) == (x.(gh)).s == ((x.g).h).s == (x.g).(hs), starting from
        x.(ge) == x.g == (x.g).e.  A failure is reported at the first
        failing (g, h, x) over all pairs, in element order."""
        e = self.group.identity
        for x in range(self.set_size):
            if self.mapping(e, x) != x:
                raise ActionError(f"identity moves point {x}")
        if self._first_failure(self.group.generators) is not None:
            g, h, x = self._first_failure(self.group.elements)
            raise ActionError(
                f"incompatible pair (g={perm_to_cycles(g)}, "
                f"h={perm_to_cycles(h)}) at point {x}"
            )

    def _first_failure(self, rights: tuple[Perm, ...]) -> tuple[Perm, Perm, int] | None:
        """The first (g, h, x) with h in rights and x.(gh) != (x.g).h."""
        for g in self.group.elements:
            for h in rights:
                gh = pmul(g, h)
                for x in range(self.set_size):
                    if self.mapping(gh, x) != self.mapping(h, self.mapping(g, x)):
                        return g, h, x
        return None


@dataclass(frozen=True)
class OrbitData:
    orbit: tuple[int, ...]
    representative: int
    stabilizer: FiniteGroup


def orbits_and_stabilizers(action: GroupAction) -> list[OrbitData]:
    """The orbits in order of their least point, each with the stabilizer
    of that point.  An orbit is walked along the generators, keeping a
    transversal u_y with rep.u_y = y; the stabilizer is generated by the
    Schreier generators u_y s u_(y.s)^-1, for y in the orbit and s a
    generator, leaving out the identity and repeats (Schreier's lemma;
    Seress, Permutation Group Algorithms, CUP 2003, section 4.1).  They
    are taken during the walk: an edge that reaches a new point gives the
    identity."""
    action.validate()
    g = action.group
    done: set[int] = set()
    out = []
    for rep in range(action.set_size):
        if rep in done:
            continue
        transversal, frontier, schreier = {rep: g.identity}, [rep], {}
        for y in frontier:  # the walk appends to the list it reads
            for s in g.generators:
                z, u = action.mapping(s, y), pmul(transversal[y], s)
                if z not in transversal:
                    transversal[z] = u
                    frontier.append(z)
                elif u != transversal[z]:
                    schreier.setdefault(pmul(u, pinv(transversal[z])))
        stab = FiniteGroup(g.degree, tuple(schreier))
        if len(transversal) * stab.order != g.order:
            raise ActionError("orbit size times stabilizer order is not the group order")
        out.append(OrbitData(tuple(sorted(transversal)), rep, stab))
        done |= transversal.keys()
    return out


def permutation_action(group: FiniteGroup) -> GroupAction:
    """The natural action of a permutation group on its points."""
    return GroupAction(group, group.degree, lambda g, x: g[x])
