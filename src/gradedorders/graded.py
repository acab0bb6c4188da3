"""Strongly graded orders over prime or semiprime tiled identity
components.

A component for a grade g is a block-monomial matrix of fractional
bimodules: block row i carries one block, at column position perm[i].
Products of components may wrap through a fixed central scalar per pair
of grades (gamma); strong grading means the scaled product of any two
components equals the component of the product grade exactly.

All grade bookkeeping is exact.  The engine runs on local data only: a
global graded order is its group and gamma plus the local graded order at
each place of the finite support of its data, and is maximal, with zero
exponents, at every other place.  The hereditariness verdict that reads
these orders is in ``semiprime``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping

from .base_rings import (
    BaseRing,
    FractionalIdealR,
    KElem,
    KONE,
    MaximalIdeal,
    check_place,
    kelem_valuation,
    place_key,
    principal_generator,
)
from .groups import (
    FiniteGroup,
    Perm,
    cyclic_group,
    identity_perm,
    pinv,
    pmul,
)
from .tiled import (
    ExponentMatrix,
    FractionalIdealMatrix,
    GlobalTiledOrder,
    IntMatrix,
    NotHereditary,
    constant_shift_of,
    ideal_multiply,
    is_free_left_module,
    is_hereditary_local,
    localize,
    minplus,
    order_ideal,
    shift,
    validate_order,
)


class GradedError(ValueError):
    pass


class NotFiniteOrder(GradedError):
    pass


class NonMinimalOrder(UserWarning):
    pass


class CocycleViolation(GradedError):
    def __init__(self, g, h, k):
        self.triple = (g, h, k)
        super().__init__("cocycle identity fails at a triple of grades")


class ActionDoesNotNormalize(GradedError):
    pass


class InvalidIdempotent(GradedError):
    pass


class NotPrimeContext(GradedError):
    pass


class StrongGradingFailure(GradedError):
    def __init__(self, g, h, detail=""):
        self.pair = (g, h)
        super().__init__(f"strong grading fails at a pair of grades: {detail}")


# ---------------------------------------------------------------------------
# Bases and components


@dataclass(frozen=True)
class LocalBase:
    """Direct sum of prime tiled orders over one completion."""

    blocks: tuple[ExponentMatrix, ...]

    @property
    def t(self) -> int:
        return len(self.blocks)

    @property
    def place(self) -> MaximalIdeal | None:
        return self.blocks[0].place

    @property
    def ring(self) -> BaseRing | None:
        return self.blocks[0].ring


def _check_base(base: LocalBase) -> None:
    """The blocks of a local graded order share one place of their ring."""
    m = base.place
    if m is None or any((blk.ring, blk.place) != (m.ring, m) for blk in base.blocks):
        raise GradedError("the blocks of a local base must share one place of their ring")


@dataclass(frozen=True)
class LocalComponent:
    perm: Perm  # block row i holds its block at column position perm[i]
    mats: tuple[IntMatrix, ...]


@dataclass
class GradedOrder:
    """A strongly graded order.

    A local graded order is its base and components at the place of its
    base.  A global one keeps the local graded order at each place of its
    support in ``completions``; its own base (over the global ring, with no
    place) and components are the all-zero data that every completion off
    the support shares."""

    group: FiniteGroup
    base: LocalBase
    components: dict[Perm, LocalComponent]
    gamma: dict[tuple[Perm, Perm], tuple[KElem, ...]] = field(default_factory=dict)
    completions: dict[MaximalIdeal, GradedOrder] | None = None

    @property
    def is_local(self) -> bool:
        return self.completions is None

    @property
    def is_prime(self) -> bool:
        return self.base.t == 1

    def gamma_at(self, g: Perm, h: Perm) -> tuple[KElem, ...]:
        return self.gamma.get((g, h), tuple(KONE for _ in range(self.base.t)))

    def local_orders(self) -> list[GradedOrder]:
        """The local graded orders holding all of the data: the order itself,
        or its completions at the places of its support."""
        return [self] if self.is_local else list(self.completions.values())

    def places(self) -> tuple[MaximalIdeal, ...]:
        """The places of the local orders that hold the data."""
        return tuple(o.base.place for o in self.local_orders())

    def localize(self, m: MaximalIdeal) -> GradedOrder:
        check_place(self.base.ring, m)
        if self.is_local:
            if self.base.place != m:
                raise GradedError("graded order lives at a different place")
            return self
        if m in self.completions:
            return self.completions[m]
        blocks = tuple(replace(blk, place=m) for blk in self.base.blocks)
        return GradedOrder(self.group, LocalBase(blocks), dict(self.components), self.gamma)


def identity_component(base: LocalBase) -> LocalComponent:
    return LocalComponent(
        identity_perm(base.t), tuple(blk.entries for blk in base.blocks)
    )


def graded_order(
    group: FiniteGroup,
    base: LocalBase,
    components: dict[Perm, LocalComponent],
    gamma: dict | None = None,
) -> GradedOrder:
    _check_base(base)
    order = GradedOrder(group, base, dict(components), dict(gamma or {}))
    if not set().union(*order.gamma) <= group.element_set:
        raise GradedError("a gamma key has a grade outside the group")
    e = group.identity
    if e not in order.components:
        order.components[e] = identity_component(base)
    ok, witness = validate_strong_grading(order)
    if not ok:
        raise StrongGradingFailure(*witness)
    return order


# ---------------------------------------------------------------------------
# Strong grading validation


def _block_sizes(base: LocalBase) -> tuple[int, ...]:
    return tuple(blk.n for blk in base.blocks)


def _local_component_product(
    a: LocalComponent, b: LocalComponent, gamma_vals: tuple[int, ...]
) -> LocalComponent:
    perm = tuple(b.perm[a.perm[i]] for i in range(len(a.perm)))
    mats = tuple(
        shift(minplus(a.mats[i], b.mats[a.perm[i]]), gamma_vals[i])
        for i in range(len(a.perm))
    )
    return LocalComponent(perm, mats)


def validate_strong_grading(order: GradedOrder, lefts: Iterable[Perm] | None = None):
    """Exact equality of scaled component products with the component of
    the product grade, for every pair (g, h) with g in lefts (by default
    the whole group) and at every local order holding the data; returns
    (ok, witness).  The distinct gamma tuples are numbered once, and each
    is valuated at most once per local order, on first use."""
    els = order.group.elements
    local_orders = order.local_orders()
    for local in local_orders:
        t = local.base.t
        if set(local.components) != set(els):
            raise GradedError("component map is not total on the group")
        sizes = _block_sizes(local.base)
        for comp in local.components.values():
            if len(comp.mats) != t:
                raise GradedError(f"a component has {len(comp.mats)} blocks, expected {t}")
            if sorted(comp.perm) != list(range(t)):
                raise GradedError("component block permutation is invalid")
            for i in range(t):
                mat = comp.mats[i]
                if len(mat) != sizes[i] or any(len(r) != sizes[comp.perm[i]] for r in mat):
                    raise GradedError("component block has wrong shape")
    for vals in order.gamma.values():
        if len(vals) != order.base.t:
            raise GradedError(f"a gamma value has {len(vals)} scalars, expected {order.base.t}")
    numbers = {tuple(KONE for _ in range(order.base.t)): 0}
    index = {pair: numbers.setdefault(vals, len(numbers)) for pair, vals in order.gamma.items()}
    gammas = list(numbers)
    valuations = [[None] * len(gammas) for _ in local_orders]
    for g in els if lefts is None else lefts:
        for h in els:
            gh = pmul(g, h)
            k = index.get((g, h), 0)
            for local, vals in zip(local_orders, valuations):
                comps, m = local.components, local.base.place
                if vals[k] is None:
                    vals[k] = tuple(kelem_valuation(local.base.ring, c, m) for c in gammas[k])
                prod = _local_component_product(comps[g], comps[h], vals[k])
                if prod.perm != comps[gh].perm:
                    return False, (g, h, "block permutations disagree")
                if prod.mats != comps[gh].mats:
                    return False, (g, h, f"component mismatch at {m}")
    return True, None


# ---------------------------------------------------------------------------
# Construction from a Picard element (cyclic grading group)

# the powers of the bimodule searched for a scalar wrap when no order is
# requested
PIC_SEARCH_BOUND = 64


def construct_from_pic(
    delta: ExponentMatrix | GlobalTiledOrder,
    x: FractionalIdealMatrix | Mapping[MaximalIdeal, FractionalIdealMatrix],
    n: int | None = None,
) -> GradedOrder:
    """The cyclic graded order with components the powers of x; the wrap
    x**k = c * delta is fixed once, with c the canonical generator.

    Over a global order x maps places to local bimodules (the order itself
    at a place it omits); powers and wraps are then taken place by place,
    and the local shifts lift to one generator over the PID base."""
    is_global = isinstance(delta, GlobalTiledOrder)
    if is_global:
        places = sorted(set(delta.support) | set(x), key=place_key)
        deltas = [localize(delta, m) for m in places]
        xs = [x.get(m, order_ideal(lam)) for m, lam in zip(places, deltas)]
    else:
        _check_base(LocalBase((delta,)))
        deltas, xs = [delta], [x]
    if any(xm.order != lam for lam, xm in zip(deltas, xs)):
        raise GradedError("bimodule is not over the given order")
    if n is not None and n < 1:
        raise NotFiniteOrder(f"requested order {n} is not positive")
    powers = [[order_ideal(lam)] for lam in deltas]

    def next_power() -> KElem | None:
        for pw, xm in zip(powers, xs):
            pw.append(ideal_multiply(pw[-1], xm))
        return _scalar_quotient(delta.ring, deltas, [pw[-1] for pw in powers])

    wrap: KElem | None = None
    k = 0
    limit = max(n or 0, PIC_SEARCH_BOUND)
    while wrap is None and k < limit:
        k += 1
        wrap = next_power()
    if wrap is None:
        raise NotFiniteOrder(
            f"no power of the bimodule up to {limit} is a scalar multiple of the order"
        )
    if n is None:
        n = k
    elif n != k:
        if n % k != 0:
            raise NotFiniteOrder(
                f"requested order {n} is not a multiple of the true order {k}"
            )
        warnings.warn(
            f"requested order {n} exceeds the minimal order {k}",
            NonMinimalOrder,
        )
        while k < n:
            k += 1
            wrap = next_power()
    group = cyclic_group(n)
    gen = group.generators[0] if n > 1 else group.identity
    grades = [group.identity]
    for _ in range(n - 1):
        grades.append(pmul(grades[-1], gen))
    gamma = {}
    cinv = (wrap.inverse(),)
    for i in range(n):
        for j in range(n):
            if i + j >= n:
                gamma[(grades[i], grades[j])] = cinv
    local_orders = [
        graded_order(
            group,
            LocalBase((lam,)),
            {g: LocalComponent((0,), (pw[i].entries,)) for i, g in enumerate(grades)},
            gamma,
        )
        for lam, pw in zip(deltas, powers)
    ]
    if not is_global:
        return local_orders[0]
    zero = ExponentMatrix(delta.n, tuple((0,) * delta.n for _ in range(delta.n)), delta.ring)
    comps = {g: LocalComponent((0,), (zero.entries,)) for g in grades}
    return GradedOrder(group, LocalBase((zero,)), comps, gamma, dict(zip(places, local_orders)))


def _scalar_quotient(
    ring: BaseRing, deltas: list[ExponentMatrix], powers: list[FractionalIdealMatrix]
) -> KElem | None:
    """The canonical scalar c with power == c * delta at every place, if
    one exists."""
    shifts: dict[MaximalIdeal, int] = {}
    for lam, power in zip(deltas, powers):
        s = constant_shift_of(power.entries, lam.entries)
        if s is None:
            return None
        shifts[lam.place] = s
    return principal_generator(FractionalIdealR.from_factors(ring, shifts))


# ---------------------------------------------------------------------------
# Crossed products


@dataclass(frozen=True)
class Monomial:
    """An invertible monomial matrix: row k has its single entry at column
    perm[k], with the given exact nonzero scalar."""

    perm: Perm
    scalars: tuple[KElem, ...]

    @staticmethod
    def identity(n: int) -> Monomial:
        return Monomial(identity_perm(n), tuple(KONE for _ in range(n)))


@dataclass(frozen=True)
class CrossedProductDatum:
    """Action (block permutation plus per-block monomial automorphisms) and
    a central 2-cocycle with unit values."""

    action: Mapping[Perm, tuple[Perm, tuple[Monomial, ...]]]
    cocycle: Mapping[tuple[Perm, Perm], KElem] | None = None

    def tau(self, g: Perm, h: Perm) -> KElem:
        if self.cocycle is None:
            return KONE
        return self.cocycle.get((g, h), KONE)


# a block-monomial matrix as (block_perm, monos): block row i holds monos[i]
# at block column block_perm[i]
_BlockMonomial = tuple[Perm, tuple[Monomial, ...]]


def coboundary_cocycle(
    group: FiniteGroup, mu: Mapping[Perm, KElem]
) -> dict[tuple[Perm, Perm], KElem]:
    """The 2-cocycle tau(g,h) = mu(g) mu(h) mu(gh)^-1; always satisfies the
    cocycle identity.  The distinct values of mu are numbered, and each
    distinct triple of numbers is multiplied out once."""
    els = group.elements
    values: dict[KElem, int] = {}
    number = {g: values.setdefault(mu.get(g, KONE), len(values)) for g in els}
    scalars = list(values)
    products: dict[tuple[int, int, int], KElem] = {}
    out = {}
    for g in els:
        a = number[g]
        for h in els:
            key = (a, number[h], number[pmul(g, h)])
            tau = products.get(key)
            if tau is None:
                tau = products[key] = scalars[a] * scalars[key[1]] / scalars[key[2]]
            out[(g, h)] = tau
    return out


def construct_crossed_product(
    base: LocalBase,
    group: FiniteGroup,
    datum: CrossedProductDatum,
) -> GradedOrder:
    """Components delta * w_g, where w_g is the block-monomial matrix of
    the action, and gamma = tau / beta, where w_g w_h = beta(g,h) w_gh with
    one scalar per block.  beta is 1 when every monomial scalar is 1, and
    gamma keeps only the tuples that are not all ones.

    Both checks run on the pairs (g, s) or (s, h) only, with s the identity
    or a generator; induction on word length gives every pair.
    Homomorphism: write a ~ b when a = D b with D diagonal, one scalar per
    block; ~ is kept by products on either side, so
    w_g w_hs ~ w_g w_h w_s ~ w_gh w_s ~ w_ghs.  Strong grading, with
    X_g = delta * w_g: expanding (w_g w_s) w_h = w_g (w_s w_h) shows that
    beta, and so gamma, satisfies the cocycle identity twisted by the block
    permutation of w_g, so X_gs X_h gamma(gs,h) =
    X_g X_s X_h gamma(g,s) gamma(gs,h) = X_g X_sh gamma(g,sh) = X_gsh."""
    _check_base(base)
    els = group.elements
    _check_cocycle(group, datum)
    t = base.t
    sizes = _block_sizes(base)
    ws: dict[Perm, _BlockMonomial] = {}
    for g in els:
        if g not in datum.action:
            raise GradedError("action is not defined on every group element")
        bperm, monos = ws[g] = datum.action[g]
        if sorted(bperm) != list(range(t)):
            raise ActionDoesNotNormalize("block permutation invalid")
        for i in range(t):
            if sizes[i] != sizes[bperm[i]]:
                raise ActionDoesNotNormalize(
                    "action maps a block to one of a different size"
                )
            if len(monos[i].perm) != sizes[i]:
                raise ActionDoesNotNormalize("monomial size mismatch")
    comps = {g: _delta_times_monomial(base, ws[g]) for g in els}
    ones = all(c == KONE for _, monos in ws.values() for mono in monos for c in mono.scalars)
    steps = sorted({group.identity, *group.generators})
    for s in steps:
        for g in els:
            if _central_quotient(ws[g], ws[s], ws[pmul(g, s)], ones) is None:
                raise ActionDoesNotNormalize(
                    "action is not a homomorphism up to central scalars"
                )
    gamma: dict[tuple[Perm, Perm], tuple[KElem, ...]] = {}
    if ones:
        members = group.element_set
        for (g, h), tau in (datum.cocycle or {}).items():
            if tau != KONE and g in members and h in members:
                gamma[(g, h)] = (tau,) * t
    else:
        for g in els:
            for h in els:
                beta = _central_quotient(ws[g], ws[h], ws[pmul(g, h)])
                tau = datum.tau(g, h)
                vals = tuple(tau / b for b in beta)
                if any(v != KONE for v in vals):
                    gamma[(g, h)] = vals
    order = GradedOrder(group, base, comps, gamma)
    if not validate_strong_grading(order, steps)[0]:
        # name the first failing pair in element order, as the check of
        # every pair does
        witness = validate_strong_grading(order)[1]
        raise ActionDoesNotNormalize(
            f"action does not normalize the order: failure at {witness[:2]}"
        )
    return order


def _check_cocycle(group: FiniteGroup, datum: CrossedProductDatum) -> None:
    """tau(g,h) tau(gh,k) == tau(h,k) tau(g,hk) for every triple of grades.

    The check runs on indices: a Cayley table of the group, the distinct
    values of tau numbered once, and their products numbered once.  Scalars
    are equal exactly when their normal forms are, so two products agree
    exactly when their numbers do."""
    if datum.cocycle is None:
        return  # tau == 1 satisfies the identity
    els = group.elements
    index = {g: i for i, g in enumerate(els)}
    cayley = [[index[pmul(g, h)] for h in els] for g in els]
    values: dict[KElem, int] = {}
    tau = [[values.setdefault(datum.tau(g, h), len(values)) for h in els] for g in els]
    numbers: dict[KElem, int] = {}
    products = [[numbers.setdefault(x * y, len(numbers)) for y in values] for x in values]
    for g, (tau_g, row_g) in enumerate(zip(tau, cayley)):
        for h, (t_gh, tau_h, row_h) in enumerate(zip(tau_g, tau, cayley)):
            left, right = products[t_gh], tau[row_g[h]]
            lhs = [left[x] for x in right]
            rhs = [products[x][tau_g[hk]] for x, hk in zip(tau_h, row_h)]
            if lhs != rhs:
                k = next(k for k, (u, v) in enumerate(zip(lhs, rhs)) if u != v)
                raise CocycleViolation(els[g], els[h], els[k])


def _central_quotient(
    a: _BlockMonomial, b: _BlockMonomial, ab: _BlockMonomial, ones: bool = False
) -> tuple[KElem, ...] | None:
    """Per-block scalars beta with a * b == beta * ab, or None.  With
    ``ones`` every scalar of the three is 1: only the permutations are
    composed, and beta is all ones."""
    (pa, ma), (pb, mb), (pab, mab) = a, b, ab
    if pmul(pa, pb) != pab:
        return None
    out = []
    for x, y, xy in zip(ma, (mb[j] for j in pa), mab):
        if pmul(x.perm, y.perm) != xy.perm:
            return None
        if not ones:
            prod = [c * y.scalars[k] for c, k in zip(x.scalars, x.perm)]
            ratio = prod[0] / xy.scalars[0]
            if any(c != ratio * d for c, d in zip(prod, xy.scalars)):
                return None
            out.append(ratio)
    return (KONE,) * len(pa) if ones else tuple(out)


def _delta_times_monomial(base: LocalBase, w: _BlockMonomial) -> LocalComponent:
    """The lattice delta * w as a block component."""
    bperm, monos = w
    mats = []
    for blk, mono in zip(base.blocks, monos):
        vals = [kelem_valuation(blk.ring, c, blk.place) for c in mono.scalars]
        inv = pinv(mono.perm)  # column b of delta * w is column inv[b] of delta
        mats.append(tuple(tuple(row[k] + vals[k] for k in inv) for row in blk.entries))
    return LocalComponent(bperm, tuple(mats))


# ---------------------------------------------------------------------------
# Recognition and classification


def is_crossed_product(order: GradedOrder) -> tuple[bool, dict[Perm, bool]]:
    """Whether every component is free of rank one as a left module over
    the identity component (prime local case)."""
    if not order.is_prime or not order.is_local:
        raise NotPrimeContext(
            "crossed-product recognition needs a prime identity component at one place"
        )
    delta = order.base.blocks[0]
    if not is_hereditary_local(delta):
        raise NotHereditary("recognition needs a hereditary identity component")
    verdicts = {}
    for g, comp in order.components.items():
        x = FractionalIdealMatrix(delta, comp.mats[0])
        verdicts[g] = is_free_left_module(x)
    return all(verdicts.values()), verdicts


def inner_elements(
    order: GradedOrder, subgroup: FiniteGroup, block: int | None = None
) -> tuple[Perm, ...]:
    """The elements h of a subgroup whose component is inner: at every
    local order holding the data (one place: pass ``order.localize(m)``),
    the component of h fixes the given block, or every block when block is
    None, and on each such block is a constant shift of the identity
    component.  On one block this reads the inner elements of that block's
    corner, graded by the subgroup, off the order itself.  Over the PID
    bases a consistent family of local shifts always lifts to one global
    scalar."""

    def is_inner(h: Perm) -> bool:
        for local in order.local_orders():
            comp = local.components[h]
            for b in range(local.base.t) if block is None else (block,):
                if comp.perm[b] != b:
                    return False
                if constant_shift_of(comp.mats[b], local.base.blocks[b].entries) is None:
                    return False
        return True

    inner = tuple(h for h in subgroup.elements if is_inner(h))
    if {pmul(a, b) for a in inner for b in inner} != set(inner):
        raise GradedError("inner elements do not form a subgroup")
    return inner


# ---------------------------------------------------------------------------
# Corners


def corner_graded_order(order: GradedOrder, indices: tuple[int, ...]) -> GradedOrder:
    """Corner by a diagonal idempotent of a prime local identity component
    (a subset of matrix indices)."""
    if not order.is_prime or not order.is_local:
        raise InvalidIdempotent("index corners apply to prime local graded orders")
    delta = order.base.blocks[0]
    if not indices or any(not 0 <= i < delta.n for i in indices) or len(
        set(indices)
    ) != len(indices):
        raise InvalidIdempotent(f"invalid index subset {indices}")
    sub = tuple(
        tuple(delta.entries[i][j] for j in indices) for i in indices
    )
    new_delta = validate_order(sub, delta.ring, delta.place)
    comps = {}
    for g, comp in order.components.items():
        mat = comp.mats[0]
        comps[g] = LocalComponent(
            (0,), (tuple(tuple(mat[i][j] for j in indices) for i in indices),)
        )
    return graded_order(
        order.group, LocalBase((new_delta,)), comps, dict(order.gamma)
    )


def block_corner_graded_order(
    order: GradedOrder, block: int, subgroup: FiniteGroup
) -> GradedOrder:
    """Corner by the central idempotent of one prime summand, graded by the
    stabilizer of that summand."""
    if not order.is_local:
        raise InvalidIdempotent("block corners apply to local graded orders")
    t = order.base.t
    if not 0 <= block < t:
        raise InvalidIdempotent(f"no block {block}")
    for h in subgroup.elements:
        if order.components[h].perm[block] != block:
            raise InvalidIdempotent(
                "subgroup does not stabilize the chosen block"
            )
    base = LocalBase((order.base.blocks[block],))
    comps = {}
    for h in subgroup.elements:
        comps[h] = LocalComponent((0,), (order.components[h].mats[block],))
    members = subgroup.element_set
    gamma = {
        (h1, h2): (vals[block],)
        for (h1, h2), vals in order.gamma.items()
        if vals[block] != KONE and h1 in members and h2 in members
    }
    return graded_order(subgroup, base, comps, gamma)
