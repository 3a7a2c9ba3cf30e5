"""Finite abelian groups in invariant-factor coordinates.

A group is stored by its invariant factors n1 | n2 | ... | nr together with
the matching prime-power decomposition. Elements are residue tuples against
the invariant-factor moduli; the lexicographic order on residue tuples is the
canonical element order used everywhere downstream.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, lcm, prod
from typing import Iterable, Iterator, Sequence

from .errors import (
    DomainError,
    IllDefinedHomomorphismError,
    InvalidModulusError,
)

Element = tuple[int, ...]


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 by trial division."""
    if n < 1:
        raise DomainError(f"cannot factor {n}")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == {n: 1}


def prime_stats(n: int) -> tuple[int, int, int]:
    """Smallest prime divisor, largest prime divisor, number of distinct primes."""
    if n < 2:
        raise DomainError(f"prime_stats needs n >= 2, got {n}")
    ps = sorted(factorize(n))
    return ps[0], ps[-1], len(ps)


def _invariant_factors_from_primary(
    parts: Iterable[tuple[int, int]],
) -> tuple[int, ...]:
    """Recombine prime-power components into a divisibility chain."""
    exps: dict[int, list[int]] = {}
    for p, e in parts:
        exps.setdefault(p, []).append(e)
    for v in exps.values():
        v.sort(reverse=True)
    width = max((len(v) for v in exps.values()), default=0)
    factors = []
    for i in range(width):
        f = 1
        for p in sorted(exps):
            es = exps[p]
            if i < len(es):
                f *= p ** es[i]
        factors.append(f)
    factors.reverse()
    return tuple(factors)


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """A finite abelian group carrying both canonical presentations.

    The empty invariant-factor tuple represents the trivial group.
    """

    invariant_factors: tuple[int, ...]
    primary_components: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        fs = self.invariant_factors
        if fs and fs[0] < 2:
            raise InvalidModulusError(f"invariant factors must exceed 1, got {fs}")
        for a, b in zip(fs, fs[1:]):
            if b % a:
                raise InvalidModulusError(
                    f"invariant factors must form a divisibility chain, got {fs}"
                )
        expected: list[tuple[int, int]] = []
        for n in fs:
            expected.extend(factorize(n).items())
        if tuple(sorted(expected)) != self.primary_components:
            raise InvalidModulusError(
                "primary components do not match the invariant factors"
            )
        if _invariant_factors_from_primary(self.primary_components) != fs:
            raise InvalidModulusError("presentations describe different groups")

    # -- structure ---------------------------------------------------------

    @property
    def order(self) -> int:
        return prod(self.invariant_factors)

    @property
    def exponent(self) -> int:
        return self.invariant_factors[-1] if self.invariant_factors else 1

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    @property
    def is_trivial(self) -> bool:
        return not self.invariant_factors

    @property
    def key(self) -> str:
        """Canonical serialized key, e.g. "2x4"; "1" for the trivial group."""
        if self.is_trivial:
            return "1"
        return "x".join(str(n) for n in self.invariant_factors)

    def __str__(self) -> str:
        if self.is_trivial:
            return "C1"
        return "+".join(f"C{n}" for n in self.invariant_factors)

    # -- elements ----------------------------------------------------------

    def element(self, residues: Iterable[int]) -> Element:
        try:
            rs = tuple(operator.index(r) for r in residues)
        except TypeError as exc:
            raise DomainError(
                f"element residues must be integers, got {residues!r}"
            ) from exc
        if len(rs) != self.rank:
            raise DomainError(
                f"element needs {self.rank} residues for {self}, got {len(rs)}"
            )
        return tuple(r % n for r, n in zip(rs, self.invariant_factors))

    def zero(self) -> Element:
        return (0,) * self.rank

    def contains(self, g: Element) -> bool:
        return len(g) == self.rank and all(
            0 <= r < n for r, n in zip(g, self.invariant_factors)
        )

    def add(self, a: Element, b: Element) -> Element:
        return tuple((x + y) % n for x, y, n in zip(a, b, self.invariant_factors))

    def neg(self, a: Element) -> Element:
        return tuple((-x) % n for x, n in zip(a, self.invariant_factors))

    def scale(self, k: int, a: Element) -> Element:
        return tuple((k * x) % n for x, n in zip(a, self.invariant_factors))

    def element_order(self, g: Element) -> int:
        if not self.contains(g):
            raise DomainError(f"{g} is not an element of {self}")
        return lcm(
            *(n // gcd(n, r) for r, n in zip(g, self.invariant_factors)), 1
        )

    def elements(self) -> Iterator[Element]:
        """All elements in lexicographic (canonical) order."""
        return itertools.product(*(range(n) for n in self.invariant_factors))


def element_order(group: FiniteAbelianGroup, g: Element) -> int:
    return group.element_order(g)


def normalize_group(moduli: Iterable[int]) -> FiniteAbelianGroup:
    """Build the group C_{m1} + ... + C_{mk} in canonical form.

    Any two inputs with the same multiset of prime-power factors yield an
    identical value; the empty list gives the trivial group.
    """
    parts: list[tuple[int, int]] = []
    for m in moduli:
        if m < 2:
            raise InvalidModulusError(f"modulus must be at least 2, got {m}")
        parts.extend(factorize(m).items())
    primary = tuple(sorted(parts))
    return FiniteAbelianGroup(_invariant_factors_from_primary(primary), primary)


def trivial_group() -> FiniteAbelianGroup:
    return FiniteAbelianGroup((), ())


# -- homomorphisms ----------------------------------------------------------


@dataclass(frozen=True)
class Homomorphism:
    """A group map determined by images of the invariant-factor generators."""

    source: FiniteAbelianGroup
    target: FiniteAbelianGroup
    generator_images: tuple[Element, ...]

    def __post_init__(self) -> None:
        if len(self.generator_images) != self.source.rank:
            raise IllDefinedHomomorphismError(
                f"need {self.source.rank} generator images, got "
                f"{len(self.generator_images)}"
            )
        for n, img in zip(self.source.invariant_factors, self.generator_images):
            if not self.target.contains(img):
                raise IllDefinedHomomorphismError(f"{img} not in {self.target}")
            if self.target.scale(n, img) != self.target.zero():
                raise IllDefinedHomomorphismError(
                    f"order of image {img} does not divide source modulus {n}"
                )

    def __call__(self, g: Element) -> Element:
        if not self.source.contains(g):
            raise DomainError(f"{g} is not an element of {self.source}")
        out = self.target.zero()
        for r, img in zip(g, self.generator_images):
            out = self.target.add(out, self.target.scale(r, img))
        return out


def make_hom(
    source: FiniteAbelianGroup,
    target: FiniteAbelianGroup,
    generator_images: Iterable[Iterable[int]],
) -> Homomorphism:
    images = tuple(target.element(img) for img in generator_images)
    return Homomorphism(source, target, images)


def multiplication_hom(group: FiniteAbelianGroup, k: int) -> Homomorphism:
    """The endomorphism x -> k*x."""
    images = []
    for j, n in enumerate(group.invariant_factors):
        v = [0] * group.rank
        v[j] = k % n
        images.append(tuple(v))
    return Homomorphism(group, group, tuple(images))


def projection_hom(group: FiniteAbelianGroup, coord: int) -> Homomorphism:
    """Projection onto one invariant-factor coordinate."""
    if not 0 <= coord < group.rank:
        raise DomainError(f"coordinate {coord} out of range for {group}")
    target = normalize_group([group.invariant_factors[coord]])
    images = [
        target.element([1]) if j == coord else target.zero()
        for j in range(group.rank)
    ]
    return Homomorphism(group, target, tuple(images))


def reduction_hom(group: FiniteAbelianGroup, moduli: Sequence[int]) -> Homomorphism:
    """Componentwise reduction x_j -> x_j mod d_j; d_j = 1 drops a coordinate."""
    if len(moduli) != group.rank:
        raise DomainError(f"need {group.rank} reduction moduli, got {len(moduli)}")
    for d, n in zip(moduli, group.invariant_factors):
        if d < 1 or n % d:
            raise IllDefinedHomomorphismError(
                f"reduction modulus {d} does not divide {n}"
            )
    kept = [d for d in moduli if d > 1]
    target, gen_images = product_presentation(kept)
    images = []
    pos = 0
    for d in moduli:
        if d > 1:
            images.append(gen_images[pos])
            pos += 1
        else:
            images.append(target.zero())
    return Homomorphism(group, target, tuple(images))


def product_presentation(
    moduli: Sequence[int],
) -> tuple[FiniteAbelianGroup, tuple[Element, ...]]:
    """Normalized form of C_{m1} + ... + C_{mk} with an embedding per factor.

    Returns the canonical group N together with, for each input modulus, the
    image in N of that factor's generator; the combined map is an isomorphism.
    """
    group = normalize_group(moduli)
    # Slot each prime power of the target: exponents per prime, largest first.
    slots: dict[int, list[tuple[int, int]]] = {}
    for j, n in enumerate(group.invariant_factors):
        for p, e in factorize(n).items():
            slots.setdefault(p, []).append((-e, j))
    for v in slots.values():
        v.sort()
    # Rank the input parts the same way, so equal exponents pair up.
    inputs: dict[int, list[tuple[int, int]]] = {}
    for t, m in enumerate(moduli):
        for p, a in factorize(m).items():
            inputs.setdefault(p, []).append((-a, t))
    coordinate_of: dict[tuple[int, int], int] = {}
    for p, parts in inputs.items():
        parts.sort()
        for k, (neg_a, t) in enumerate(parts):
            neg_e, j = slots[p][k]
            if neg_e != neg_a:
                raise DomainError("prime-power slot mismatch")  # unreachable
            coordinate_of[(t, p)] = j
    images = []
    for t, m in enumerate(moduli):
        coords = [0] * group.rank
        for p, a in sorted(factorize(m).items()):
            j = coordinate_of[(t, p)]
            nj = group.invariant_factors[j]
            coords[j] = (coords[j] + nj // p**a) % nj
        images.append(tuple(coords))
    return group, tuple(images)


# -- kernels, images, and structure recovery --------------------------------


def kernel_elements(phi: Homomorphism) -> list[Element]:
    """All source elements mapping to zero, in canonical order."""
    zero = phi.target.zero()
    return [g for g in phi.source.elements() if phi(g) == zero]


def image_elements(phi: Homomorphism) -> list[Element]:
    return sorted({phi(g) for g in phi.source.elements()})


@lru_cache(maxsize=None)
def order_statistics(group: FiniteAbelianGroup) -> tuple[int, ...]:
    return tuple(sorted(group.element_order(g) for g in group.elements()))


def group_from_order_statistics(orders: Sequence[int]) -> FiniteAbelianGroup:
    """Recover a finite abelian group from the multiset of element orders."""
    stats = tuple(sorted(orders))
    for cand in abelian_groups_of_order(len(stats)):
        if order_statistics(cand) == stats:
            return cand
    raise DomainError("order statistics do not match any abelian group")


def kernel_structure(phi: Homomorphism) -> FiniteAbelianGroup:
    ker = kernel_elements(phi)
    return group_from_order_statistics([phi.source.element_order(g) for g in ker])


def quotient_structure(phi: Homomorphism) -> FiniteAbelianGroup:
    """Iso class of source/kernel, recovered from the image subgroup."""
    img = image_elements(phi)
    return group_from_order_statistics([phi.target.element_order(g) for g in img])


def _partitions(k: int) -> Iterator[tuple[int, ...]]:
    """Non-increasing partitions of k."""
    if k == 0:
        yield ()
        return
    def rec(remaining: int, largest: int):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, largest), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest
    yield from rec(k, k)


def abelian_groups_of_order(n: int) -> list[FiniteAbelianGroup]:
    """All isomorphism classes of abelian groups of order n, deterministically."""
    if n < 1:
        raise DomainError(f"order must be positive, got {n}")
    if n == 1:
        return [trivial_group()]
    per_prime = []
    for p, a in sorted(factorize(n).items()):
        per_prime.append([[(p, e) for e in part] for part in _partitions(a)])
    out = []
    for combo in itertools.product(*per_prime):
        parts = [p**e for block in combo for (p, e) in block]
        out.append(normalize_group(parts))
    out.sort(key=lambda g: g.invariant_factors)
    return out


def abelian_groups_up_to(max_order: int) -> list[FiniteAbelianGroup]:
    out = []
    for n in range(2, max_order + 1):
        out.extend(abelian_groups_of_order(n))
    return out


# -- dense arithmetic tables for search kernels -----------------------------


class GroupTable:
    """Element codes 0..|G|-1 in canonical order with dense add/neg tables.

    Codes are mixed-radix: the residues of an element are its digits, the
    last coordinate varying fastest, so code order is the canonical element
    order. The tables are built from the codes, one cyclic factor at a time.

    A subset of the group is an int bitmask over codes (bit c for element
    c). ``translate``, ``minkowski``, ``sumset`` and ``zero_sum_free`` on
    such masks form the subset-sum-support primitive of the atom and
    unique-factorization searches and of the zero-sum predicates;
    ``subset_sums`` lists the sum of every subset of a sequence, for the
    scans that need the subsets themselves.

    The group adds each digit on its own, with no carry between digits, so
    a mask moves by g one nonzero digit at a time: adding digit d at stride
    h with modulus m sends x to x + d*h, or to x - (m-d)*h when that digit
    wraps. ``rotations[g]`` holds one (d*h, hi, (m-d)*h, lo) per nonzero
    digit of g, where hi is the set of codes whose digit there is >= d and
    lo the rest, and the step is ``(mask << d*h) & hi | (mask >> (m-d)*h) &
    lo``. All of it is built in the constructor; nothing is built on use.
    """

    __slots__ = ("group", "n", "elements", "code", "add", "neg", "order", "rotations")

    def __init__(self, group: FiniteAbelianGroup):
        self.group = group
        self.elements: tuple[Element, ...] = tuple(group.elements())
        self.n = len(self.elements)
        self.code: dict[Element, int] = {g: i for i, g in enumerate(self.elements)}
        # Tables of the trivial group, then C_m + H for each modulus m from
        # the last: code r*h + c stands for (r, c) with c a code of H.
        add: list[tuple[int, ...]] = [(0,)]
        neg = [0]
        order = [1]
        rotations: list[tuple[tuple[int, int, int, int], ...]] = [()]
        h = 1
        for m in reversed(group.invariant_factors):
            blocks = [[[r * h + x for x in row] for row in add] for r in range(m)]
            add = []
            for r in range(m):
                for c in range(h):
                    row: list[int] = []
                    for q in range(r, r + m):
                        row += blocks[q % m][c]
                    add.append(tuple(row))
            neg = [(-r) % m * h + x for r in range(m) for x in neg]
            order = [lcm(m // gcd(m, r), o) for r in range(m) for o in order]
            # A mask of H times spread is that mask at every digit r.
            spread = sum(1 << r * h for r in range(m))
            full = (1 << m * h) - 1
            lifted = [
                tuple((up, hi * spread, down, lo * spread) for up, hi, down, lo in rot)
                for rot in rotations
            ]
            digit = [()] + [
                ((r * h, full >> r * h << r * h, (m - r) * h, (1 << r * h) - 1),)
                for r in range(1, m)
            ]
            rotations = [digit[r] + rot for r in range(m) for rot in lifted]
            h *= m
        self.add = tuple(add)
        self.neg = tuple(neg)
        self.order = tuple(order)
        self.rotations = tuple(rotations)

    def encode(self, g: Element) -> int:
        return self.code[g]

    def decode(self, c: int) -> Element:
        return self.elements[c]

    def translate(self, mask: int, g: int) -> int:
        """The set mask + g."""
        for up, hi, down, lo in self.rotations[g]:
            mask = (mask << up) & hi | (mask >> down) & lo
        return mask

    def minkowski(self, mask: int, codes: Iterable[int]) -> int:
        """The Minkowski sum of mask with the subset sums of codes."""
        rotations = self.rotations
        for g in codes:
            m = mask
            for up, hi, down, lo in rotations[g]:
                m = (m << up) & hi | (m >> down) & lo
            mask |= m
        return mask

    def sumset(self, codes: Iterable[int]) -> int:
        """Subset sums of the sequence codes, the empty sum 0 included."""
        return self.minkowski(1, codes)

    def zero_sum_free(self, codes: Iterable[int]) -> bool:
        """Whether no nonempty subsequence of codes sums to 0.

        A zero-sum subsequence T exists exactly when, for the last s_i in T,
        -s_i is a subset sum of s_1..s_{i-1}; so one pass over the prefix
        supports decides it, rank(G) shift-and-mask steps per element.
        """
        neg, translate = self.neg, self.translate
        supp = 1
        for g in codes:
            if supp >> neg[g] & 1:
                return False
            supp |= translate(supp, g)
        return True

    def subset_sums(self, codes: Sequence[int]) -> bytes | list[int]:
        """The code of the sum of every subset of codes, indexed by mask.

        Entry m is the sum of codes[i] over the bits i set in m. The table
        doubles once per element: the sums of the masks with bit i set are
        the sums so far translated by codes[i]. When |G| <= 256 the table
        is a bytes object and each doubling one ``bytes.translate``; for
        larger groups it is a list.
        """
        add = self.add
        if self.n <= 256:
            pad = bytes(256 - self.n)
            sums = b"\0"
            for g in codes:
                sums += sums.translate(bytes(add[g]) + pad)
            return sums
        out = [0]
        for g in codes:
            row = add[g]
            out += [row[s] for s in out]
        return out


def masks_with_sum(sums: bytes | list[int], s: int) -> list[int]:
    """Ascending masks whose entry in a ``subset_sums`` table is s."""
    if isinstance(sums, bytes):
        out = []
        find = sums.find
        i = find(s)
        while i >= 0:
            out.append(i)
            i = find(s, i + 1)
        return out
    return [m for m, v in enumerate(sums) if v == s]


@lru_cache(maxsize=None)
def group_table(group: FiniteAbelianGroup) -> GroupTable:
    return GroupTable(group)
