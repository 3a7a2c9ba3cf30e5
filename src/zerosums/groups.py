"""Finite abelian groups in invariant-factor coordinates.

A group is stored by its invariant factors n1 | n2 | ... | nr alone; its
prime-power decomposition is computed from them on first use. Elements are
residue tuples against the invariant-factor moduli; the lexicographic order on
residue tuples is the canonical element order used everywhere downstream.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd, lcm, prod
from typing import Any, Callable, Iterable, Iterator, Sequence

from .errors import (
    DomainError,
    IllDefinedHomomorphismError,
    InvalidModulusError,
)

__all__ = [
    "Element",
    "FiniteAbelianGroup",
    "Homomorphism",
    "abelian_groups_of_order",
    "element_order",
    "kernel_elements",
    "kernel_structure",
    "make_hom",
    "multiplication_hom",
    "normalize_group",
    "prime_stats",
    "projection_hom",
    "quotient_structure",
    "reduction_hom",
    "trivial_group",
]

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


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """A finite abelian group by its invariant factors n1 | n2 | ... | nr.

    The empty invariant-factor tuple represents the trivial group.
    """

    invariant_factors: tuple[int, ...]

    def __post_init__(self) -> None:
        fs = self.invariant_factors
        if any(type(n) is not int or n < 2 for n in fs):
            raise InvalidModulusError(f"invariant factors must be ints > 1, got {fs}")
        for a, b in zip(fs, fs[1:]):
            if b % a:
                raise InvalidModulusError(
                    f"invariant factors must form a divisibility chain, got {fs}"
                )

    @cached_property
    def primary_components(self) -> tuple[tuple[int, int], ...]:
        """The prime powers (p, e) of the invariant factors, sorted."""
        return tuple(
            sorted(pe for n in self.invariant_factors for pe in factorize(n).items())
        )

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

    def contains(self, g: object) -> bool:
        """Whether g is a sequence of ``rank`` exact ints (no bool), each in
        [0, n_i): the one membership test of the library."""
        try:
            return len(g) == self.rank and all(
                type(r) is int and 0 <= r < n for r, n in zip(g, self.invariant_factors)
            )
        except TypeError:
            return False

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
    exps: dict[int, list[int]] = {}
    for m in moduli:
        if type(m) is not int or m < 2:
            raise InvalidModulusError(f"modulus must be an int >= 2, got {m!r}")
        for p, e in factorize(m).items():
            exps.setdefault(p, []).append(e)
    # The i-th largest exponent of each prime goes into the i-th largest factor.
    for es in exps.values():
        es.sort(reverse=True)
    width = max(map(len, exps.values()), default=0)
    factors = [
        prod(p ** es[i] for p, es in exps.items() if i < len(es))
        for i in range(width)
    ]
    return FiniteAbelianGroup(tuple(reversed(factors)))


def trivial_group() -> FiniteAbelianGroup:
    return FiniteAbelianGroup(())


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
        return self._apply(g)

    @cached_property
    def _columns(self) -> tuple[tuple[int, ...], ...]:
        """Per target coordinate, that residue of every generator image."""
        images = self.generator_images
        return tuple(tuple(img[i] for img in images) for i in range(self.target.rank))

    def _apply(self, g: Element) -> Element:
        """The image of g, one dot product per target coordinate."""
        return tuple(
            sum(map(operator.mul, g, col)) % m
            for col, m in zip(self._columns, self.target.invariant_factors)
        )


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
    target, gen_images = product_presentation([d for d in moduli if d > 1])
    kept = iter(gen_images)
    images = tuple(next(kept) if d > 1 else target.zero() for d in moduli)
    return Homomorphism(group, target, images)


def product_presentation(
    moduli: Sequence[int],
) -> tuple[FiniteAbelianGroup, tuple[Element, ...]]:
    """Normalized form of C_{m1} + ... + C_{mk} with an embedding per factor.

    Returns the canonical group N together with, for each input modulus, the
    image in N of that factor's generator; the combined map is an isomorphism.
    """
    group = normalize_group(moduli)
    # The coordinates of N holding each prime power (p, e), ascending; each
    # prime power of an input modulus takes the first one still free.
    free: dict[tuple[int, int], list[int]] = {}
    for j, n in enumerate(group.invariant_factors):
        for pe in factorize(n).items():
            free.setdefault(pe, []).append(j)
    images = []
    for m in moduli:
        coords = [0] * group.rank
        for p, a in factorize(m).items():
            j = free[p, a].pop(0)
            n = group.invariant_factors[j]
            # Two primes of one modulus may share a coordinate (C_6 -> C_6).
            coords[j] = (coords[j] + n // p**a) % n
        images.append(tuple(coords))
    return group, tuple(images)


# -- kernels and structure ----------------------------------------------------


def kernel_elements(phi: Homomorphism) -> list[Element]:
    """All source elements mapping to zero, in canonical order."""
    zero = phi.target.zero()
    return [g for g in phi.source.elements() if phi._apply(g) == zero]


# No caller in the library; perfbench/inproc.py clears its cache before every query.
@lru_cache(maxsize=None)
def order_statistics(group: FiniteAbelianGroup) -> tuple[int, ...]:
    return tuple(sorted(group.element_order(g) for g in group.elements()))


def _diagonal(matrix: Sequence[Sequence[int]]) -> list[int]:
    """The nonzero |d| of a diagonal form of the integer matrix with these
    rows, so Z^width modulo the rows is the sum of the Z/d and a free part.
    Euclid on an entry of least absolute value, by unimodular row and column
    operations (Cohen 1993, section 2.4), until its row and column are clear;
    ``normalize_group`` takes the d in any order."""
    rows = [list(row) for row in matrix]
    out = []
    while any(map(any, rows)):
        _, i, j = min(
            (abs(v), i, j) for i, row in enumerate(rows) for j, v in enumerate(row) if v
        )
        top, pivot = rows[i], rows[i][j]
        for k, r in enumerate(rows):
            if k != i:
                rows[k] = [x - r[j] // pivot * y for x, y in zip(r, top)]
        qs = [0 if k == j else v // pivot for k, v in enumerate(top)]
        rows = [[x - q * r[j] for x, q in zip(r, qs)] for r in rows]
        if sum(map(bool, rows[i])) == sum(bool(r[j]) for r in rows) == 1:
            out.append(abs(pivot))
            del rows[i]
            for r in rows:
                del r[j]
    return out


def kernel_structure(phi: Homomorphism) -> FiniteAbelianGroup:
    """Iso class of the kernel. With n_i and m_j the invariant factors of the
    source and target and a_ij the residues of the generator images, ker phi
    is dual to the cokernel of the dual map: Z^r modulo n_i·e_i and, per
    target coordinate j, the vector of n_i·a_ij / m_j over i."""
    ns = phi.source.invariant_factors
    cols = zip(phi._columns, phi.target.invariant_factors)
    # n_i·a_i is zero in the target, so m_j divides n_i·a_ij.
    relations = [[n * a // m for n, a in zip(ns, c)] for c, m in cols]
    relations += [[n * (k == i) for k in range(len(ns))] for i, n in enumerate(ns)]
    return normalize_group([d for d in _diagonal(relations) if d > 1])


def quotient_structure(phi: Homomorphism) -> FiniteAbelianGroup:
    """Iso class of source/kernel, that is of the image. x_j -> x_j·e/m_j
    embeds the target in (Z/e)^s, e its exponent, so the image is Z^r modulo
    {x : Bx = 0 mod e}, B_ji = a_ij·e/m_j. A diagonal entry d of B gives
    Z/(e/gcd(e, d)), and the coordinates past its rank give Z/1."""
    e = phi.target.exponent
    cols = zip(phi._columns, phi.target.invariant_factors)
    b = [[a * e // m for a in c] for c, m in cols]
    moduli = [e // gcd(e, d) for d in _diagonal(b)]
    return normalize_group([m for m in moduli if m > 1])


def _partitions(k: int, largest: int | None = None) -> Iterator[tuple[int, ...]]:
    """Non-increasing partitions of k into parts of at most largest (k)."""
    if k == 0:
        yield ()
        return
    for first in range(min(k, largest or k), 0, -1):
        for rest in _partitions(k - first, first):
            yield (first,) + rest


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


# -- arithmetic tables for search kernels --------------------------------------


class _PerCode(dict):
    """A table over the n codes of group whose entry for a code is computed
    by ``fill(code)`` on its first lookup, and kept; IndexError for a non-code."""

    __slots__ = ("fill", "n", "group")

    def __init__(self, fill: Callable[[int], Any], n: int, group: FiniteAbelianGroup):
        self.fill = fill  # the dict starts empty; dict.__init__ adds nothing
        self.n = n
        self.group = group

    def __missing__(self, code: int) -> Any:
        if not 0 <= code < self.n:
            raise IndexError(f"{code} is not an element code of {self.group}")
        value = self[code] = self.fill(code)
        return value


def _spread(n: int, width: int) -> int:
    """The n-bit mask with a bit at every multiple of width, which divides n.

    Doubling the copies touches O(n) bits in all. The closed form
    ``((1 << n) - 1) // ((1 << width) - 1)`` divides by a width-bit number:
    0.55 s for n = 2**20 and width = 2**19 (2-core VM, Python 3.11.7).
    """
    spread = 1
    while width < n:
        spread |= spread << width
        width *= 2
    return spread & ((1 << n) - 1)


class GroupTable:
    """Element codes 0..|G|-1 in canonical order, with per-code tables.

    Codes are mixed-radix: the residues of an element are its digits, the
    last coordinate varying fastest, so code order is the canonical element
    order, and ``encode``/``decode`` are that arithmetic, with no membership
    check: an ``IndexedMultiset`` checks its elements when made. The constructor
    keeps only ``coords``, one (stride, modulus, spread) per coordinate, in
    O(|G|·rank) bits. ``neg``, ``order`` and ``rotations`` compute the entry
    of a code on its first lookup and keep it, so a call that reads l codes
    costs O(l·rank) steps whatever the order of the group, and the entries
    are dropped with the table.

    A subset of the group is an int bitmask over codes (bit c for element
    c). ``translate``, ``minkowski``, ``sumset`` and ``zero_sum_free`` on
    such masks are the one addition primitive: the atom and
    unique-factorization searches, the zero-sum predicates and the subset
    listings (``factorization.masks_with_sum``) all read subset-sum supports,
    and the sum x + g of two codes is ``translate(1 << x, g)``.

    The group adds each digit on its own, with no carry between digits, so
    adding g moves codes one nonzero digit at a time: adding digit d at
    stride h with modulus m sends x to x + d*h, or to x - (m-d)*h when that
    digit wraps. ``rotations[g]`` holds one (d*h, hi, (m-d)*h, lo) per
    nonzero digit of g, where hi is the set of codes whose digit there is
    >= d and lo the rest, and a mask takes the step ``(mask << d*h) & hi |
    (mask >> (m-d)*h) & lo``. The two masks span all |G| codes; they are
    made once per coordinate and digit value that a lookup meets, and shared
    by every code with that digit.
    """

    __slots__ = ("group", "n", "coords", "neg", "order", "rotations")

    def __init__(self, group: FiniteAbelianGroup):
        self.group = group
        n = self.n = group.order
        # Coordinate j has stride h, the product of the later moduli, so its
        # digit is constant on runs of h codes and cycles in blocks of m*h;
        # a mask of one block times spread is that mask in every block.
        parts = []
        h = 1
        for m in reversed(group.invariant_factors):
            parts.append((h, m, _spread(n, m * h)))
            h *= m
        self.coords = coords = tuple(reversed(parts))
        everything = (1 << n) - 1
        # The step of digit d at stride h, by d*h: the d*h of the digits of
        # one coordinate lie in [h, m*h), so d*h names the pair.
        steps: dict[int, tuple[int, int, int, int]] = {}

        # The fills close over locals, not over self, so a dropped table is
        # freed at once, with no reference cycle left for the collector.

        def neg(c: int) -> int:
            out = 0
            for h, m, _ in coords:
                out += -(c // h) % m * h
            return out

        def order(c: int) -> int:
            return lcm(*[m // gcd(m, c // h % m) for h, m, _ in coords])

        def rotations(c: int) -> tuple[tuple[int, int, int, int], ...]:
            out = []
            for h, m, spread in coords:
                up = c // h % m * h
                if up:
                    step = steps.get(up)
                    if step is None:
                        lo = (spread << up) - spread
                        step = steps[up] = (up, everything ^ lo, m * h - up, lo)
                    out.append(step)
            return tuple(out)

        self.neg = _PerCode(neg, n, group)
        self.order = _PerCode(order, n, group)
        self.rotations = _PerCode(rotations, n, group)

    def fill_all(self) -> None:
        """Replace ``neg``, ``order`` and ``rotations`` by tuples over every
        code, for callers that read every code many times (atom enumeration,
        the unique-factorization search): a tuple indexes in about half the
        time of a memo.

        A filled table reads codes 0..n-1 without a check: -1 reads the last
        entry, where the memo raises IndexError. Its callers pass only codes
        of elements, under the precondition of ``encode_all``."""
        if isinstance(self.rotations, tuple):
            return
        codes = range(self.n)
        self.neg = tuple([self.neg[c] for c in codes])
        self.order = tuple([self.order[c] for c in codes])
        self.rotations = tuple([self.rotations[c] for c in codes])

    def encode(self, g: Element) -> int:
        """The code of the element g, under the precondition of
        ``encode_all``."""
        return self.encode_all((g,))[0]

    def encode_all(self, elements: Sequence[Element]) -> list[int]:
        """The code of each element, in order, a column of digits at a time.

        Precondition: every entry is an element of the group
        (``FiniteAbelianGroup.contains``), as every entry of an
        ``IndexedMultiset`` is. Nothing is checked; a non-element gets a
        wrong code or an arbitrary error.
        """
        columns = zip(*elements)
        # No columns (the trivial group): every code is 0.
        codes = list(next(columns, [0] * len(elements)))
        for col, m in zip(columns, self.group.invariant_factors[1:]):
            codes = [c * m + r for c, r in zip(codes, col)]
        return codes

    def decode(self, c: int) -> Element:
        if not 0 <= c < self.n:
            raise IndexError(f"{c} is not an element code of {self.group}")
        return tuple([c // h % m for h, m, _ in self.coords])

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
        0 is in supp + s_i, where supp holds the subset sums of
        s_1..s_{i-1}; so one pass over the prefix supports decides it,
        rank(G) shift-and-mask steps per element. supp + s_i is also the
        next support's new part, and supp holds the empty sum 0, so the test
        is the same as -s_i in supp and reads no ``neg`` entry.
        """
        rotations = self.rotations
        supp = 1
        for g in codes:
            m = supp
            for up, hi, down, lo in rotations[g]:
                m = (m << up) & hi | (m >> down) & lo
            if m & 1:
                return False
            supp |= m
        return True


@lru_cache(maxsize=None)
def group_table(group: FiniteAbelianGroup) -> GroupTable:
    return GroupTable(group)
