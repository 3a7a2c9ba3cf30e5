"""The element-by-element folds that ``multisets.sigma`` and
``Homomorphism.__call__`` replaced.

The library sums each coordinate of a multiset once, and maps an element by
one dot product per target coordinate; these folds add one element, or one
scaled generator image, at a time with ``group.add``. The tests require both
forms to agree.
"""

from __future__ import annotations

from typing import Iterable

from zerosums.groups import Element, FiniteAbelianGroup, Homomorphism


def sigma(group: FiniteAbelianGroup, elements: Iterable[Element]) -> Element:
    out = group.zero()
    for el in elements:
        out = group.add(out, el)
    return out


def apply(phi: Homomorphism, g: Element) -> Element:
    target = phi.target
    out = target.zero()
    for r, img in zip(g, phi.generator_images):
        out = target.add(out, target.scale(r, img))
    return out
