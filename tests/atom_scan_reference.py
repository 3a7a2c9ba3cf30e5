"""Reference scans for D, K and k over a finished atom catalog.

The direct forms of the maxima that the enumeration walk keeps: D and K
take the largest weight sum over the catalog's atoms, the least atom
winning ties; k takes it over every atom less one element, as every
zero-sum-free sequence is an atom less one element. The tests require
both to agree on value and witness codes.
"""

from __future__ import annotations

from zerosums.atoms import AtomCatalog, code_weights


def best_atom(catalog: AtomCatalog, measure: str) -> tuple[int, tuple[int, ...]]:
    """The largest weight sum of the measure over the atoms, and the least
    atom that attains it; (0, ()) for an empty catalog."""
    weight = code_weights(catalog.group, measure)[0]
    values = [sum([weight[c] for c in atom]) for atom in catalog.codes]
    best = max(values, default=0)
    witness = min(
        (atom for atom, v in zip(catalog.codes, values) if v == best), default=()
    )
    return best, witness


def max_zero_sum_free_cross(catalog: AtomCatalog) -> tuple[int, tuple[int, ...]]:
    """The largest cross weight of an atom less one element, and the least
    such sequence that attains it; (0, ()) for an empty catalog."""
    weight = code_weights(catalog.group, "cross")[0]
    best = 0
    best_witness: tuple[int, ...] = ()
    for atom in catalog.codes:
        total = sum([weight[c] for c in atom])
        last = 0  # codes are ascending and nonzero: skip repeated ones
        for i, c in enumerate(atom):
            if c == last:
                continue
            last = c
            value = total - weight[c]
            if value < best:
                continue
            witness = atom[:i] + atom[i + 1 :]
            if value > best or witness < best_witness:
                best = value
                best_witness = witness
    return best, best_witness
