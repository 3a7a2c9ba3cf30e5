"""The peel that ``factorization._peel`` replaced, kept as a reference.

It asks whether s_i closes a block by looking -s_i up in the support of the
zero-sum-free prefix (``neg`` of every element read); the library asks
whether 0 is in that support translated by s_i, the same question, and
reads ``neg`` only for the elements of a block it closes. The tests require
both to peel the same blocks and agree on uniqueness.
"""

from __future__ import annotations

from typing import Sequence


def peel(codes: Sequence[int], table) -> tuple[list[list[int]], bool]:
    """One factorization of the zero-sum sequence codes into minimal blocks
    (ascending positions, in peel order), and whether it is the only one."""
    neg, translate = table.neg, table.translate
    rest = list(range(len(codes)))  # positions not in a block yet
    supps = [1]  # supps[k]: subset sums of the codes at rest[:k]
    blocks: list[list[int]] = []
    i = 0
    while i < len(rest):
        supp, c = supps[i], codes[rest[i]]
        t = neg[c]
        if not supp >> t & 1:
            supps.append(supp | translate(supp, c))
            i += 1
            continue
        picked = [i]
        for k in range(i - 1, -1, -1):
            if not supps[k] >> t & 1:
                picked.append(k)
                t = translate(1 << t, neg[codes[rest[k]]]).bit_length() - 1
        blocks.append([rest[k] for k in reversed(picked)])
        for k in picked:
            del rest[k]
        i = picked[-1]
        del supps[i + 1 :]
    supp, last = 1, len(blocks) - 1
    for j, block in enumerate(blocks):
        block_codes = [codes[p] for p in block]
        if j and supp & table.sumset(block_codes) & ~1:
            return blocks, False
        if j < last:
            supp = table.minkowski(supp, block_codes)
    return blocks, True
