"""Runtime-tunable caps and switches.

Values are module level so tests and the CLI can adjust them in place.
"""

# Index labels of one multiset must fit a fixed-width bitmask.
MAX_MULTISET_SIZE = 40

# Subset listing (zero_sum_subsets and the factorization counts) reads the
# full 2^l subset-sum table up to this size and meets in the middle of two
# 2^(l/2) tables beyond it; is_ufim switches to the multiplicity-vector
# closure test beyond it. is_zero_sum_free and is_minimal_zero_sum read
# supports at every size and do not depend on it.
DIRECT_SCAN_LIMIT = 20

# Listed zero-sum subsets per call before a resource-limit error.
SUBSET_OUTPUT_CAP = 2_000_000

# Multiplicity vectors enumerated per is_ufim call past DIRECT_SCAN_LIMIT
# (the closure test) before a resource-limit error.
VECTOR_CAP = 1_000_000

# Atoms per catalog before a resource-limit error.
ATOM_ENTRY_CAP = 500_000

# Atom-based invariants (D, K, k) reject groups above this order.
ATOM_ORDER_CAP = 64

# Exact K1 / N1 searches reject groups above this order.
SEARCH_ORDER_CAP = 16

# When on, unique-factorization tests run both algorithms and compare.
VERIFICATION_MODE = False
