"""Runtime-tunable caps.

Values are module level so tests can adjust them in place; the library
reads them and never sets them.
"""

# Largest multiset built by disjoint_union or by IndexedMultiset.from_elements
# without max_size, and largest one whose zero-sum subsets are listed.
MAX_MULTISET_SIZE = 40

# Nothing in the library reads this field; it stays because the benchmark
# pins the full config and its worker refuses to start on a missing field.
DIRECT_SCAN_LIMIT = 20

# Listed zero-sum subsets per call before a resource-limit error.
SUBSET_OUTPUT_CAP = 2_000_000

# Multiplicity vectors enumerated per call of the test suite's reference
# unique-factorization test before a resource-limit error. The library no
# longer reads it; it stays because the benchmark pins the full config and
# its worker refuses to start on a missing field.
VECTOR_CAP = 1_000_000

# Atoms per catalog before a resource-limit error.
ATOM_ENTRY_CAP = 500_000

# Atom-based invariants (D, K, k) reject groups above this order.
ATOM_ORDER_CAP = 64

# Exact K1 / N1 searches reject groups above this order.
SEARCH_ORDER_CAP = 16

# Nothing in the library reads this field; it stays because the benchmark
# pins the full config and its worker refuses to start on a missing field.
VERIFICATION_MODE = False
