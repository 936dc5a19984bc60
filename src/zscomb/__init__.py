"""Exact zero-sum combinatorics over finite abelian groups.

Counts and enumerates multisets and subsets with a prescribed sum, maps
them to rational Dyck paths and necklaces through cycle-lemma rotations,
expands bigraded coefficient tables, and verifies every closed form
against brute-force enumeration.  All arithmetic is exact integer
arithmetic; non-integral intermediate results raise instead of rounding.
"""

from .analysis import (
    all_abelian_groups,
    cnr_reciprocity_check,
    gcp_predicate,
    reciprocity_scan,
    subset_reci_predicate,
    sum_all_elements_is_zero,
    v2,
    verify_gcp,
    verify_subset_reciprocity,
)
from .brute import (
    default_limit,
    enum_pairs,
    enum_sequences,
    enum_subsets,
    sequences_by_sum,
    subsets_by_sum,
)
from .counting import (
    count_pairs_coefficient,
    count_sequences,
    count_subsets,
    exact_div,
    multinomial,
    pair_dimension,
    rational_catalan,
)
from .dyck import (
    dyck_to_sequence,
    dyck_to_subset,
    enum_dyck,
    gaps_to_word,
    is_dyck,
    sequence_to_dyck,
    subset_to_dyck,
    word_to_gaps,
)
from .errors import EnumerationLimitError, ExactDivisionError, InvariantError
from .groups import (
    GroupSpec,
    character_sum,
    count_elements_of_order,
    divisors,
    factorize,
    is_prime,
    mobius,
    normalize_group,
)
from .necklaces import (
    canonical_rotation,
    complement_bijection,
    necklace_to_sequence,
    pair_bijection,
    reciprocity_bijection,
    sequence_to_necklace,
    translate_complement_bijection,
)
from .poincare import CoeffTable, poincare_table, series_cross_check
from .zerosum import (
    cyclic_shift,
    digit_totals,
    is_zero_sum,
    is_zero_sum_by_congruences,
    rotations_with_sum,
    sequence_sum,
    target_sum_shift,
    translate,
    weighted_label_sum,
    zero_sum_shift,
)

__version__ = "0.1.0"

__all__ = [
    "CoeffTable",
    "EnumerationLimitError",
    "ExactDivisionError",
    "GroupSpec",
    "InvariantError",
    "all_abelian_groups",
    "canonical_rotation",
    "character_sum",
    "cnr_reciprocity_check",
    "complement_bijection",
    "count_elements_of_order",
    "count_pairs_coefficient",
    "count_sequences",
    "count_subsets",
    "cyclic_shift",
    "default_limit",
    "digit_totals",
    "divisors",
    "dyck_to_sequence",
    "dyck_to_subset",
    "enum_dyck",
    "enum_pairs",
    "enum_sequences",
    "enum_subsets",
    "exact_div",
    "factorize",
    "gaps_to_word",
    "gcp_predicate",
    "is_dyck",
    "is_prime",
    "is_zero_sum",
    "is_zero_sum_by_congruences",
    "mobius",
    "multinomial",
    "necklace_to_sequence",
    "normalize_group",
    "pair_bijection",
    "pair_dimension",
    "poincare_table",
    "rational_catalan",
    "reciprocity_bijection",
    "reciprocity_scan",
    "rotations_with_sum",
    "sequence_sum",
    "sequence_to_dyck",
    "sequence_to_necklace",
    "sequences_by_sum",
    "subset_reci_predicate",
    "subset_to_dyck",
    "subsets_by_sum",
    "sum_all_elements_is_zero",
    "target_sum_shift",
    "translate",
    "translate_complement_bijection",
    "v2",
    "verify_gcp",
    "verify_subset_reciprocity",
    "weighted_label_sum",
    "word_to_gaps",
    "zero_sum_shift",
]
