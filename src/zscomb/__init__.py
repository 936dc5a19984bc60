"""Exact zero-sum combinatorics over finite abelian groups.

Counts and enumerates multisets and subsets with a prescribed sum, maps
them to rational Dyck paths and necklaces through cycle-lemma rotations,
expands bigraded coefficient tables, and verifies every closed form
against brute-force enumeration.  All arithmetic is exact integer
arithmetic; non-integral intermediate results raise instead of rounding.

Importing the package loads none of its modules: each public name (and
each module, as an attribute) is imported on first use (PEP 562), so a
program pays only for the modules it reaches.
"""

from importlib import import_module

# Every public name, by the module that defines it.
_HOME = {
    name: module
    for module, names in (
        ("analysis", "all_abelian_groups cnr_reciprocity_check gcp_predicate reciprocity_scan"
         " subset_reci_predicate v2 verify_gcp verify_subset_reciprocity"),
        ("brute", "enum_pairs enum_sequences enum_subsets sequences_by_sum subsets_by_sum"),
        ("counting", "count_pairs_coefficient count_sequences count_subsets exact_div exact_div_row"
         " multinomial pair_count_table pair_dimension rational_catalan"),
        ("dyck", "dyck_to_sequence dyck_to_subset enum_dyck gaps_to_word is_dyck sequence_to_dyck"
         " subset_to_dyck word_to_gaps"),
        ("errors", "EnumerationLimitError ExactDivisionError InvariantError default_limit"),
        ("groups", "GroupSpec character_sum count_elements_of_order divisors factorize is_prime"
         " mobius normalize_group"),
        ("necklaces", "canonical_rotation complement_bijection necklace_to_sequence pair_bijection"
         " reciprocity_bijection sequence_to_necklace translate_complement_bijection"),
        ("poincare", "CoeffTable poincare_table series_cross_check"),
        ("zerosum", "cyclic_shift is_zero_sum is_zero_sum_by_congruences rotations_with_sum"
         " sequence_sum target_sum_shift translate zero_sum_shift"),
    )
    for name in names.split()
}

__version__ = "0.1.0"

# `series_cross_check` is importable by name but has never been part of `*`.
__all__ = sorted(_HOME.keys() - {"series_cross_check"})


def __getattr__(name):
    if name in _HOME.values():
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *_HOME, *_HOME.values()})
