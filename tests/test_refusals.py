"""Malformed inputs are refused with one exact message per check."""

import re

import pytest

from zscomb import (
    GroupSpec,
    complement_bijection,
    dyck_to_subset,
    gaps_to_word,
    is_dyck,
    necklace_to_sequence,
    pair_bijection,
    reciprocity_bijection,
    translate_complement_bijection,
    verify_gcp,
)

C2, C3, C4, C5 = (GroupSpec((n,)) for n in (2, 3, 4, 5))

# (call, exact message)
CASES = {
    "is_dyck-east-steps": (lambda: is_dyck(3, 2, "00011"), "step word must contain 3 east steps"),
    "is_dyck-gap-length": (lambda: is_dyck(3, 2, (1, 1)), "gap vector must have 3 entries"),
    "is_dyck-negative-gap": (
        lambda: is_dyck(3, 2, (3, -1, 0)), "gaps must be >= 0, got (3, -1, 0)"),
    "is_dyck-gap-total": (lambda: is_dyck(3, 2, (1, 0, 0)), "gaps must total 2, got 1"),
    "gaps_to_word-negative-gap": (lambda: gaps_to_word((1, -1)), "gaps must be >= 0, got (1, -1)"),
    "dyck_to_subset-length": (
        lambda: dyck_to_subset(C5, "0011"), "step word length 4 must equal group order 5"),
    "dyck_to_subset-not-dyck": (
        lambda: dyck_to_subset(C5, "10100"), "'10100' is not a valid (2, 3)-Dyck step word"),
    "necklace-colours": (
        lambda: necklace_to_sequence(C3, "RGB"), "expected a two-color R/B word, got 'RGB'"),
    "necklace-red-count": (
        lambda: necklace_to_sequence(C3, "RRB"), "2 red beads do not match group order 3"),
    "necklace-not-coprime": (
        lambda: necklace_to_sequence(C2, "RRBB"), "bead counts (2, 2) are not coprime"),
    "reciprocity-not-coprime": (
        lambda: reciprocity_bijection(C2, C4, (0, 0)), "group orders (2, 4) are not coprime"),
    "reciprocity-mass": (
        lambda: reciprocity_bijection(C3, C2, (1, 1, 1)),
        "mass 3 must equal the other group's order 2"),
    "complement-not-coprime": (
        lambda: complement_bijection(C4, (0, 1, 0, 1)),
        "subset size 2 is not coprime to group order 4"),
    "translate-complement-size": (
        lambda: translate_complement_bijection(C4, (0, 0, 0, 0)),
        "subset size 0 must be in [1, 3]"),
    "translate-complement-no-solution": (
        lambda: translate_complement_bijection(GroupSpec((6,)), (0, 0, 1, 0, 1, 0)),
        "k*x = e has no solution for k = 2 in group 6"),
    "pair-other-order": (
        lambda: pair_bijection(C3, C5, (2, 0, 0), (0, 1, 1)),
        "other group's order 5 must equal p + m = 4"),
    "label-length": (lambda: GroupSpec((2, 4)).label((1,)), "expected 2 coordinates, got 1"),
    "label-range": (lambda: GroupSpec((2, 4)).label((1, 4)), "coordinate 4 out of range mod 4"),
    "verify_gcp-no-primes": (
        lambda: verify_gcp(16, ()), "need at least one prime and no repeats, got ()"),
    "verify_gcp-repeated-prime": (
        lambda: verify_gcp(2, (2, 2)), "need at least one prime and no repeats, got (2, 2)"),
}


@pytest.mark.parametrize("call, reason", CASES.values(), ids=CASES)
def test_refused_with_its_message(call, reason):
    with pytest.raises(ValueError, match=f"^{re.escape(reason)}$"):
        call()

