"""Byte-level goldens for verifier reports and coefficient tables.

Each digest is the SHA-256 of a report's canonical JSON (sorted keys, no
whitespace).  They pin every count, predicate and row order of the
verifiers and tables, so a change to how the closed forms are evaluated
must reproduce the reports byte for byte.
"""

import hashlib
import json

import pytest

from zscomb import GroupSpec, poincare_table, reciprocity_scan, verify_gcp, verify_subset_reciprocity


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def test_verifier_report_digests():
    assert digest(verify_subset_reciprocity(64)) == (
        "cb207fef1b98e8930d8d09de2c715fda84efb429f3106e4f40efdf7ed3865f03"
    )
    assert digest(reciprocity_scan(24)) == (
        "be69eec55ad1a15d38df7b2cfc64bbebbc864c29d385693f94e918537ad199ed"
    )
    assert digest(verify_gcp(256, (2, 3, 5, 7))) == (
        "0b40b56960757ad22fd8d394e83299a316b86f340759e440634c516463ce366e"
    )


def test_verifier_report_digests_at_benchmark_bounds():
    assert digest(verify_subset_reciprocity(256)) == (
        "58915de4a79e79c2979a9561a3a12d8d717ad153cdedd95c3da5e11a5d68f49f"
    )
    assert digest(reciprocity_scan(120)) == (
        "8d1de6e81a6b57d13fe6da9593b647382b33b18b274a1b8e6d1e20795d8ab93e"
    )
    assert digest(verify_gcp(2048, (5, 7, 3, 2))) == (
        "675abf236f35641add52461e949b15d3536d4e1c6d1da4ccf16753bc79499667"
    )


@pytest.mark.parametrize(
    "factors, target, side, expected",
    [
        ((12,), 5, 10, "50a5bd9bdb69eef027c55038bb93e4088475269ce86bf372b5dfa0474b2892c7"),
        ((9,), 4, 12, "035aca13d2b716537d4c565a60ab724d64444aa98e1cb59953d1ca81c9893b8a"),
        ((2, 6), 7, 10, "78c2c5600811831fbbbc9bc2b0d62a9c9c2d98b56c48e8b2c9a9b89c1e8bc13f"),
        ((4, 4), 9, 9, "e928f79f5bc8f75a434d29ba9feb14c43ff6c2793ec402d36a4bd5ecc18c395c"),
        ((2, 2, 4), 11, 8, "74752ccbcc9ed96135c3daad3b2908fe435ac0aa323279590c148fd0977beb73"),
        ((2, 2, 6), 17, 8, "7df0faa81132fdbb4f47be05f69187a0cd81c86ff659e6dbe4bb8683e1f102ec"),
    ],
)
def test_table_digests(factors, target, side, expected):
    table = poincare_table(GroupSpec(factors), target, side, side)
    assert digest(table.to_json_dict()) == expected
