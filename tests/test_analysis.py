"""Predicates, verifiers, and the group-pair scan."""

import json
import pickle
from decimal import Decimal
from math import comb, gcd, prod

import pytest

from zscomb import (
    GroupSpec,
    all_abelian_groups,
    cnr_reciprocity_check,
    count_sequences,
    gcp_predicate,
    reciprocity_scan,
    sequence_sum,
    subset_reci_predicate,
    v2,
    verify_gcp,
    verify_subset_reciprocity,
)
from zscomb import analysis, brute
from zscomb.analysis import ORACLE_BUDGET
from zscomb.cli import run
from zscomb.groups import factorize


def test_v2():
    assert v2(1) == 0
    assert v2(12) == 2
    assert v2(2**10) == 10
    with pytest.raises(ValueError):
        v2(0)


def test_all_abelian_groups():
    assert [g.invariant_factors for g in all_abelian_groups(1)] == [()]
    assert [g.invariant_factors for g in all_abelian_groups(8)] == [
        (2, 2, 2),
        (2, 4),
        (8,),
    ]
    assert [g.invariant_factors for g in all_abelian_groups(12)] == [(2, 6), (12,)]
    assert len(all_abelian_groups(16)) == 5
    assert [g.invariant_factors for g in all_abelian_groups(36)] == [
        (2, 18),
        (3, 12),
        (6, 6),
        (36,),
    ]


def test_all_abelian_groups_distinct_sorted_and_counted():
    # one group per choice of a partition of each prime's exponent: p(e) by
    # the coin recurrence over part sizes, e <= 11 below 2^12
    partitions = [1] + [0] * 11
    for part in range(1, 12):
        for e in range(part, 12):
            partitions[e] += partitions[e - part]
    for order in range(1, 2049):
        chains = [g.invariant_factors for g in all_abelian_groups(order)]
        assert chains == sorted(set(chains)), order
        assert len(chains) == prod(partitions[e] for _, e in factorize(order)), order
        assert all(prod(c) == order for c in chains), order


def test_all_abelian_groups_refuses_what_factorize_refuses():
    for bad, reason in (
        (0, "cannot factorize 0"),
        (-1, "cannot factorize -1"),
        (2.5, "n must be an integer, got 2.5"),
        (1.0, "n must be an integer, got 1.0"),
    ):
        with pytest.raises(ValueError) as err:
            all_abelian_groups(bad)
        assert str(err.value) == reason


def test_groups_up_to_walks_to_the_per_order_listing():
    # one walk over all chains against all_abelian_groups' divisor recursion,
    # which serves a single order of any size
    listed = analysis._groups_up_to(2048)
    assert listed == [g for o in range(1, 2049) for g in all_abelian_groups(o)]
    assert len(listed) == 4426
    assert [str(g) for g in analysis._groups_up_to(8)] == [
        "1", "2", "3", "2,2", "4", "5", "6", "7", "2,2,2", "2,4", "8"]
    for bad, reason in (
        (0, "max_order must be >= 1, got 0"),
        (-1, "max_order must be >= 1, got -1"),
        (2.5, "max_order must be an integer, got 2.5"),
    ):
        with pytest.raises(ValueError) as err:
            analysis._groups_up_to(bad)
        assert str(err.value) == reason


def test_walk_built_groups_equal_checked_groups():
    # both listings build their groups unchecked; each must be the group that
    # the checked constructor makes of its chain, down to pickling
    walked = analysis._groups_up_to(512)
    listed = [g for o in range(1, 513) for g in all_abelian_groups(o)]
    for g in walked + listed:
        checked = GroupSpec(g.invariant_factors)
        assert type(g) is GroupSpec and set(map(type, g.invariant_factors)) <= {int}
        assert (g == checked, hash(g), g.order, g._total, str(g)) == (
            True, hash(checked), checked.order, checked._total, str(checked)), g
        copy = pickle.loads(pickle.dumps(g))
        assert (copy == g, copy.order, copy._total) == (True, g.order, g._total), g


def test_subset_reci_predicate():
    assert subset_reci_predicate(GroupSpec((6,)), 2) is False
    assert subset_reci_predicate(GroupSpec((4,)), 1) is True
    g3 = GroupSpec((3,))
    assert all(subset_reci_predicate(g3, k) for k in (1, 2))
    assert subset_reci_predicate(GroupSpec((2, 2)), 2) is True
    with pytest.raises(ValueError):
        subset_reci_predicate(GroupSpec((6,)), 0)
    with pytest.raises(ValueError):
        subset_reci_predicate(GroupSpec((6,)), 6)


def test_sum_all_elements_is_zero():
    # inverse pairs cancel, so all elements sum to the sum of the 2-torsion:
    # zero unless exactly one invariant factor is even; GroupSpec sets it once
    for order in range(1, 65):
        for g in all_abelian_groups(order):
            fs = g.invariant_factors
            rule = g.order % 2 == 1 or (len(fs) >= 2 and fs[-2] % 2 == 0)
            total = sequence_sum(g, (1,) * g.order)
            assert (total == 0) == rule, g
            assert g._total == total, g


def test_verify_subset_reciprocity():
    report = verify_subset_reciprocity(16)
    assert report["theorem"] == "subset-reci"
    assert report["failures"] == []
    assert report["scanned"] == len(report["rows"]) > 100
    witness = [
        r for r in report["rows"] if r["group"] == "6" and r["k"] == 2
    ]
    assert witness == [
        {"group": "6", "k": 2, "count_k": "2", "count_nk": "3", "predicate": False}
    ]


def test_gcp_predicate():
    assert gcp_predicate(GroupSpec((2, 2)), 2) is False
    assert gcp_predicate(GroupSpec((4,)), 2) is True
    assert gcp_predicate(GroupSpec((2, 4)), 3) is True
    assert gcp_predicate(GroupSpec(()), 5) is True
    with pytest.raises(ValueError):
        gcp_predicate(GroupSpec((4,)), 6)
    with pytest.raises(ValueError, match=r"^p must be an integer, got 2\.0$"):
        gcp_predicate(GroupSpec((3,)), 2.0)


def test_each_predicate_equals_its_unchecked_core():
    # the sweeps call the cores per row; the public gates check, then call them
    primes = (2, 3, 5, 7, 11, 13)
    for order in range(1, 65):
        for g in all_abelian_groups(order):
            for k in range(1, order):
                assert subset_reci_predicate(g, k) is analysis._subset_reci(g, k), (g, k)
            for p in primes:
                assert gcp_predicate(g, p) is analysis._gcp(g, p), (g, p)
    g = GroupSpec((2, 4))
    for bad in (0, 8, -1, 2.0):
        with pytest.raises(ValueError):
            subset_reci_predicate(g, bad)
    for bad in (1, 4, 2.0):
        with pytest.raises(ValueError):
            gcp_predicate(g, bad)


def test_gcp_core_is_the_per_factor_rule():
    # one product test: a prime divides no factor below the top iff it does not divide their product
    for g in analysis._groups_up_to(256):
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
            assert analysis._gcp(g, p) is all(f % p for f in g.invariant_factors[:-1]), (g, p)


def test_verify_gcp():
    report = verify_gcp(16, (2, 3, 5, 7))
    assert report["theorem"] == "gcp"
    assert report["failures"] == []
    counterexample = [
        r for r in report["rows"] if r["group"] == "2,2" and r["p"] == 2
    ]
    assert counterexample == [
        {"group": "2,2", "p": 2, "left": "4", "right": "3", "predicate": False}
    ]
    # an iterator of primes is read once and scans what its list scans
    listed = verify_gcp(8, [2, 3])
    assert listed["scanned"] == 22 and verify_gcp(8, primes=iter([2, 3])) == listed


def test_verify_gcp_checks_primes_before_the_sweep():
    for bad, reason in (
        (0, "p must be prime, got 0"),
        (1, "p must be prime, got 1"),
        (-1, "p must be prime, got -1"),
        (4, "p must be prime, got 4"),
        (2.0, "p must be an integer, got 2.0"),
    ):
        with pytest.raises(ValueError) as err:
            verify_gcp(4, (2, bad))
        assert str(err.value) == reason


def test_sweeps_check_their_bound_first():
    for sweep in (verify_subset_reciprocity, verify_gcp, reciprocity_scan):
        for bad, reason in (
            (0, "max_order must be >= 1, got 0"),
            (-3, "max_order must be >= 1, got -3"),
            (4.5, "max_order must be an integer, got 4.5"),
        ):
            with pytest.raises(ValueError) as err:
                sweep(bad)
            assert str(err.value) == reason, sweep
    assert verify_gcp(1, (2,))["scanned"] == 1  # the trivial group alone


def test_verify_gcp_refuses_bad_primes_before_listing_groups(monkeypatch, capsys):
    def no_listing(max_order):
        raise AssertionError("the groups were listed before the primes were checked")

    monkeypatch.setattr(analysis, "_groups_up_to", no_listing)
    for primes, reason in (
        ((4,), "p must be prime, got 4"),
        ((2, 2), "need at least one prime and no repeats, got (2, 2)"),
    ):
        with pytest.raises(ValueError) as err:
            verify_gcp(100_000, primes)
        assert str(err.value) == reason
    with pytest.raises(ValueError, match="^max_order must be >= 1, got 0$"):
        verify_gcp(0, (4,))  # the bound still comes first
    assert run(["verify", "gcp", "--max-order", "100000", "--primes", "4"]) == 2
    assert json.loads(capsys.readouterr().out) == {
        "error": "ValueError", "reason": "p must be prime, got 4"}


@pytest.mark.parametrize("sweep, fields", [
    (lambda: verify_subset_reciprocity(32), ("count_k", "count_nk")),
    (lambda: reciprocity_scan(16), ("left", "right")),
    (lambda: verify_gcp(32), ("left", "right")),
], ids=["subset-reci", "scan", "gcp"])
def test_a_sweep_writes_each_distinct_count_once_per_call(sweep, fields):
    first, second = sweep(), sweep()
    texts = [[row[field] for row in report["rows"] for field in fields]
             for report in (first, second)]
    for written in texts:
        assert len({id(t) for t in written}) == len(set(written)) < len(written)
    assert second == first
    # no memo outlives its call: the second report wrote its own strings
    # (one-character strings are interned by the interpreter)
    assert not {id(t) for t in texts[0] if len(t) > 1} & {id(t) for t in texts[1]}


def test_cnr_known_value():
    report = cnr_reciprocity_check(2, 6, 2)
    row = report["rows"][0]
    assert row["left"] == row["right"] == "2299"
    assert report["failures"] == []
    assert set(row["oracle_checked"]) == {"2,2", "6,6"}


def test_cnr_oracle_checks_the_sides_within_its_budget():
    # a side is enumerated iff its multisets number at most ORACLE_BUDGET:
    # (2, 7, 2) enumerates 2,2 (C(52, 49) candidates), not 7,7 (C(52, 4))
    assert cnr_reciprocity_check(2, 7, 2)["rows"][0]["oracle_checked"] == ["2,2"]
    for n in range(1, 8):
        for m in range(1, 8):
            for r in (1, 2):
                if gcd(n, m**r) != gcd(n**r, m):
                    continue
                sides = ((n, m**r), (m, n**r))
                within = [str(GroupSpec.parse(",".join([str(f)] * r)))
                          for f, size in sides if comb(f**r + size - 1, size) <= ORACLE_BUDGET]
                report = cnr_reciprocity_check(n, m, r)
                assert report["rows"][0]["oracle_checked"] == within, (n, m, r)
                assert report["failures"] == [], (n, m, r)


def test_cnr_rank_one_is_plain_reciprocity():
    for n, m in ((4, 6), (3, 9), (5, 7), (8, 8)):
        report = cnr_reciprocity_check(n, m, 1)
        assert report["failures"] == []
        assert report["rows"][0]["left"] == str(count_sequences(GroupSpec.parse(str(m)), n, 0))


def test_cnr_coprime_case_carries_catalan():
    report = cnr_reciprocity_check(2, 3, 2)
    row = report["rows"][0]
    assert report["failures"] == []
    assert row["catalan"] == row["left"]
    # counts past the default int-to-str digit limit of 4300 report in full
    report = cnr_reciprocity_check(20, 21, 3)
    row = report["rows"][0]
    assert report["failures"] == []
    assert len(row["left"]) > 4300 and row["left"] == row["right"] == row["catalan"]
    assert Decimal(row["left"]) == count_sequences(GroupSpec((20, 20, 20)), 21**3)


def test_cnr_condition_rejected():
    with pytest.raises(ValueError):
        cnr_reciprocity_check(4, 2, 2)  # gcd(4,4)=4 but gcd(16,2)=2
    with pytest.raises(ValueError):
        cnr_reciprocity_check(0, 2, 1)


def test_reciprocity_scan():
    report = reciprocity_scan(8)
    assert report["theorem"] == "reciprocity-scan"
    assert report["failures"] == []
    rows = report["rows"]
    assert report["scanned"] == len(rows)
    # every coprime pair equal; the (C_2, C_2xC_2) pair appears and differs
    assert all(r["equal"] for r in rows if r["coprime_orders"])
    odd = [r for r in rows if r["group"] == "2" and r["other"] == "2,2"]
    assert odd == [
        {
            "group": "2",
            "other": "2,2",
            "left": "3",
            "right": "4",
            "equal": False,
            "coprime_orders": False,
        }
    ]


def test_reports_are_deterministic_json():
    a = json.dumps(reciprocity_scan(6), sort_keys=True)
    b = json.dumps(reciprocity_scan(6), sort_keys=True)
    assert a == b


def _bump(real, group, by, at=()):
    """real with one wrong count: `by` is added to its answer (to the cell
    `at` of a table) when it is called on the named group."""

    def wrong(g, *args, **kwargs):
        out = real(g, *args, **kwargs)
        if str(g) != group:
            return out
        if at:
            out[at[0]][at[1]] += by
            return out
        return out + by

    return wrong


# (name analysis imports, or brute's name that cnr_reciprocity_check imports
# when called, its wrong version, the report, the CLI leaf, the failures the
# report must list: every failure row a verifier can build)
INJECTED = {
    "subset-reci-predicate": (
        "_subset_reci", lambda real: lambda g, k: real(g, k) != (str(g) == "4" and k == 2),
        lambda: verify_subset_reciprocity(4), "verify subset-reci --max-order 4",
        [{"group": "4", "k": 2, "count_k": "1", "count_nk": "1", "predicate": False,
          "reason": "predicate mismatch"}]),
    "subset-reci-direction": (
        "pair_count_table", lambda real: _bump(real, "3,6", -2, at=(0, 16)),
        lambda: verify_subset_reciprocity(18), "verify subset-reci --max-order 18",
        [{"group": "3,6", "k": 2, "count_k": "8", "count_nk": "7", "predicate": False,
          "reason": "wrong inequality direction"},
         {"group": "3,6", "k": 16, "count_k": "7", "count_nk": "8", "predicate": False,
          "reason": "wrong inequality direction"}]),
    "gcp": (
        "_pair_count", lambda real: _bump(_bump(real, "3", 1), "2,2", -2),
        lambda: verify_gcp(4, (2,)), "verify gcp --max-order 4 --primes 2",
        [{"group": "3", "p": 2, "left": "3", "right": "2", "predicate": True,
          "reason": "predicate mismatch"},
         {"group": "2,2", "p": 2, "left": "2", "right": "3", "predicate": False,
          "reason": "expected strict left > right"}]),
    "cnr-oracle": (
        "brute.enum_sequences", lambda real: _bump(real, "3", [()]),
        lambda: cnr_reciprocity_check(2, 3, 1), "verify cnr --n 2 --m 3 --r 1",
        [{"group": "3", "size": 2, "formula": "2", "oracle": "3"}]),
    "cnr-sides": (
        "count_sequences", lambda real: _bump(real, "4", 1),
        lambda: cnr_reciprocity_check(2, 4, 1), "verify cnr --n 2 --m 4 --r 1",
        [{"group": "4", "size": 2, "formula": "4", "oracle": "3"},
         {"n": 2, "m": 4, "r": 1, "left": "3", "right": "4", "oracle_checked": ["2", "4"],
          "reason": "sides differ"}]),
    "cnr-catalan": (
        "rational_catalan", lambda real: lambda a, b: real(a, b) + 1,
        lambda: cnr_reciprocity_check(2, 3, 1), "verify cnr --n 2 --m 3 --r 1",
        [{"n": 2, "m": 3, "r": 1, "left": "2", "right": "2", "oracle_checked": ["2", "3"],
          "catalan": "3", "reason": "coprime case missed Catalan value"}]),
    "scan": (
        "pair_count_table", lambda real: _bump(real, "2", 1, at=(3, 0)),
        lambda: reciprocity_scan(3), "scan reciprocity --max-order 3",
        [{"group": "2", "other": "3", "left": "3", "right": "2", "equal": False,
          "coprime_orders": True, "reason": "coprime pair must agree"}]),
}


@pytest.mark.parametrize("name, fake, report, argv, failures", INJECTED.values(), ids=INJECTED)
def test_a_wrong_count_shows_as_a_failure_row(
    monkeypatch, capsys, name, fake, report, argv, failures
):
    owner, _, name = name.rpartition(".")
    owner = brute if owner else analysis
    monkeypatch.setattr(owner, name, fake(getattr(owner, name)))
    assert report()["failures"] == failures
    assert run(argv.split()) == 1
    assert json.loads(capsys.readouterr().out)["failures"] == failures
