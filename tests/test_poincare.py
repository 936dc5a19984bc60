"""Bigraded coefficient tables: dual computation, specializations, symmetry."""

import dataclasses
from decimal import Decimal
from math import comb, gcd

import pytest

from zscomb import (
    ExactDivisionError,
    GroupSpec,
    InvariantError,
    all_abelian_groups,
    count_pairs_coefficient,
    count_sequences,
    count_subsets,
    exact_div_row,
    pair_count_table,
    pair_dimension,
    poincare,
    poincare_table,
    sequences_by_sum,
    series_cross_check,
    subsets_by_sum,
)
from zscomb import counting, groups
from zscomb.cli import run


def groups_through(max_order):
    return [g for o in range(1, max_order + 1) for g in all_abelian_groups(o)]


def test_known_small_table():
    t = poincare_table(GroupSpec((2,)), 0, 2, 2)
    assert t.coeffs == ((1, 1, 0), (1, 2, 1), (2, 3, 1))
    assert t.entry(1, 1) == 2
    assert t.max_s == 2 and t.max_t == 2


def test_closed_form_equals_series_everywhere():
    # poincare_table asserts closed form == truncated series internally,
    # so constructing the tables is itself the check
    for g in groups_through(8):
        for target in g.elements():
            poincare_table(g, target, 6, 6)


def test_basic_invariants():
    for g in groups_through(6):
        n = g.order
        for target in g.elements():
            t = poincare_table(g, target, 4, n + 2)
            assert t.entry(0, 0) == (1 if target == 0 else 0)
            assert all(c >= 0 for row in t.coeffs for c in row)
            for p in range(5):
                for k in range(n + 1, n + 3):
                    assert t.entry(p, k) == 0  # no subsets larger than the group


def test_row_and_column_specializations():
    for g in groups_through(8):
        n = g.order
        for target in g.elements():
            t = poincare_table(g, target, 5, n)
            for p in range(6):
                assert t.entry(p, 0) == count_sequences(g, p, target)
            for k in range(n + 1):
                assert t.entry(0, k) == count_subsets(g, k, target)


def test_totals_over_targets():
    for g in groups_through(8):
        n = g.order
        tables = [poincare_table(g, target, 4, 4) for target in g.elements()]
        for p in range(5):
            for k in range(5):
                total = sum(t.entry(p, k) for t in tables)
                expected = comb(n + p - 1, p) * (comb(n, k) if k <= n else 0)
                assert total == expected


def test_pair_reciprocity_across_structures():
    # with gcd(p, q, m) = 1 the (p, m) entry over any group of order q+m
    # equals the (q, m) entry over any group of order p+m
    for p in range(5):
        for q in range(5):
            for m in range(5):
                if q + m < 1 or p + m < 1 or gcd(p, gcd(q, m)) != 1:
                    continue
                vals = {
                    count_pairs_coefficient(g, 0, p, m)
                    for g in all_abelian_groups(q + m)
                } | {
                    count_pairs_coefficient(h, 0, q, m)
                    for h in all_abelian_groups(p + m)
                }
                assert len(vals) == 1, (p, q, m)


def test_pair_dimension_equals_table_entry():
    # two formulas for one cardinality: the order-d element counts route
    # and the character-sum route must agree, coprime or not
    for q in range(5):
        for m in range(5):
            if q + m < 1:
                continue
            for g in all_abelian_groups(q + m):
                for p in range(5):
                    if p + q + m < 1:
                        continue
                    assert pair_dimension(p, q, m, g) == count_pairs_coefficient(
                        g, 0, p, m
                    )


def test_trivial_group_table():
    t = poincare_table(GroupSpec(()), 0, 3, 2)
    # one multiset of each size (all copies of the identity), one subset of
    # size 0 and of size 1
    assert t.coeffs == ((1, 1, 0), (1, 1, 0), (1, 1, 0), (1, 1, 0))


def test_serialization():
    t = poincare_table(GroupSpec((2,)), 0, 1, 1)
    assert t.to_json_dict() == {
        "group": "2",
        "target": 0,
        "coeffs": [["1", "1"], ["1", "2"]],
    }
    # an entry past the default int-to-str digit limit of 4300 serializes in full
    big = 7**6000
    [[text, one]] = poincare.CoeffTable(GroupSpec((2,)), 0, ((big, 1),)).to_json_dict()["coeffs"]
    assert len(text) > 4300 and Decimal(text) == big and one == "1"


def test_series_cross_check_reports():
    for g in (GroupSpec((2, 2)), GroupSpec((4,))):
        for target in (0, 2):
            report = series_cross_check(g, target, 4, 4)
            assert report["theorem"] == "series"
            assert report["failures"] == []
            assert report["scanned"] == 25
            assert report["rows"][0]["ok"] is True


def test_sum_rows_equal_the_histograms():
    # the expansion in Z[G] counts what enumeration counts, size by size
    for g in groups_through(12):
        sides = ((False, sequences_by_sum, 4), (True, subsets_by_sum, min(4, g.order)))
        for distinct, hist, top in sides:
            rows = poincare._sum_rows(g, top, distinct)
            assert len(rows) == top + 1
            for size, row in enumerate(rows):
                counts = hist(g, size)
                assert row == [counts.get(s, 0) for s in g.elements()], (g, distinct, size)


def test_series_cross_check_reports_a_wrong_cell(monkeypatch, capsys):
    # one wrong table cell is the one failure, and the CLI exits 1, also
    # under python -O
    real = poincare.poincare_table
    offset = 1

    def one_cell_off(*args):
        table = real(*args)
        coeffs = [list(row) for row in table.coeffs]
        coeffs[2][1] += offset
        return dataclasses.replace(table, coeffs=tuple(map(tuple, coeffs)))

    monkeypatch.setattr(poincare, "poincare_table", one_cell_off)
    right = real(GroupSpec((2, 4)), 3, 4, 4).entry(2, 1)
    report = series_cross_check(GroupSpec((2, 4)), 3, 4, 4)
    assert report["failures"] == [{"p": 2, "k": 1, "formula": str(right + 1), "oracle": str(right)}]
    assert report["rows"][0]["ok"] is False
    for leaf in ("poincare check", "verify series"):
        argv = [*leaf.split(), "--group", "2,4", "--target", "3", "--max-s", "4", "--max-t", "4"]
        assert run(argv) == 1, leaf
    assert all('"ok":false' in line for line in capsys.readouterr().out.splitlines())
    # a wrong cell past the default int-to-str digit limit is reported in full
    offset = 7**6000
    (failure,) = series_cross_check(GroupSpec((2, 4)), 3, 4, 4)["failures"]
    assert len(failure["formula"]) > 4300 and Decimal(failure["formula"]) == right + offset


def test_bounds_validation():
    with pytest.raises(ValueError):
        poincare_table(GroupSpec((2,)), 0, -1, 2)
    # the bounds are a multiset length and an uncapped subset size
    for max_s, max_t, reason in (
        (2.5, 3, "length must be an integer, got 2.5"),
        (2, 3.0, "subset size must be an integer, got 3.0"),
        (2, -1, "subset size must be >= 0, got -1"),
    ):
        with pytest.raises(ValueError, match=f"^{reason}$"):
            poincare_table(GroupSpec((6,)), 0, max_s, max_t)
    # a bad target is refused, also one that is not an integer
    for target, reason in ((2, "label 2 out of range for order 2"), (0.5, "label must be an integer, got 0.5")):
        with pytest.raises(ValueError, match=f"^{reason}$"):
            poincare_table(GroupSpec((2,)), target, 2, 2)


def per_cell(g, target, max_s, max_t):
    return [
        [count_pairs_coefficient(g, target, p, k) for k in range(max_t + 1)]
        for p in range(max_s + 1)
    ]


def test_pair_count_table_equals_per_cell_counts():
    for g in groups_through(32):  # the trivial group first
        n, e = g.order, g.exponent
        # (0, 0), past the order, bounds that several divisors of the
        # exponent divide, and the shapes the verifiers read: the column of
        # verify_gcp and reciprocity_scan, the full row of verify_subset_reciprocity
        bounds = ((0, 0), (3, n + 2), (2 * e, e), (3 * e + 1, 0), (0, n))
        for target in g.elements():
            for max_s, max_t in bounds:
                cells = per_cell(g, target, max_s, max_t)
                assert pair_count_table(g, target, max_s, max_t) == cells
                assert poincare._series_table(g, target, max_s, max_t) == cells


def test_exact_div_row():
    assert exact_div_row([0, 6, -12], 6) == [0, 1, -2]
    with pytest.raises(ExactDivisionError, match="^7 is not divisible by 6$"):
        exact_div_row([6, 7, 8], 6)


@pytest.mark.parametrize("home, route", [(counting, "pair_count_table"), (poincare, "_series_table")])
def test_a_table_route_divides_once_and_names_its_first_inexact_cell(monkeypatch, home, route):
    # cells (1, 3) and (2, 0) are made inexact: the error names (1, 3), first
    # in row-major order though last in column-major, also under python -O
    g, table = GroupSpec((2, 4)), pair_count_table(GroupSpec((2, 4)), 3, 3, 4)
    real, seen = home.exact_div_row, []

    def two_cells_off(cells, den):
        seen.append(list(cells))
        cells[1 * 5 + 3] += 1
        cells[2 * 5 + 0] += 1
        return real(cells, den)

    monkeypatch.setattr(home, "exact_div_row", two_cells_off)
    with pytest.raises(ExactDivisionError) as info:
        getattr(home, route)(g, 3, 3, 4)
    assert seen == [[8 * c for row in table for c in row]]  # one call, row-major
    assert str(info.value) == f"{8 * table[1][3] + 1} is not divisible by 8"


@pytest.mark.parametrize("route", ["pair_count_table", "_series_table"])
def test_route_disagreement_is_caught(monkeypatch, route):
    # one wrong cell in either route must fail the table, also under python -O
    real = getattr(poincare, route)

    def one_cell_off(*args):
        rows = real(*args)
        rows[2][1] += 1
        return rows

    monkeypatch.setattr(poincare, route, one_cell_off)
    with pytest.raises(InvariantError, match="^closed-form and series tables agree ") as info:
        poincare_table(GroupSpec((2, 4)), 3, 4, 4)
    assert info.value.context == {"group": "2,4", "target": 3}


def test_profile_fault_is_caught(monkeypatch):
    # |G| added to one profile entry leaves every closed-form cell an integer;
    # the series route reads character_sum, so the tables disagree, also under
    # python -O
    real = groups._profile

    def off_by_order(ns, g):
        return tuple((d, chi + 12 if ns == (2, 6) and d == 6 else chi) for d, chi in real(ns, g))

    monkeypatch.setattr(groups, "_profile", off_by_order)
    with pytest.raises(InvariantError, match="^closed-form and series tables agree "):
        poincare_table(GroupSpec((2, 6)), 0, 6, 6)


def test_series_route_reads_no_profile(monkeypatch):
    g = GroupSpec((2, 6))
    expected = [list(row) for row in poincare_table(g, 5, 8, 8).coeffs]

    def no_profile(ns, target):
        raise AssertionError("the series route read the character profile")

    monkeypatch.setattr(groups, "_profile", no_profile)
    assert poincare._series_table(g, 5, 8, 8) == expected
