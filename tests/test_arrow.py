"""Preference aggregation: axiom checks with witnesses, decisive-coalition
families, the dictatorship analysis, and the ultrafilter correspondence."""

import pytest

from ufw.arrow import (
    AggregationRule,
    Election,
    all_orders,
    borda_rule,
    check_axioms,
    check_iia,
    check_monotone,
    check_unanimity,
    decisive_family,
    dictator_rule,
    pairwise_decisive,
    pairwise_majority_rule,
    prec,
    profile_index,
    profile_orders,
    rule_from_ultrafilter,
    verify_arrow,
    weighted_threshold_rule,
)
from ufw.errors import NotStrictOrder
from ufw.largeness.checkers import check_dictator
from ufw.setfam import GroundSet, classify_family, enumerate_ultrafilters


# --- profiles and orders ---------------------------------------------------


def test_orders_are_lex_permutations():
    assert all_orders(3)[0] == (0, 1, 2)
    assert len(all_orders(3)) == 6


def test_prec_reads_worst_to_best():
    # order lists candidates worst-to-best: later = preferred
    order = (2, 0, 1)
    assert prec(order, 2, 1) and not prec(order, 1, 2)


def test_profile_roundtrip():
    el = Election(3, 3)
    for pidx in (0, 17, el.profile_count - 1):
        assert profile_index(el, profile_orders(el, pidx)) == pidx


# --- rules and axioms ------------------------------------------------------


def test_dictator_passes_all_axioms():
    el = Election(3, 3)
    rep = check_axioms(dictator_rule(el, 2))
    assert rep["iia"] and rep["monotone"] and rep["unanimity"]


def test_borda_violates_iia_with_witness():
    el = Election(2, 3)
    rule = borda_rule(el)
    ok, witness = check_iia(rule)
    assert not ok
    p1, p2, pair = witness
    # replay the witness: same relative (a,b) positions, different social order
    a, b = pair
    o1, o2 = profile_orders(el, p1), profile_orders(el, p2)
    assert all(prec(x, a, b) == prec(y, a, b) for x, y in zip(o1, o2))
    assert prec(rule.order(p1), a, b) != prec(rule.order(p2), a, b)


def test_majority_cycle_detected():
    el = Election(3, 3)
    with pytest.raises(NotStrictOrder) as err:
        pairwise_majority_rule(el)
    assert err.value.profile_index is not None


def test_unanimity_witness_for_antidictator():
    el = Election(2, 2)
    # reverse voter 0's order: violates unanimity on unanimous profiles
    rule = AggregationRule(el, func=lambda orders: tuple(reversed(orders[0])))
    ok, witness = check_unanimity(rule)
    assert not ok and witness is not None


def test_monotone_witness_for_antidictator():
    el = Election(2, 3)
    rule = AggregationRule(el, func=lambda orders: tuple(reversed(orders[0])))
    ok, witness = check_monotone(rule)
    assert (ok, witness) == (False, (0, 12, (1, 0)))
    # replay: a weakly rises for every voter, the others keep their order,
    # yet b ≺ a socially before the rise and not after it
    p1, p2, (b, a) = witness
    for o1, o2 in zip(profile_orders(el, p1), profile_orders(el, p2)):
        assert [c for c in o1 if c != a] == [c for c in o2 if c != a]
        assert o1.index(a) <= o2.index(a)
    assert prec(rule.order(p1), b, a)
    assert not prec(rule.order(p2), b, a)


def test_rules_reject_non_order_output():
    el = Election(2, 2)
    with pytest.raises(NotStrictOrder):
        AggregationRule(el, func=lambda orders: (0, 0))


# --- decisive families and the dictatorship analysis -----------------------


def test_decisive_family_of_dictator_is_principal():
    el = Election(3, 3)
    for voter in range(3):
        fam = decisive_family(dictator_rule(el, voter))
        verdict = classify_family(fam)
        assert verdict.kind == "ultrafilter"
        assert min(fam.members, key=len) == (voter,)


def test_pairwise_decisive_contains_grand_coalition():
    el = Election(2, 3)
    fam = pairwise_decisive(dictator_rule(el, 0), 0, 1)
    assert fam.has_mask((1 << el.voters) - 1)


def test_verify_arrow_recovers_dictators_all_small_elections():
    for voters in (1, 2, 3):
        el = Election(voters, 3)
        for voter in range(voters):
            report = verify_arrow(dictator_rule(el, voter))
            assert report["family_verdict"] == "ultrafilter"
            assert report["dictator"] == voter


def test_verify_arrow_on_axiom_failure_reports_no_dictator():
    el = Election(2, 3)
    report = verify_arrow(borda_rule(el))
    assert report["dictator"] is None
    assert not report["axioms"]["iia"]


def test_rule_from_ultrafilter_roundtrip_four_voters():
    el = Election(4, 3)
    for u in enumerate_ultrafilters(GroundSet(4)):
        rule = rule_from_ultrafilter(u, el)
        fam = decisive_family(rule)
        assert fam == u
        report = verify_arrow(rule)
        assert report["dictator"] == min(u.members, key=len)[0]


def test_weighted_threshold_rule_is_disguised_dictatorship():
    el = Election(3, 2)
    out = weighted_threshold_rule([5, 1, 1], 4, el)
    assert out["dictator"] == 0
    # voter 0 alone outweighs the threshold, so the rule is the dictator rule
    assert out["rule"].table == dictator_rule(el, 0).table


def test_dictator_certificate_checker_full_scan():
    el = Election(2, 3)
    rule = dictator_rule(el, 1)
    assert check_dictator(2, 3, list(rule.table), 1)
    assert not check_dictator(2, 3, list(rule.table), 0)
    tampered = list(rule.table)
    tampered[0] = (tampered[0] + 1) % 6
    assert not check_dictator(2, 3, tampered, 1)


def test_rule_json_roundtrip():
    el = Election(2, 3)
    rule = dictator_rule(el, 0)
    again = AggregationRule.from_json(rule.to_json())
    assert again.table == rule.table
