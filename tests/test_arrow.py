"""Preference aggregation: axiom checks with witnesses, decisive-coalition
families, the dictatorship analysis, and the ultrafilter correspondence."""

import random
from itertools import permutations
from math import factorial

import pytest

from ufw import arrow
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
    rule_from_ultrafilter,
    verify_arrow,
)
from ufw.errors import CapExceeded, NotStrictOrder
from ufw.largeness.checkers import check_dictator
from ufw.setfam import (
    GroundSet,
    SetFamily,
    classify_family,
    enumerate_ultrafilters,
    principal_ultrafilter,
)


# --- profiles and orders ---------------------------------------------------
#
# The tests decode profiles themselves, sharing no code with ufw.arrow: an
# order lists the candidates worst-to-best, and a profile index is a mixed
# radix number over the voters' order indices, voter 0 most significant.


def _decode(el, pidx):
    """Profile pidx as a tuple of per-voter orders."""
    orders = list(permutations(range(el.candidates)))
    out = []
    for _ in range(el.voters):
        pidx, digit = divmod(pidx, len(orders))
        out.append(orders[digit])
    return tuple(reversed(out))


def _social(rule, pidx):
    """The strict order rule gives at profile pidx."""
    return all_orders(rule.election.candidates)[rule.table[pidx]]


def _prec(order, a, b):
    """a ≺ b in the worst-to-best order: a appears earlier."""
    return order.index(a) < order.index(b)


def _table(el, social):
    """The order-index table of the rule that applies ``social`` to every
    decoded profile."""
    orders = list(permutations(range(el.candidates)))
    return tuple(orders.index(tuple(social(_decode(el, p)))) for p in range(el.profile_count))


def test_orders_are_lex_permutations():
    assert all_orders(3)[0] == (0, 1, 2)
    assert len(all_orders(3)) == 6


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
    o1, o2 = _decode(el, p1), _decode(el, p2)
    assert all(_prec(x, a, b) == _prec(y, a, b) for x, y in zip(o1, o2))
    assert _prec(_social(rule, p1), a, b) != _prec(_social(rule, p2), a, b)


def test_majority_cycle_detected():
    el = Election(3, 3)
    with pytest.raises(NotStrictOrder) as err:
        pairwise_majority_rule(el)
    assert err.value.profile_index is not None


def test_unanimity_witness_for_antidictator():
    el = Election(2, 2)
    # reverse voter 0's order: violates unanimity on unanimous profiles
    rule = AggregationRule(el, table=_table(el, lambda orders: reversed(orders[0])))
    ok, witness = check_unanimity(rule)
    assert (ok, witness) == (False, (0, 0, (0, 1)))
    p1, p2, (a, b) = witness
    orders = _decode(el, p1)
    assert p1 == p2 and len(set(orders)) == 1
    assert _prec(orders[0], a, b) and not _prec(_social(rule, p1), a, b)


def test_monotone_witness_for_antidictator():
    el = Election(2, 3)
    rule = AggregationRule(el, table=_table(el, lambda orders: reversed(orders[0])))
    ok, witness = check_monotone(rule)
    assert (ok, witness) == (False, (0, 12, (1, 0)))
    # replay: a weakly rises for every voter, the others keep their order,
    # yet b ≺ a socially before the rise and not after it
    p1, p2, (b, a) = witness
    for o1, o2 in zip(_decode(el, p1), _decode(el, p2)):
        assert [c for c in o1 if c != a] == [c for c in o2 if c != a]
        assert o1.index(a) <= o2.index(a)
    assert _prec(_social(rule, p1), b, a)
    assert not _prec(_social(rule, p2), b, a)


def test_profile_cap_comes_before_any_profile_is_built(monkeypatch):
    # 24^9 profiles: a builder that decoded them before the cap check would
    # exhaust memory instead of raising
    def no_profiles(*args, **kwargs):
        raise AssertionError("profiles built before the cap check")

    monkeypatch.setattr(arrow, "product", no_profiles)
    el = Election(9, 4)
    u = principal_ultrafilter(GroundSet(9), 0)
    for build in (
        lambda: rule_from_ultrafilter(u, el),
        lambda: dictator_rule(el, 0),
        lambda: borda_rule(el),
        lambda: pairwise_majority_rule(el),
    ):
        with pytest.raises(CapExceeded):
            build()


def test_profile_cap_refuses_exactly_the_elections_past_it():
    # the running products stop once past the cap, so (m!)^v is never built
    for m in range(2, 12):
        for v in range(1, 22):
            if factorial(m) ** v > arrow.PROFILE_CAP:
                with pytest.raises(CapExceeded):
                    arrow._check_cap(Election(v, m))
            else:
                arrow._check_cap(Election(v, m))


def test_rules_reject_non_order_output():
    # two candidates have the orders 0 and 1 only
    el = Election(2, 2)
    for bad in (2, -1):
        with pytest.raises(NotStrictOrder) as err:
            AggregationRule(el, table=[0, 1, bad, 0])
        assert err.value.profile_index == 2


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


# --- agreement with the pairwise scans --------------------------------------


def _decoded(el):
    return [_decode(el, pidx) for pidx in range(el.profile_count)]


def _pairwise_monotone(rule):
    """Reference for ``check_monotone``, sharing no code with it: for each
    candidate a, group the profiles that agree up to a's place (groups in
    order of first appearance), and compare every pair p1, p2 of a group in
    which a weakly rises for every voter."""
    el = rule.election
    decoded = _decoded(el)
    social = [_social(rule, pidx) for pidx in range(el.profile_count)]
    for a in range(el.candidates):
        groups = {}
        for pidx, orders in enumerate(decoded):
            key = tuple(tuple(c for c in o if c != a) for o in orders)
            groups.setdefault(key, []).append(pidx)
        for pidxs in groups.values():
            for p1 in pidxs:
                for p2 in pidxs:
                    if any(
                        o1.index(a) > o2.index(a) for o1, o2 in zip(decoded[p1], decoded[p2])
                    ):
                        continue
                    for b in range(el.candidates):
                        if b != a and _prec(social[p1], b, a) and not _prec(social[p2], b, a):
                            return False, (p1, p2, (b, a))
    return True, None


def _decoding_iia(rule):
    """Reference for ``check_iia`` that decodes every profile per pair."""
    el = rule.election
    for a in range(el.candidates):
        for b in range(el.candidates):
            if a == b:
                continue
            groups = {}
            for pidx in range(el.profile_count):
                key = tuple(_prec(o, a, b) for o in _decode(el, pidx))
                soc = _prec(_social(rule, pidx), a, b)
                if key not in groups:
                    groups[key] = (pidx, soc)
                elif groups[key][1] != soc:
                    return False, (groups[key][0], pidx, (a, b))
    return True, None


def _scanning_decisive(rule, a, b):
    """Reference for ``pairwise_decisive``: test every coalition against
    every profile."""
    el = rule.election
    decoded = _decoded(el)
    masks = [
        coalition
        for coalition in range(1 << el.voters)
        if all(
            _prec(_social(rule, pidx), a, b)
            for pidx, orders in enumerate(decoded)
            if all(_prec(orders[v], a, b) for v in range(el.voters) if coalition >> v & 1)
        )
    ]
    return SetFamily.from_masks(GroundSet(el.voters), masks)


#: every election with at most 576 profiles: 2^10, 6^4, 24^3, 120^2 and 720
#: all exceed it
SMALL_ELECTIONS = [
    Election(v, m)
    for m in range(2, 6)
    for v in range(1, 10)
    if factorial(m) ** v <= 576
]


def _agreement_rules(el, seed):
    """A dictator rule, two perturbed dictators (a few table entries
    redrawn) and two uniformly random tables, all drawn from ``seed``."""
    rng = random.Random(seed)
    orders = factorial(el.candidates)
    rules = [dictator_rule(el, rng.randrange(el.voters))]
    for flips in (1, 3):
        table = list(dictator_rule(el, rng.randrange(el.voters)).table)
        for _ in range(flips):
            table[rng.randrange(len(table))] = rng.randrange(orders)
        rules.append(AggregationRule(el, table=table))
    for _ in range(2):
        rules.append(
            AggregationRule(el, table=[rng.randrange(orders) for _ in range(el.profile_count)])
        )
    return rules


def _assert_agree(rule):
    assert check_monotone(rule) == _pairwise_monotone(rule)
    assert check_iia(rule) == _decoding_iia(rule)


@pytest.mark.parametrize("el", SMALL_ELECTIONS, ids=lambda el: "%dx%d" % (el.voters, el.candidates))
def test_checks_agree_with_pairwise_scans(el):
    for rule in _agreement_rules(el, seed=el.voters * 10 + el.candidates) + [borda_rule(el)]:
        _assert_agree(rule)


def test_checks_agree_on_many_seeded_tables():
    for seed in range(60):
        el = Election(*random.Random(seed).choice([(2, 2), (3, 2), (1, 3), (2, 3), (1, 4)]))
        for rule in _agreement_rules(el, seed):
            _assert_agree(rule)


def test_pairwise_decisive_agrees_with_coalition_scan():
    for el in (Election(2, 3), Election(3, 3), Election(4, 2)):
        for rule in _agreement_rules(el, seed=el.voters) + [borda_rule(el)]:
            for a, b in [(0, 1), (1, 0)] + ([(2, 0)] if el.candidates > 2 else []):
                assert pairwise_decisive(rule, a, b) == _scanning_decisive(rule, a, b)



# --- agreement of the rule builders with decode-and-apply oracles -----------


def _borda(orders):
    m = len(orders[0])
    score = [sum(o.index(c) for o in orders) for c in range(m)]
    # ties: the lower candidate index first, that is worse
    return sorted(range(m), key=lambda c: (score[c], c))


def _majority(orders):
    """The order by pairwise-majority win counts, or None when two
    candidates win equally often (a cycle, or ties from an even split)."""
    m = len(orders[0])
    wins = [
        sum(1 for b in range(m) if b != a and 2 * sum(_prec(o, b, a) for o in orders) > len(orders))
        for a in range(m)
    ]
    if len(set(wins)) != m:
        return None
    return sorted(range(m), key=wins.__getitem__)


def _by_ultrafilter(u):
    """a ≺_soc b iff the set of voters with a ≺ b is a member of u."""
    members = {frozenset(s) for s in u.members}

    def social(orders):
        m = len(orders[0])
        placed = [
            sum(
                frozenset(v for v, o in enumerate(orders) if _prec(o, a, b)) in members
                for a in range(m)
                if a != b
            )
            for b in range(m)
        ]
        return sorted(range(m), key=placed.__getitem__)

    return social


@pytest.mark.parametrize("el", SMALL_ELECTIONS, ids=lambda el: "%dx%d" % (el.voters, el.candidates))
def test_builders_agree_with_decoding_oracles(el):
    for voter in range(el.voters):
        assert dictator_rule(el, voter).table == _table(el, lambda orders: orders[voter])
        u = principal_ultrafilter(GroundSet(el.voters), voter)
        assert rule_from_ultrafilter(u, el).table == _table(el, _by_ultrafilter(u))
    assert borda_rule(el).table == _table(el, _borda)
    socials = [_majority(_decode(el, p)) for p in range(el.profile_count)]
    if None in socials:
        with pytest.raises(NotStrictOrder) as err:
            pairwise_majority_rule(el)
        assert err.value.profile_index == socials.index(None)
    else:
        assert pairwise_majority_rule(el).table == _table(el, _majority)
