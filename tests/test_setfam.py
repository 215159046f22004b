"""Set families, filters, ultrafilters: oracles first, then exhaustive and
property-based invariants on small grounds."""

import json
import random
import signal
import tracemalloc
from contextlib import contextmanager
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ufw.cli import run
from ufw.errors import CapExceeded, IndexOutOfRange, NotFIP
from ufw.semigroup import CayleyTable
from ufw.setfam import (
    FamilyVerdict,
    GroundSet,
    SetFamily,
    _first_missing_superset,
    classify_family,
    enumerate_ultrafilters,
    filter_closure,
    principal_ultrafilter,
    star,
)

G3 = GroundSet(3)
G4 = GroundSet(4)


def all_families(n, max_members=None):
    subs = list(range(1 << n))
    for size in range(0, (max_members or len(subs)) + 1):
        for combo in combinations(subs, size):
            yield SetFamily.from_masks(GroundSet(n), combo)


# --- construction oracles --------------------------------------------------


def test_members_canonical_order():
    fam = SetFamily(G3, [[2], [0, 1], [0]])
    assert fam.members == ((0,), (0, 1), (2,))


def test_out_of_range_member_rejected():
    # the range is checked before the mask is built: 1 << -1 raised
    # Python's own "negative shift count", and 1 << 10**8 is a 12.5 MB int
    for element in (3, -1, 10**8):
        tracemalloc.start()
        try:
            match = r"^member \[0, %d\] outside ground set$" % element
            with pytest.raises(IndexOutOfRange, match=match):
                SetFamily(G3, [[0], [0, element]])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, element


def test_from_masks_canonical_and_equal_to_members():
    fam = SetFamily.from_masks(G3, iter([6, 1, 6, 0]))
    assert fam.masks == (0, 1, 6)
    assert fam == SetFamily(G3, [[1, 2], [0], []])
    assert len(SetFamily.from_masks(G3, ())) == 0


def test_from_masks_names_the_least_out_of_range_mask():
    with pytest.raises(IndexOutOfRange, match="^mask 9 outside ground set$"):
        SetFamily.from_masks(G3, [64, 3, 9, 7, 17])
    with pytest.raises(IndexOutOfRange, match="^mask 8 outside"):
        SetFamily.from_masks(G3, [8])
    assert SetFamily.from_masks(G3, [7]).masks == (7,)


@pytest.mark.parametrize("element", [True, 1.0, "1"])
def test_non_integer_member_rejected(element):
    # type(), not isinstance(): True would otherwise read as element 1
    with pytest.raises(ValueError):
        SetFamily(G3, [[0], [element]])


def test_json_roundtrip():
    fam = SetFamily(G3, [[0], [0, 2]])
    assert SetFamily.from_json(fam.to_json()) == fam


# --- finite intersection property ------------------------------------------


def fip_check(f):
    """``(True, None)``, or ``(False, witness)`` with classify_family's
    not-fip witness: the smallest, then lexicographically least, sub-family
    with empty intersection."""
    verdict = classify_family(f)
    if verdict.kind == "not-fip":
        return False, verdict.witness
    return True, None


def test_fip_oracle_positive():
    ok, witness = fip_check(SetFamily(G3, [[0, 1], [0, 2], [0]]))
    assert ok and witness is None


def test_fip_oracle_negative_witness_minimal():
    # {0,1} ∩ {1,2} ∩ {0,2} = ∅ but all pairs meet: witness must be size 3
    fam = SetFamily(G3, [[0, 1], [1, 2], [0, 2]])
    ok, witness = fip_check(fam)
    assert not ok
    assert witness == ((0, 1), (0, 2), (1, 2))


def test_fip_witness_lex_least():
    # two disjoint pairs exist; the lexicographically least one wins
    fam = SetFamily(G4, [[0], [1], [2, 3]])
    ok, witness = fip_check(fam)
    assert not ok
    assert witness == ((0,), (1,))


def test_fip_empty_member_is_singleton_witness():
    ok, witness = fip_check(SetFamily(G3, [[], [0]]))
    assert not ok and witness == ((),)


@given(st.integers(1, 4), st.sets(st.integers(0, 15), max_size=6))
@settings(max_examples=200, deadline=None)
def test_fip_iff_total_intersection(n, masks):
    masks = {m & ((1 << n) - 1) for m in masks}
    fam = SetFamily.from_masks(GroundSet(n), masks)
    total = (1 << n) - 1
    for m in fam.masks:
        total &= m
    ok, witness = fip_check(fam)
    assert ok == bool(total or not fam.masks)
    if not ok:
        inter = (1 << n) - 1
        for member in witness:
            inter &= sum(1 << i for i in member)
        assert inter == 0


# --- classify_family -------------------------------------------------------


def test_classify_ultrafilter():
    assert classify_family(principal_ultrafilter(G3, 1)) == FamilyVerdict("ultrafilter", None)


def test_classify_filter_with_split_witness():
    # the trivial filter {X}: neither {0} nor its complement belongs
    fam = SetFamily(G3, [[0, 1, 2]])
    verdict = classify_family(fam)
    assert verdict.kind == "filter"
    assert verdict.witness == ((0,), (1, 2))


def test_classify_fip_only_missing_superset():
    fam = SetFamily(G3, [[0], [0, 1, 2]])
    verdict = classify_family(fam)
    assert verdict.kind == "fip-only"
    assert verdict.witness == ((0,), (0, 1))  # {0} ⊆ {0,1} missing


def test_classify_not_fip():
    verdict = classify_family(SetFamily(G3, [[0], [1]]))
    assert verdict.kind == "not-fip"
    assert verdict.witness == ((0,), (1,))


def test_classification_exhaustive_n2_counts():
    counts = {"not-fip": 0, "fip-only": 0, "filter": 0, "ultrafilter": 0}
    for fam in all_families(2):
        counts[classify_family(fam).kind] += 1
    # 2^4 = 16 families; filters on [2]: {X}, the two principal ultrafilters
    assert sum(counts.values()) == 16
    assert counts["ultrafilter"] == 2
    assert counts["filter"] == 1


# --- filter_closure --------------------------------------------------------


def test_closure_oracle_single_generator():
    fam = SetFamily(G3, [[0, 1]])
    closed = filter_closure(fam)
    assert closed.members == ((0, 1), (0, 1, 2))


def test_closure_is_smallest_filter_exhaustive_n3():
    # brute-force oracle: supersets of intersections of members
    for fam in all_families(3, max_members=3):
        ok, _ = fip_check(fam)
        if not ok:
            continue
        closed = filter_closure(fam)
        inters = {(1 << 3) - 1}
        for m in fam.masks:
            inters |= {i & m for i in inters}
        expect = {
            a for a in range(1 << 3) if any((i & a) == i for i in inters)
        }
        assert set(closed.masks) == expect
        assert classify_family(closed).kind in ("filter", "ultrafilter")


def test_closure_rejects_non_fip():
    with pytest.raises(NotFIP):
        filter_closure(SetFamily(G3, [[0], [1]]))


# --- ultrafilters ----------------------------------------------------------


def test_ultrafilters_are_exactly_principal():
    for n in range(1, 5):
        ground = GroundSet(n)
        ufs = enumerate_ultrafilters(ground)
        assert len(ufs) == n
        assert ufs == [principal_ultrafilter(ground, x) for x in range(n)]
        for u in ufs:
            assert classify_family(u).kind == "ultrafilter"


def test_ultrafilter_cap():
    with pytest.raises(CapExceeded):
        enumerate_ultrafilters(GroundSet(7))


# --- star ------------------------------------------------------------------


def star_oracle(fam):
    full = fam.ground.full_mask
    return {
        b
        for b in range(full + 1)
        if all(a & b for a in fam.masks)
    }


def test_star_matches_oracle_exhaustive_n3():
    for fam in all_families(3, max_members=3):
        assert set(star(fam).masks) == star_oracle(fam)


def test_star_fixes_ultrafilters():
    for n in range(1, 5):
        for u in enumerate_ultrafilters(GroundSet(n)):
            assert star(u) == u


def test_star_antitone_and_triple_idempotent():
    a = SetFamily(G3, [[0, 1]])
    b = SetFamily(G3, [[0, 1], [1, 2]])
    assert set(star(b).masks) <= set(star(a).masks)
    assert star(star(star(a))) == star(a)


# --- quotients -------------------------------------------------------------


def test_quotient_sets_mod_table():
    # multiplication mod 4: x=2, A={0}: left quotient {y : 2y ≡ 0}
    pre = CayleyTable([[(a * b) % 4 for b in range(4)] for a in range(4)]).preimage_masks
    assert pre[2][0b0001] == 0b0101
    assert pre[3][0b0010] == 0b1000


# --- scan-order oracles ----------------------------------------------------
#
# Plain loops over the documented scan orders, sharing no code with
# ufw.setfam: every witness the module reports must be the one these find.


def _indices(mask):
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def _lex_subsets(n):
    return sorted(range(1 << n), key=_indices)


def _fip_oracle(n, masks):
    """Smallest, then lexicographically least, sub-family with empty
    intersection, by trying every combination size by size."""
    total = (1 << n) - 1
    for m in masks:
        total &= m
    if total:
        return None
    lex = sorted(masks, key=_indices)
    for size in range(1, len(lex) + 1):
        for combo in combinations(lex, size):
            inter = (1 << n) - 1
            for m in combo:
                inter &= m
            if not inter:
                return tuple(_indices(m) for m in combo)


def _classify_oracle(n, masks):
    """FIP, then (1) X ∈ F, (2) ∅ ∉ F, (3) upward closure, (4) pairwise
    intersections, then union splitting; subsets in lexicographic order."""
    fam = set(masks)
    full = (1 << n) - 1
    witness = _fip_oracle(n, masks)
    if witness is not None:
        return FamilyVerdict("not-fip", witness)
    subs = _lex_subsets(n)
    members = [a for a in subs if a in fam]
    if full not in fam:
        return FamilyVerdict("fip-only", (_indices(full),))
    if 0 in fam:
        return FamilyVerdict("fip-only", ((),))
    for a in members:
        for b in subs:
            if a & b == a and b not in fam:
                return FamilyVerdict("fip-only", (_indices(a), _indices(b)))
    for a in members:
        for b in members:
            if a & b not in fam:
                return FamilyVerdict("fip-only", (_indices(a), _indices(b)))
    for a in subs:
        if a not in fam and full ^ a not in fam:
            return FamilyVerdict("filter", (_indices(a), _indices(full ^ a)))
    return FamilyVerdict("ultrafilter", None)


@st.composite
def families(draw, max_n):
    """A ground size and member masks: either a few arbitrary sets, or an
    up-set with up to two sets toggled, so that every scan step can fail."""
    n = draw(st.integers(1, max_n))
    subsets = st.integers(0, (1 << n) - 1)
    if draw(st.booleans()):
        return n, draw(st.sets(subsets, max_size=12))
    gens = draw(st.lists(subsets, min_size=1, max_size=3))
    masks = {a for a in range(1 << n) if any(a & g == g for g in gens)}
    return n, masks ^ draw(st.sets(subsets, max_size=2))


@given(families(6))
@settings(max_examples=400, deadline=None)
def test_classify_matches_scan_order_oracle(case):
    n, masks = case
    fam = SetFamily.from_masks(GroundSet(n), masks)
    assert classify_family(fam) == _classify_oracle(n, masks)


def test_classify_every_principal_filter_matches_oracle():
    for n in range(1, 7):
        for meet in range(1, 1 << n):
            masks = [a for a in range(1 << n) if a & meet == meet]
            fam = SetFamily.from_masks(GroundSet(n), masks)
            assert classify_family(fam) == _classify_oracle(n, masks)


@given(st.integers(1, 7).flatmap(lambda n: st.tuples(
    st.just(n), st.sets(st.integers(0, (1 << n) - 1), max_size=16))))
@settings(max_examples=300, deadline=None)
def test_fip_witness_matches_combinations_oracle(case):
    n, masks = case
    witness = _fip_oracle(n, masks)
    assert fip_check(SetFamily.from_masks(GroundSet(n), masks)) == (witness is None, witness)


@given(families(6))
@settings(max_examples=200, deadline=None)
def test_star_matches_definition(case):
    n, masks = case
    expect = [b for b in range(1 << n) if all(a & b for a in masks)]
    assert list(star(SetFamily.from_masks(GroundSet(n), masks)).masks) == expect


# --- hang regressions ------------------------------------------------------


class _Overtime(Exception):
    pass


@contextmanager
def _wall_clock(seconds):
    def expire(signum, frame):
        raise _Overtime("still running after %s s" % seconds)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _cli(capsys, tmp_path, argv, family):
    path = tmp_path / "family.json"
    path.write_text(json.dumps(family))
    try:
        with _wall_clock(5):
            code = run(argv + ["--in", str(path)])
    except _Overtime as err:
        pytest.fail(str(err), pytrace=False)
    return code, json.loads(capsys.readouterr().out)["result"]


def _pair_cover(n):
    """All subsets with at least n−2 elements, n even."""
    return [a for a in range(1 << n) if bin(a).count("1") >= n - 2]


def _pair_cover_witness(n):
    # the complements of a witness partition X into pairs, and X∖{a, b}
    # comes earlier in lexicographic order the larger a is
    full = (1 << n) - 1
    return tuple(_indices(full ^ (3 << i)) for i in range(n - 2, -1, -2))


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_pair_cover_witness_matches_combinations_oracle(n):
    assert _fip_oracle(n, _pair_cover(n)) == _pair_cover_witness(n)


def _unbounded_pick_witness(n, masks):
    """The FIP witness by another road: need(u), the fewest members that
    empty u, by branch and bound, then a greedy pick in lexicographic order
    that asks need() of every candidate."""
    memo = {0: 0}

    def need(u):
        if u not in memo:
            children = sorted({u & m for m in masks} - {u}, key=int.bit_count)
            size = u.bit_count()
            best, cut = size, size - children[0].bit_count()
            for c in children:
                if 1 - (-c.bit_count() // cut) >= best:
                    break
                best = min(best, 1 + need(c))
            memo[u] = best
        return memo[u]

    lex = sorted(masks, key=_indices)
    u = (1 << n) - 1
    witness = []
    start = 0
    for left in range(need(u) - 1, -1, -1):
        for i in range(start, len(lex)):
            if need(u & lex[i]) <= left:
                break
        witness.append(_indices(lex[i]))
        u &= lex[i]
        start = i + 1
    return tuple(witness)


def _singles_and_pairs(n):
    """X∖{i} for every i and X∖{2j, 2j+1} for every j: the pairs are the
    smallest cover, and each greedy step passes over singles it cannot use."""
    full = (1 << n) - 1
    return [full ^ (1 << i) for i in range(n)] + [full ^ (3 << 2 * j) for j in range(n // 2)]


def _random_not_fip(rng, n):
    """Dense random members, then a few more until the meet is empty."""
    full = (1 << n) - 1
    masks = {full ^ rng.getrandbits(n) & rng.getrandbits(n) for _ in range(rng.randint(3, 24))}
    meet = full
    for m in masks:
        meet &= m
    while meet:
        extra = full ^ rng.getrandbits(n) & rng.getrandbits(n)
        masks.add(extra)
        meet &= extra
    return sorted(masks)


@pytest.mark.parametrize("n", range(20, 121, 20))
def test_fip_witness_on_singles_and_pairs_matches_unbounded_pick(n):
    masks = _singles_and_pairs(n)
    expect = _unbounded_pick_witness(n, masks)
    assert len(expect) == (n + 1) // 2
    assert fip_check(SetFamily.from_masks(GroundSet(n), masks)) == (False, expect)


def test_fip_witness_on_random_families_matches_unbounded_pick():
    rng = random.Random(19)
    for _ in range(120):
        n = rng.randint(4, 24)
        masks = _random_not_fip(rng, n)
        expect = _unbounded_pick_witness(n, masks)
        assert fip_check(SetFamily.from_masks(GroundSet(n), masks)) == (False, expect)


def test_classify_pair_cover_at_ground_14_is_fast(capsys, tmp_path):
    # 106 members, a witness of 7: trying every combination did not finish
    # in 180 s
    members = [list(_indices(a)) for a in _pair_cover(14)]
    code, result = _cli(capsys, tmp_path, ["setfam", "classify"],
                        {"ground": 14, "members": members})
    assert code == 0
    assert result == {"kind": "not-fip", "witness": [list(w) for w in _pair_cover_witness(14)]}


def _sliding_triples(n):
    """X∖{i, i+1, i+2} for i = 0 … n−3: ceil(n/3) of them cover X, and
    covers overlap where 3 does not divide n."""
    full = (1 << n) - 1
    return [full ^ (7 << i) for i in range(n - 2)]


def _sliding_triples_witness(n):
    # X∖{i, i+1, i+2} comes earlier the larger i is: the last triple, then
    # the triples at 3j from the top down, so any overlap is between the
    # first two
    full = (1 << n) - 1
    k = -(-n // 3)
    return tuple(_indices(full ^ (7 << i)) for i in [n - 3, *range(3 * (k - 2), -1, -3)])


@pytest.mark.parametrize("n", [4, 6, 8])
def test_singles_and_pairs_witness_matches_combinations_oracle(n):
    assert _fip_oracle(n, _singles_and_pairs(n)) == _pair_cover_witness(n)


@pytest.mark.parametrize("n", range(3, 13))
def test_sliding_triples_witness_matches_combinations_oracle(n):
    assert _fip_oracle(n, _sliding_triples(n)) == _sliding_triples_witness(n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fip_witness_matches_combinations_oracle_exhaustive(n):
    for fam in all_families(n):
        witness = _fip_oracle(n, fam.masks)
        assert fip_check(fam) == (witness is None, witness)


def test_classify_singles_and_pairs_at_ground_600_is_fast(capsys, tmp_path):
    # 900 members, a witness of the 300 pairs: 5.6–8.1 s when a greedy pick
    # re-asked the fewest members that empty each candidate
    members = [list(_indices(a)) for a in _singles_and_pairs(600)]
    code, result = _cli(capsys, tmp_path, ["setfam", "classify"],
                        {"ground": 600, "members": members})
    assert code == 0
    assert result == {"kind": "not-fip", "witness": [list(w) for w in _pair_cover_witness(600)]}


def test_classify_sliding_triples_at_ground_40_is_fast(capsys, tmp_path):
    # 38 members, a witness of 14: 12.7 s at ground 32 and more than 60 s at
    # 40 for the same greedy pick
    members = [list(_indices(a)) for a in _sliding_triples(40)]
    code, result = _cli(capsys, tmp_path, ["setfam", "classify"],
                        {"ground": 40, "members": members})
    assert code == 0
    assert result == {"kind": "not-fip", "witness": [list(w) for w in _sliding_triples_witness(40)]}


def test_star_at_ground_16_is_fast(capsys, tmp_path):
    # a table of 2ⁿ rows of 2ⁿ bits took 11 s at ground 13
    code, result = _cli(capsys, tmp_path, ["setfam", "star"], {"ground": 16, "members": [[0]]})
    assert code == 0
    assert result["star"]["members"] == [list(_indices(a)) for a in range(1, 1 << 16, 2)]


def test_classify_x_and_a_point_at_ground_24_is_fast():
    # {X, {0}} fails upward closure at {0}, whose lex-first non-member
    # superset is {0, 1}: 20.6 s when it was the least of all 2²³ supersets
    fam = SetFamily(GroundSet(24), [list(range(24)), [0]])
    try:
        with _wall_clock(1):
            verdict = classify_family(fam)
    except _Overtime as err:
        pytest.fail(str(err), pytrace=False)
    assert verdict == FamilyVerdict("fip-only", ((0,), (0, 1)))


def _least_missing_superset(fam, a):
    """The expression the filter-axiom witness used before it walked index
    tuples: the least, by index tuple, of every superset of a outside fam."""
    supersets = (b for b in range(1 << fam.ground.size) if b & a == a)
    return min((b for b in supersets if not fam.has_mask(b)), key=_indices)


def test_first_missing_superset_matches_the_least_of_all_supersets():
    rng = random.Random(35)
    checked = 0
    for _ in range(3000):
        n = rng.randint(1, 7)
        fam = SetFamily.from_masks(
            GroundSet(n), rng.sample(range(1 << n), rng.randint(1, min(1 << n, 12)))
        )
        for a in fam.masks:
            if all(fam.has_mask(b) for b in range(1 << n) if b & a == a):
                continue
            assert _first_missing_superset(fam, a, n) == _least_missing_superset(fam, a)
            checked += 1
    assert checked > 10000


def _closure_failing(fam):
    """The members with a superset outside ``fam``, as the filter-axiom
    witness found them before it walked members: the down-closure of every
    non-member, one sweep per element over an int of 2ⁿ bits (bit b set iff
    b lies below a non-member)."""
    n = fam.ground.size
    bits = sum(1 << b for b in range(1 << n) if not fam.has_mask(b))
    for i in range(n):
        without_i = sum(1 << b for b in range(1 << n) if not b >> i & 1)
        bits |= (bits >> (1 << i)) & without_i
    return [a for a in fam.masks if bits >> a & 1]


def test_filter_axiom_witness_matches_the_down_closure():
    # uniform random families rarely reach upward closure with X a member,
    # so every member here contains a random non-empty core
    rng = random.Random(36)
    checked = up_sets = 0
    while checked < 3000:
        n = rng.randint(1, 8)
        full = (1 << n) - 1
        core = rng.randint(1, full)
        masks = [core | rng.randint(0, full) for _ in range(rng.randint(1, 24))]
        fam = SetFamily.from_masks(GroundSet(n), masks + [full])
        verdict = classify_family(fam)
        if verdict.kind != "fip-only":
            continue
        checked += 1
        failing = _closure_failing(fam)
        if failing:
            a = min(failing, key=_indices)
            assert verdict.witness == (_indices(a), _indices(_first_missing_superset(fam, a, n)))
        else:
            # an up-set: the witness is a pair of members whose meet is none
            up_sets += 1
            a, b = (sum(1 << i for i in w) for w in verdict.witness)
            assert fam.has_mask(a) and fam.has_mask(b) and not fam.has_mask(a & b)
    assert up_sets > 50


def test_classify_x_and_a_point_at_ground_24_stays_small():
    # the down-closure of the non-members, an int of 2²⁴ bits, peaked at 38 MB
    fam = SetFamily(GroundSet(24), [list(range(24)), [0]])
    tracemalloc.start()
    try:
        verdict = classify_family(fam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict == FamilyVerdict("fip-only", ((0,), (0, 1)))
    assert peak < 2 << 20
