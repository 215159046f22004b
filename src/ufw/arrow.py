"""Social-choice verification on finite electorates: axiom checking
(independence of irrelevant alternatives, positive association/monotonicity,
unanimity), the decisive coalitions as one star of the losing coalitions'
complements (at most ``setfam.POWERSET_CAP`` voters), ultrafilter
verification with dictator recovery, and the converse rule-from-ultrafilter
construction.

Orders are strict total orders, stored as permutations of the candidate set
read worst-to-best: a ≺ b iff a appears earlier.  Profiles are indexed in
mixed radix over per-voter permutation indices (voter 0 most significant);
witnesses reference profile indices, so they are stable across runs.  The
rule builders and the axiom checks read profiles through one cached rank
table per election.
"""

from functools import lru_cache
from itertools import combinations, permutations, product
from math import factorial

from .bitsets import indices_of, mask_of
from .errors import CapExceeded, NotStrictOrder, NotUltrafilter
from .record import Record
from .setfam import GroundSet, SetFamily, classify_family, star

PROFILE_CAP = 10**6


class Election(Record):
    _fields = ("voters", "candidates")

    def __init__(self, voters, candidates):
        # type(), not isinstance(): True and False are ints too
        if type(voters) is not int or type(candidates) is not int:
            raise ValueError("voter and candidate counts must be integers")
        if voters < 1 or candidates < 2:
            raise ValueError("need ≥ 1 voter and ≥ 2 candidates")
        object.__setattr__(self, "voters", voters)
        object.__setattr__(self, "candidates", candidates)

    @property
    def profile_count(self):
        return factorial(self.candidates) ** self.voters


@lru_cache(maxsize=None)
def all_orders(m):
    """All strict orders on m candidates (permutations, lexicographic)."""
    return tuple(permutations(range(m)))


@lru_cache(maxsize=None)
def _order_index(m):
    return {p: i for i, p in enumerate(all_orders(m))}


def _check_cap(election):
    """Refuse more than PROFILE_CAP profiles without building (m!)^v: each
    running product stops once past the cap, and as every factor is at
    least 2 that takes about 20 steps, whatever m and v are."""
    orders = 1
    for c in range(2, election.candidates + 1):
        orders *= c
        if orders > PROFILE_CAP:
            break
    count = 1
    for _ in range(election.voters):
        count *= orders
        if count > PROFILE_CAP:
            raise CapExceeded("profile space exceeds cap %d" % PROFILE_CAP)


def _ordered_pairs(m):
    return [(a, b) for a in range(m) for b in range(m) if a != b]


class _RankTable(Record):
    """How the rule builders and the axiom checks read an election's
    profiles, decoded once.

    ``pos[o][c]`` is candidate c's place in order o (0 = worst), and
    ``below[o][c]`` the mask of candidates ranked below c in o.
    ``raised[o][c]`` is the order index of o with c moved one place up, or
    None when c is o's top.  ``profiles[p]`` holds profile p's per-voter
    order indices, and ``weights[v]`` the place value of voter v's digit in
    a profile index."""

    _fields = ("pos", "below", "raised", "profiles", "weights")

    def __init__(self, pos, below, raised, profiles, weights):
        object.__setattr__(self, "pos", pos)
        object.__setattr__(self, "below", below)
        object.__setattr__(self, "raised", raised)
        object.__setattr__(self, "profiles", profiles)
        object.__setattr__(self, "weights", weights)


@lru_cache(maxsize=4)
def _rank_table(election):
    _check_cap(election)
    m = election.candidates
    orders = all_orders(m)
    lookup = _order_index(m)
    pos = tuple(tuple(o.index(c) for c in range(m)) for o in orders)
    below = tuple(tuple(mask_of(o[: p[c]]) for c in range(m)) for o, p in zip(orders, pos))
    raised = []
    for o, p in zip(orders, pos):
        row = []
        for c in range(m):
            i = p[c]
            if i == m - 1:
                row.append(None)
            else:
                row.append(lookup[o[:i] + (o[i + 1], c) + o[i + 2 :]])
        raised.append(tuple(row))
    k = len(orders)
    n = election.voters
    return _RankTable(
        pos=pos,
        below=below,
        raised=tuple(raised),
        profiles=tuple(product(range(k), repeat=n)),
        weights=tuple(k ** (n - 1 - v) for v in range(n)),
    )


def _precedes(ranks, a, b):
    """lt[o]: a ≺ b in order o, for every order index o."""
    return [p[a] < p[b] for p in ranks.pos]


def _supporters(ranks, a, b, weights):
    """Per profile, in index order: the sum of weights[v] over the voters v
    with a ≺ b.  One product() over the voters' orders walks the profiles
    in index order, as it built them."""
    lt = _precedes(ranks, a, b)
    return map(sum, product(*([w if x else 0 for x in lt] for w in weights)))


class AggregationRule(Record):
    """A total map from profiles to strict orders, stored as a table of
    permutation indices.  Construction rejects any entry that is not an
    order index, with the offending profile."""

    __slots__ = ("election", "table")
    _fields = ("election", "table")

    def __init__(self, election, table):
        _check_cap(election)
        table = tuple(table)
        if len(table) != election.profile_count:
            raise ValueError("table must cover every profile")
        k = factorial(election.candidates)
        for pidx, oi in enumerate(table):
            # type(), not isinstance(): True and False are ints too
            if type(oi) is not int or not 0 <= oi < k:
                raise NotStrictOrder(
                    "output %r at profile %d is not a strict order" % (oi, pidx),
                    profile_index=pidx,
                )
        object.__setattr__(self, "election", election)
        object.__setattr__(self, "table", table)

    def to_json(self):
        return {
            "voters": self.election.voters,
            "candidates": self.election.candidates,
            "table": list(self.table),
        }

    @classmethod
    def from_json(cls, obj):
        return cls(Election(obj["voters"], obj["candidates"]), table=obj["table"])


def dictator_rule(election, voter):
    """The rule that copies the given voter's order."""
    ranks = _rank_table(election)
    return AggregationRule(election, table=[orders[voter] for orders in ranks.profiles])


def borda_rule(election):
    """Borda count with lexicographic tie-break (higher index preferred on
    equal score); the classic IIA violator."""
    ranks = _rank_table(election)
    lookup = _order_index(election.candidates)
    table = []
    for orders in ranks.profiles:
        # a candidate scores its places, 0 = worst, summed over voters
        score = [sum(col) for col in zip(*map(ranks.pos.__getitem__, orders))]
        # Worst-to-best output: ascending score; the stable sort leaves the
        # lower candidate index worse (earlier) on a tie
        table.append(lookup[tuple(sorted(range(election.candidates), key=score.__getitem__))])
    return AggregationRule(election, table=table)


def pairwise_majority_rule(election):
    """Pairwise-majority 'rule'; raises NotStrictOrder on the first profile
    (e.g. a Condorcet cycle) whose tally is not a total order."""
    ranks = _rank_table(election)
    n, pos = election.voters, ranks.pos
    by_places = {p: o for o, p in enumerate(pos)}
    table = []
    for pidx, orders in enumerate(ranks.profiles):
        # a candidate's place is the number of pairwise majorities it wins;
        # the places form an order only when they are all distinct
        wins = [0] * election.candidates
        for a, b in combinations(range(election.candidates), 2):
            b_over_a = 2 * sum(pos[o][a] < pos[o][b] for o in orders)
            if b_over_a != n:
                wins[b if b_over_a > n else a] += 1
        o = by_places.get(tuple(wins))
        if o is None:
            raise NotStrictOrder(
                "pairwise majority at profile %d is not a strict order" % pidx,
                profile_index=pidx,
            )
        table.append(o)
    return AggregationRule(election, table=table)


def check_iia(rule):
    """(IIA): profiles agreeing on every voter's a-vs-b comparison must agree
    on the social a-vs-b comparison."""
    el = rule.election
    ranks = _rank_table(el)
    table = rule.table
    # (b, a) groups the same profiles as (a, b) with every comparison
    # flipped, and comes later in the scan order of ordered pairs, so the
    # pairs with a < b find the same first witness
    for a, b in combinations(range(el.candidates), 2):
        lt = _precedes(ranks, a, b)
        groups = {}
        for pidx, orders in enumerate(ranks.profiles):
            soc = lt[table[pidx]]
            first, first_soc = groups.setdefault(tuple(map(lt.__getitem__, orders)), (pidx, soc))
            if first_soc != soc:
                return False, (first, pidx, (a, b))
    return True, None


def check_monotone(rule):
    """(M): if candidate a weakly rises in every voter's order while all
    other relative comparisons are fixed, a's social standing cannot drop.

    Such rises form a product of per-voter chains, whose covering steps are
    single raises: one voter moves a one place up.  So {p : b ≺_soc a} is
    closed under rises iff it is closed under single raises, and the check
    visits profiles × voters × candidates raises (Kirman–Sondermann).  Only a
    failure pays for the search of the first witness in scan order."""
    el = rule.election
    ranks = _rank_table(el)
    table, below, raised, weights = rule.table, ranks.below, ranks.raised, ranks.weights
    for a in range(el.candidates):
        for p, orders in enumerate(ranks.profiles):
            soc_below = below[table[p]][a]
            if not soc_below:
                continue
            for v, o in enumerate(orders):
                up = raised[o][a]
                if up is not None and soc_below & ~below[table[p + (up - o) * weights[v]]][a]:
                    return False, _first_monotone_witness(rule, ranks, a)
    return True, None


def _first_monotone_witness(rule, ranks, a):
    """The first (p1, p2, (b, a)) in the order of the pairwise scan: groups
    of profiles that agree up to a's place, in order of first appearance;
    p1 ascending in its group; p2 ascending in p1's up-set (a weakly higher
    for every voter); the least b with b ≺_soc a at p1 but not at p2."""
    table, below, raised, weights = rule.table, ranks.below, ranks.raised, ranks.weights
    orders = all_orders(rule.election.candidates)
    rest = [tuple(c for c in o if c != a) for o in orders]
    groups = {}
    for p, prof in enumerate(ranks.profiles):
        groups.setdefault(tuple(rest[o] for o in prof), []).append(p)
    for members in groups.values():
        for p1 in members:
            soc_below = below[table[p1]][a]
            if not soc_below:
                continue
            # per voter, the place values of a's weakly higher places, so
            # that product() runs through the up-set in ascending index
            steps = []
            for o, w in zip(ranks.profiles[p1], weights):
                chain = [o]
                while raised[chain[-1]][a] is not None:
                    chain.append(raised[chain[-1]][a])
                steps.append(sorted(x * w for x in chain))
            for digits in product(*steps):
                p2 = sum(digits)
                lost = soc_below & ~below[table[p2]][a]
                if lost:
                    return p1, p2, ((lost & -lost).bit_length() - 1, a)
    raise AssertionError("a single raise failed but no rise does")


def check_unanimity(rule):
    """(NI)/unanimity: a unanimous profile maps to the common order."""
    el = rule.election
    ranks = _rank_table(el)
    # every voter's digit is o in the unanimous profile for order o
    step = sum(ranks.weights)
    for o, p in enumerate(ranks.pos):
        pidx = o * step
        soc = ranks.pos[rule.table[pidx]]
        if soc != p:
            pair = next(
                (a, b) for a, b in _ordered_pairs(el.candidates) if p[a] < p[b] and soc[a] > soc[b]
            )
            return False, (pidx, pidx, pair)
    return True, None


def check_axioms(rule):
    iia, iia_w = check_iia(rule)
    mono, mono_w = check_monotone(rule)
    una, una_w = check_unanimity(rule)
    return {
        "iia": iia,
        "iia_witness": iia_w,
        "monotone": mono,
        "monotone_witness": mono_w,
        "unanimity": una,
        "unanimity_witness": una_w,
    }


def decisive_family(rule):
    """𝒟: coalitions decisive for every ordered candidate pair at once.

    A coalition c is decisive for a ≺ b iff no profile with b ≺_soc a has
    all of c ranking a ≺ b, that is iff c meets X∖s for the supporter set s
    of every such profile.  So 𝒟 is the star of those complements, over
    all ordered pairs; ``star`` refuses more than POWERSET_CAP voters."""
    el = rule.election
    ranks = _rank_table(el)
    full = (1 << el.voters) - 1
    bits = [1 << v for v in range(el.voters)]
    complements = set()
    for a, b in _ordered_pairs(el.candidates):
        lt = _precedes(ranks, a, b)
        supporters = _supporters(ranks, a, b, bits)
        complements.update(full ^ s for soc, s in zip(rule.table, supporters) if not lt[soc])
    return star(SetFamily.from_masks(GroundSet(el.voters), complements))


def verify_arrow(rule):
    """Check the three axioms; when they all hold and |C| ≥ 3, verify that
    the decisive family is an ultrafilter and name its generator as the
    dictator."""
    axioms = check_axioms(rule)
    report = {"axioms": axioms, "family_verdict": None, "dictator": None}
    if not (axioms["iia"] and axioms["monotone"] and axioms["unanimity"]):
        return report
    fam = decisive_family(rule)
    verdict = classify_family(fam)
    report["decisive_family"] = fam
    report["family_verdict"] = verdict.kind
    if rule.election.candidates >= 3:
        if verdict.kind != "ultrafilter":
            raise AssertionError(
                "axioms passed with ≥ 3 candidates but the decisive family "
                "is %s — impossibility-theorem violation" % verdict.kind
            )
        generator_mask = min(fam.masks, key=lambda m: bin(m).count("1"))
        report["dictator"] = indices_of(generator_mask)[0]
    return report


def rule_from_ultrafilter(u, election):
    """a ≺_soc b iff {x : a ≺_x b} ∈ 𝒰; always a strict order."""
    if u.ground.size != election.voters:
        raise ValueError("ultrafilter ground must equal the voter set")
    verdict = classify_family(u)
    if verdict.kind != "ultrafilter":
        raise NotUltrafilter("family is %s" % verdict.kind, verdict.witness)

    ranks = _rank_table(election)
    # a ≺_soc b puts b one place higher
    places = [[0] * election.candidates for _ in ranks.profiles]
    bits = [1 << v for v in range(election.voters)]
    for a, b in _ordered_pairs(election.candidates):
        for place, supporters in zip(places, _supporters(ranks, a, b, bits)):
            if u.has_mask(supporters):
                place[b] += 1
    by_places = {p: o for o, p in enumerate(ranks.pos)}
    return AggregationRule(election, table=[by_places[tuple(p)] for p in places])
