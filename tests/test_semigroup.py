"""Finite semigroups: table validation, ideal structure, kernels, the
idempotent order, direct products, and the ultrafilter product."""

import copy
import hashlib
import pickle
import random
import tracemalloc
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ufw import semigroup
from ufw.errors import CapExceeded, NotAssociative, NotUltrafilter
from ufw.semigroup import (
    PRODUCT_ORDER_CAP,
    CayleyTable,
    cyclic_table,
    direct_product,
    enumerate_associative_tables,
    ideal_report,
    idempotents,
    is_minimal_element,
    kernel,
    left_zero_table,
    minimal_left_ideals,
    mult_mod_table,
    right_zero_table,
    ultrafilter_product,
)
from ufw.setfam import GroundSet, SetFamily, classify_family, principal_ultrafilter


def all_assoc(n):
    return list(enumerate_associative_tables(n))


def two_sided_ideals(table):
    """Brute-force oracle: every non-empty I with S·I ∪ I·S ⊆ I, as sorted
    tuples in mask order."""
    n, mul = table.n, table.mul
    out = []
    for mask in range(1, 1 << n):
        members = [i for i in range(n) if mask >> i & 1]
        if all(mask >> mul[s][i] & 1 and mask >> mul[i][s] & 1 for i in members for s in range(n)):
            out.append(tuple(members))
    return out


# --- construction and validation -------------------------------------------


def test_a_table_holds_its_rows_and_order_alone():
    t = cyclic_table(3)
    assert CayleyTable._fields == ("mul", "n")
    assert (t.mul, t.n) == (((0, 1, 2), (1, 2, 0), (2, 0, 1)), 3)


def test_non_associative_first_witness():
    # subtraction-like table: (a-b) mod 3, neither associative nor
    # commutative; the constructor names the lexicographically least triple
    with pytest.raises(NotAssociative, match="^table is not associative$") as err:
        CayleyTable([[(a - b) % 3 for b in range(3)] for a in range(3)])
    assert err.value.witness == (0, 0, 1)


def test_a_non_associative_table_is_refused_where_it_is_read():
    # no function of the module ever sees a magma: the JSON reader and the
    # zoo's checking constructor refuse it
    rows = [[(a - b) % 3 for b in range(3)] for a in range(3)]
    with pytest.raises(NotAssociative) as err:
        CayleyTable.from_json({"n": 3, "mul": rows})
    assert err.value.witness == (0, 0, 1)
    # a declared order that disagrees is bad input, found before the scan
    with pytest.raises(ValueError, match="^declared order disagrees with the table$"):
        CayleyTable.from_json({"n": 4, "mul": rows})


def test_json_roundtrip():
    t = mult_mod_table(4)
    assert CayleyTable.from_json(t.to_json()).mul == t.mul


# --- enumeration oracles ---------------------------------------------------


def test_labeled_associative_counts():
    # frozen against an independent published count of labeled semigroups
    assert len(all_assoc(1)) == 1
    assert len(all_assoc(2)) == 8
    assert len(all_assoc(3)) == 113
    assert len(all_assoc(4)) == 3492


def _partial_assoc_ok(mul, i, j, n):
    """Check every associativity triple that became fully determined when
    cell (i, j) was filled; unfilled cells hold -1.  A triple (a, b, c)
    needs cells (a,b), (b,c), (ab,c), (a,bc); only triples using the new
    cell in one of those roles can have become checkable, which keeps this
    O(n²) per filled cell."""

    def triple_ok(a, b, c):
        ab = mul[a][b]
        bc = mul[b][c]
        if ab < 0 or bc < 0:
            return True
        left = mul[ab][c]
        right = mul[a][bc]
        return left < 0 or right < 0 or left == right

    # (a, b) = (i, j) or (b, c) = (i, j)
    for c in range(n):
        if not triple_ok(i, j, c):
            return False
    for a in range(n):
        if not triple_ok(a, i, j):
            return False
    # (i, j) plays the role of (ab, c) or (a, bc)
    for a in range(n):
        row = mul[a]
        for b in range(n):
            ab = row[b]
            if ab == i and not triple_ok(a, b, j):
                return False
            if ab == j and not triple_ok(i, a, b):
                return False
    return True


def _oracle_tables(n):
    """The mul tuples of every associative table of order n: row-major
    fill, values ascending, each value checked by _partial_assoc_ok alone
    (no forcing, no index of cells by product)."""
    cells = [(i, j) for i in range(n) for j in range(n)]
    mul = [[-1] * n for _ in range(n)]

    def fill(pos):
        if pos == len(cells):
            yield tuple(tuple(row) for row in mul)
            return
        i, j = cells[pos]
        for v in range(n):
            mul[i][j] = v
            if _partial_assoc_ok(mul, i, j, n):
                yield from fill(pos + 1)
        mul[i][j] = -1

    return list(fill(0))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_enumeration_matches_oracle_in_order(n):
    assert [t.mul for t in enumerate_associative_tables(n)] == _oracle_tables(n)


def test_order_5_enumeration_is_pinned():
    # 183,732 tables (A023814(5)) and the sha256 of their row-major cells,
    # one byte a cell, both recorded before the fill propagated forced cells
    digest = hashlib.sha256()
    count = 0
    for table in enumerate_associative_tables(5):
        digest.update(bytes(v for row in table.mul for v in row))
        count += 1
    assert count == 183732
    assert digest.hexdigest() == "e17a0eef74959f07a5a403591533fad1669405f1e00e361b3f10f8cd0db9618e"


@pytest.mark.parametrize("n", [1, 2, 3])
def test_enumeration_order_is_lexicographic(n):
    # the order of itertools.product over the row-major cells, which callers
    # that read tables by index depend on
    brute = [tuple(map(tuple, mul)) for mul in _associative_tables(n)]
    assert [t.mul for t in enumerate_associative_tables(n)] == brute


# --- ideal structure oracles ------------------------------------------------


def _principal_left_ideal(table, x):
    """S·x as a sorted tuple (a left ideal; x itself need not belong)."""
    return tuple(sorted({table.mul[s][x] for s in range(table.n)}))


def _oracle_minimal_left_ideals(table):
    """The set-based criterion: L = S·x is minimal iff S·y = L for every y
    in L; sorted tuples in sorted order."""
    principal = [_principal_left_ideal(table, x) for x in range(table.n)]
    return sorted({L for L in principal if all(principal[y] == L for y in L)})


def _oracle_kernel(table):
    return tuple(sorted(set().union(*_oracle_minimal_left_ideals(table))))


def _assert_ideals_agree(table):
    lefts, ker = _oracle_minimal_left_ideals(table), _oracle_kernel(table)
    assert minimal_left_ideals(table) == lefts
    assert kernel(table) == ker
    rep = ideal_report(table)
    assert rep["minimal_left_ideals"] == lefts
    assert rep["kernel"] == ker
    assert rep["minimal_idempotents"] == tuple(e for e in idempotents(table) if e in ker)


def test_ideals_agree_with_the_set_oracle_through_order_4():
    for n in (1, 2, 3, 4):
        for t in all_assoc(n):
            _assert_ideals_agree(t)


def test_ideals_agree_with_the_set_oracle_on_direct_products():
    rng = random.Random(25)
    pool = all_assoc(2) + all_assoc(3) + [mult_mod_table(5), cyclic_table(5), right_zero_table(4)]
    for _ in range(12):
        t = rng.choice(pool)
        while t.n < 20:
            t = direct_product(t, rng.choice(pool))
        _assert_ideals_agree(t)


def test_the_ideal_report_table_that_is_no_semigroup_raises_its_witness():
    # the table of the golden ``sg report`` case that exits 1
    with pytest.raises(NotAssociative) as err:
        CayleyTable([[1, 0, 0], [0, 0, 0], [0, 0, 2]])
    assert err.value.witness == (0, 0, 1)


def test_cyclic_group_ideals():
    t = cyclic_table(4)
    assert idempotents(t) == (0,)
    assert kernel(t) == (0, 1, 2, 3)
    assert list(minimal_left_ideals(t)) == [(0, 1, 2, 3)]


def test_left_zero_structure():
    # a·b = a: every singleton {a}·S = {a}; every element is idempotent
    t = left_zero_table(3)
    assert idempotents(t) == (0, 1, 2)
    assert kernel(t) == (0, 1, 2)
    assert list(minimal_left_ideals(t)) == [(0, 1, 2)]
    assert _principal_left_ideal(t, 1) == (0, 1, 2)


def test_right_zero_structure():
    t = right_zero_table(3)
    assert idempotents(t) == (0, 1, 2)
    assert list(minimal_left_ideals(t)) == [(0,), (1,), (2,)]
    assert kernel(t) == (0, 1, 2)


def test_mult_mod_kernel():
    # multiplication mod 4: kernel is the absorbing ideal {0}
    t = mult_mod_table(4)
    assert kernel(t) == (0,)
    assert is_minimal_element(t, 0)
    assert not is_minimal_element(t, 2)


def test_two_sided_ideals_contain_kernel():
    for t in all_assoc(3):
        ker = set(kernel(t))
        for ideal in two_sided_ideals(t):
            assert ker <= set(ideal)


def test_kernel_is_least_two_sided_ideal_exhaustive_order3():
    for t in all_assoc(3):
        ideals = two_sided_ideals(t)
        least = min(ideals, key=len)
        assert set(kernel(t)) == set(least)


def test_kernel_equals_minimal_left_ideal_union_and_minimal_elements():
    for t in all_assoc(3):
        ker = set(kernel(t))
        union = {x for ideal in minimal_left_ideals(t) for x in ideal}
        assert ker == union
        assert ker == {x for x in range(t.n) if is_minimal_element(t, x)}


def test_idempotent_order_minimality_iff_kernel_membership():
    for t in all_assoc(3):
        ker = set(kernel(t))
        idems = idempotents(t)
        assert idems  # finite semigroups always have an idempotent
        pairs = set(ideal_report(t)["order_pairs"])
        assert pairs == {
            (f, e) for f in idems for e in idems if t.mul[f][e] == f == t.mul[e][f]
        }
        for e in idems:
            minimal = all(not ((f, e) in pairs and (e, f) not in pairs) for f in idems)
            assert minimal == (e in ker)


def test_ideal_report_shape():
    rep = ideal_report(cyclic_table(2))
    assert rep["kernel"] == (0, 1)
    assert rep["idempotents"] == (0,)
    assert rep["minimal_idempotents"] == (0,)
    assert (0, 0) in rep["order_pairs"]


# --- products --------------------------------------------------------------


def test_direct_product_kernel_law_spot():
    s, t = cyclic_table(2), mult_mod_table(3)
    prod = direct_product(s, t)
    ker_prod = set(kernel(prod))
    expect = {a * t.n + b for a in kernel(s) for b in kernel(t)}
    assert ker_prod == expect


def test_direct_product_order_and_assoc():
    prod = direct_product(left_zero_table(2), right_zero_table(2))
    assert prod.n == 4 and CayleyTable(prod.mul) == prod


def test_direct_product_refuses_an_order_past_its_cap_before_filling(monkeypatch):
    # 20 × 20 = 400 is the largest order built; 21 × 21 is refused at once.
    # The order-400 table is stored as built, not scanned for associativity
    assert PRODUCT_ORDER_CAP == 400
    with pytest.raises(CapExceeded, match="^product order 441 exceeds cap 400$"):
        direct_product(cyclic_table(21), cyclic_table(21))
    z20 = cyclic_table(20)

    def no_scan(mul):
        raise AssertionError("a product is a semigroup by type")

    monkeypatch.setattr(semigroup, "_assoc_witness", no_scan)
    prod = direct_product(z20, z20)
    assert prod.n == 400 and prod.mul[21][399] == 0


def test_commutative_kernels_are_groups_exhaustive_order3():
    for t in all_assoc(3):
        if t.mul != tuple(zip(*t.mul)):  # not commutative
            continue
        (e,) = ideal_report(t)["minimal_idempotents"]
        ker = kernel(t)
        for k in ker:
            assert t.mul[e][k] == k
            assert sum(t.mul[k][m] == e for m in ker) == 1


# --- ultrafilter product ---------------------------------------------------


def test_principal_product_law_small():
    for t in (cyclic_table(3), left_zero_table(3), mult_mod_table(3)):
        g = GroundSet(t.n)
        for x in range(t.n):
            for y in range(t.n):
                u = principal_ultrafilter(g, x)
                v = principal_ultrafilter(g, y)
                assert ultrafilter_product(t, u, v) == principal_ultrafilter(
                    g, t.mul[x][y]
                )


def test_ultrafilter_product_rejects_non_ultrafilter():
    t = cyclic_table(3)
    triv = SetFamily(GroundSet(3), [[0, 1, 2]])
    with pytest.raises(NotUltrafilter):
        ultrafilter_product(t, triv, principal_ultrafilter(GroundSet(3), 0))


@given(st.integers(2, 4), st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_product_associativity_principal(n, x, y, z):
    t = cyclic_table(n)
    g = GroundSet(n)
    x, y, z = x % n, y % n, z % n
    ux, uy, uz = (principal_ultrafilter(g, w) for w in (x, y, z))
    left = ultrafilter_product(t, ultrafilter_product(t, ux, uy), uz)
    right = ultrafilter_product(t, ux, ultrafilter_product(t, uy, uz))
    assert left == right


def _associative_tables(n):
    """Every associative table of order n, by brute force over all tables."""
    for cells in product(range(n), repeat=n * n):
        mul = [cells[i * n:(i + 1) * n] for i in range(n)]
        if all(mul[mul[a][b]][c] == mul[a][mul[b][c]]
               for a in range(n) for b in range(n) for c in range(n)):
            yield mul


def _product_oracle(mul, u, v):
    """A ∈ 𝓤·𝓥 iff {x : x⁻¹A ∈ 𝓥} ∈ 𝓤, with x⁻¹A = {y : x·y ∈ A}; families
    are sets of frozensets, and nothing is shared with ufw."""
    n = len(mul)
    out = set()
    for bits in product((0, 1), repeat=n):
        a = frozenset(z for z in range(n) if bits[z])
        xs = frozenset(x for x in range(n) if frozenset(y for y in range(n) if mul[x][y] in a) in v)
        if xs in u:
            out.add(a)
    return out


def _principal(n, x):
    return {frozenset(z for z in range(n) if bits[z]) for bits in product((0, 1), repeat=n) if bits[x]}


def _check_products(mul):
    n = len(mul)
    table, ground = CayleyTable(mul), GroundSet(n)
    for x in range(n):
        for y in range(n):
            got = ultrafilter_product(table, principal_ultrafilter(ground, x), principal_ultrafilter(ground, y))
            expect = _product_oracle(mul, _principal(n, x), _principal(n, y))
            assert {frozenset(m) for m in got.members} == expect


def test_ultrafilter_product_matches_definition_through_order_3():
    tables = [mul for n in (1, 2, 3) for mul in _associative_tables(n)]
    assert len(tables) == 1 + 8 + 113
    for mul in tables:
        _check_products(mul)


def test_ultrafilter_product_matches_definition_on_order_4_sample():
    for table in random.Random(4).sample(all_assoc(4), 40):
        _check_products(table.mul)


_ZOO = (cyclic_table, mult_mod_table, left_zero_table, right_zero_table)


@st.composite
def zoo_tables(draw):
    """A zoo table of order 1–6, or a direct product of two of order ≤ 6."""
    if draw(st.booleans()):
        return draw(st.sampled_from(_ZOO))(draw(st.integers(1, 6)))
    m = draw(st.integers(1, 6))
    k = draw(st.integers(1, 6 // m))
    return direct_product(draw(st.sampled_from(_ZOO))(m), draw(st.sampled_from(_ZOO))(k))


@given(zoo_tables())
@settings(max_examples=60, deadline=None)
def test_ultrafilter_product_matches_definition_on_zoo_tables(table):
    # every pair, since on a finite set every ultrafilter is principal
    _check_products(table.mul)


def test_ultrafilter_product_checks_in_order():
    t, g3, g2 = cyclic_table(3), GroundSet(3), GroundSet(2)
    uf3, uf2 = principal_ultrafilter(g3, 1), principal_ultrafilter(g2, 0)
    filt = SetFamily(g3, [[0, 1], [0, 1, 2]])
    # each argument in turn: its ground, then its verdict; the table is a
    # semigroup by type
    with pytest.raises(ValueError, match="^first family ground size"):
        ultrafilter_product(t, uf2, filt)
    with pytest.raises(ValueError, match="^second family ground size"):
        ultrafilter_product(t, uf3, uf2)
    with pytest.raises(NotUltrafilter, match="^first argument is filter") as err:
        ultrafilter_product(t, filt, uf2)
    assert err.value.witness == classify_family(filt).witness
    with pytest.raises(NotUltrafilter, match="^second argument is filter") as err:
        ultrafilter_product(t, uf3, filt)
    assert err.value.witness == classify_family(filt).witness is not None


def test_preimage_masks_are_built_on_the_first_product_only():
    # the masks live in the table's _preimage_masks slot once built
    tables = all_assoc(4)
    assert len(tables) == 3492
    assert all(t._preimage_masks is None for t in tables)
    table, g = tables[-1], GroundSet(4)
    u, v = principal_ultrafilter(g, 1), principal_ultrafilter(g, 2)
    first = ultrafilter_product(table, u, v)
    masks = table._preimage_masks
    assert masks is not None
    assert ultrafilter_product(table, u, v) == first
    assert table.preimage_masks is masks
    # x⁻¹A for every x and every mask, as the definition reads it
    assert masks == tuple(
        tuple(sum(1 << y for y in range(4) if a >> table.mul[x][y] & 1) for a in range(16))
        for x in range(4)
    )


# --- compact tables ----------------------------------------------------------


def test_tables_carry_no_instance_dict():
    for table in (cyclic_table(3), all_assoc(2)[0]):
        assert not hasattr(table, "__dict__")
        with pytest.raises(AttributeError):
            table.extra = 1
        with pytest.raises(AttributeError):
            object.__setattr__(table, "extra", 1)


def test_enumerated_tables_share_their_rows():
    # one object per distinct row: at most 4⁴ rows across all 3,492 tables
    tables = all_assoc(4)
    rows = [row for t in tables for row in t.mul]
    assert len({id(row) for row in rows}) == len(set(rows)) <= 4**4


def test_enumerated_table_bytes():
    # 195 bytes a table at order 4 when measured; 507 with an instance dict
    # and private rows
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tables = all_assoc(4)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown / len(tables) <= 260


@pytest.mark.parametrize(
    "clone", [copy.copy, copy.deepcopy, lambda t: pickle.loads(pickle.dumps(t))]
)
def test_tables_copy_and_pickle_after_the_masks_are_read(clone):
    table = all_assoc(3)[-1]
    masks = table.preimage_masks
    twin = clone(table)
    # tables compare by mul and n
    assert twin == table and type(twin) is CayleyTable
    assert twin.preimage_masks == masks


def test_a_pickled_table_is_checked_again_when_loaded():
    # __reduce__ rebuilds through the checking constructor, so rows altered
    # in transit are refused
    cls, args = cyclic_table(3).__reduce__()
    assert cls(*args) == cyclic_table(3)
    with pytest.raises(NotAssociative) as err:
        cls(((1, 0, 0), (0, 0, 0), (0, 0, 2)))
    assert err.value.witness == (0, 0, 1)


def test_assoc_witness_is_the_lex_first_failing_triple():
    # the row-at-a-time scan names the same witness as the triple loop
    rng = random.Random(7)
    for _ in range(2000):
        n = rng.randint(1, 5)
        mul = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.5:  # one cell off an associative table
            mul = [list(row) for row in rng.choice([cyclic_table, mult_mod_table])(n).mul]
            mul[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
        first = next(
            (
                (a, b, c)
                for a, b, c in product(range(n), repeat=3)
                if mul[mul[a][b]][c] != mul[a][mul[b][c]]
            ),
            None,
        )
        if first is None:
            assert CayleyTable(mul).mul == tuple(map(tuple, mul))
        else:
            with pytest.raises(NotAssociative) as err:
                CayleyTable(mul)
            assert err.value.witness == first


def test_tables_the_library_builds_unchecked_pass_the_check():
    # the enumerator's leaves and direct products skip the associativity
    # scan; the checking constructor accepts every one of them as it is
    tables = [t for n in (1, 2, 3, 4) for t in enumerate_associative_tables(n)]
    assert all(CayleyTable(t.mul) == t for t in tables)
    small = [t for t in tables if t.n <= 3]
    assert len(small) == 1 + 8 + 113
    for s in small:
        for t in small:
            prod = direct_product(s, t)
            assert CayleyTable(prod.mul) == prod
