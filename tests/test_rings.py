import random

import pytest

from gradednil.corpus import corpus_documents
from gradednil.errors import ValidationError
from gradednil.grading import trivial_grading
from gradednil.rings import (
    TableRing,
    additive_closure,
    additive_span,
    check_ring_axioms,
    classify_element,
    idempotents,
    inverse_of,
    is_m_potent,
    is_nil_set,
    is_nilpotent,
    is_unit,
    jacobson_radical,
    lowest_irreducible,
    m_potents,
    make_gf,
    make_zn,
    nilpotency_index,
    product_ring,
    quotient_ring,
    subring_from_elements,
    unit_map,
)
from gradednil.search import _catalog_keys, _instance
from gradednil.specfile import parse_ring_spec

# ---------------------------------------------------------------------------
# independent oracles


def brute_nilpotency_index(ring, x):
    p = x
    for k in range(1, ring.size + 2):
        if p == 0:
            return k
        p = ring.mul(p, x)
    return None


def brute_power(ring, x, m):
    acc = ring.one
    for _ in range(m):
        acc = ring.mul(acc, x)
    return acc


def brute_inverse(ring, x):
    for y in ring.elements():
        if ring.mul(x, y) == ring.one and ring.mul(y, x) == ring.one:
            return y
    return None


def brute_unit_map(ring):
    """Pair sweep: each unit, ascending, with the first y that inverts it."""
    return {a: b for a in ring.elements() if (b := brute_inverse(ring, a)) is not None}


def brute_homogeneous_inverse(grading, u):
    """Scan the component of degree g^-1 for the inverse of u of degree g."""
    ring = grading.ring
    if u == 0:
        return brute_inverse(ring, 0)
    for y in sorted(grading.component(grading.group.inv(grading.degree_of(u)))):
        if ring.mul(u, y) == ring.one and ring.mul(y, u) == ring.one:
            return y
    return None


SMALL_RINGS = [make_zn(n) for n in (1, 2, 3, 4, 6, 8, 9)] + [make_gf(2, 2), make_gf(3, 2)]


@pytest.mark.parametrize("ring", SMALL_RINGS, ids=lambda r: r.label)
def test_ring_axioms_exhaustively(ring):
    check_ring_axioms(ring)


def cubic_ring_laws_hold(add, mul, one):
    """Reference: every ring law over every pair and triple of a raw table."""
    n = len(add)
    elems = range(n)
    if any(add[0][a] != a or add[a][0] != a for a in elems):
        return False
    if any(0 not in add[a] for a in elems):
        return False
    if any(mul[one][a] != a or mul[a][one] != a for a in elems):
        return False
    if any(add[a][b] != add[b][a] for a in elems for b in elems):
        return False
    for a in elems:
        for b in elems:
            ab, a_b = mul[a][b], add[a][b]
            for c in elems:
                if add[a_b][c] != add[a][add[b][c]]:
                    return False
                if mul[ab][c] != mul[a][mul[b][c]]:
                    return False
                if mul[a][add[b][c]] != add[ab][mul[a][c]]:
                    return False
                if mul[add[b][c]][a] != add[mul[b][a]][mul[c][a]]:
                    return False
    return True


def generator_check_witness(add, mul, one):
    """The law check's witness tuple, or None when it accepts."""
    try:
        check_ring_axioms(TableRing(add, mul, one=one, validate=False))
    except ValidationError as exc:
        return exc.witness
    return None


def _tables(ring):
    elems = ring.elements()
    return ([[ring.add(a, b) for b in elems] for a in elems],
            [[ring.mul(a, b) for b in elems] for a in elems])


def _law_fixture_rings():
    from gradednil.constructions import TriangularRing

    rings = [make_zn(n) for n in range(1, 13)]
    rings += [product_ring([make_zn(a), make_zn(b)])
              for a, b in ((2, 2), (2, 3), (2, 4), (3, 3), (2, 5), (2, 6), (3, 4))]
    rings += [product_ring([make_zn(2)] * 3), make_gf(2, 2), make_gf(2, 3), make_gf(3, 2)]
    rings.append(TriangularRing(make_zn(2), 2))  # noncommutative, 8 elements
    return rings


def _random_bilinear_tables(rng):
    """(Z2)^k with a random unital bilinear product: distributive by
    construction, and associative or not by chance."""
    n = 1 << rng.randint(1, 3)
    basis = [1 << i for i in range(n.bit_length() - 1)]
    # basis[0] is the identity; products of the other basis vectors are random
    table = {(b, c): rng.randrange(n) for b in basis[1:] for c in basis[1:]}
    for b in basis:
        table[1, b] = table[b, 1] = b

    def mul(x, y):
        acc = 0
        for b in basis:
            for c in basis:
                if x & b and y & c:
                    acc ^= table[b, c]
        return acc

    elems = range(n)
    return [[x ^ y for y in elems] for x in elems], [[mul(x, y) for y in elems] for x in elems], 1


def _perturbed_case(rng, rings):
    """A ring's tables, or a random bilinear product, relabelled (0 stays 0),
    with zero to two entries of the add or mul table overwritten; symmetric
    overwrites keep `+` commutative, so the later laws get exercised."""
    kind = rng.choice(("none", "mul", "mul-sym", "add-sym", "both", "bilinear"))
    if kind == "bilinear":
        add, mul, one = _random_bilinear_tables(rng)
    else:
        ring = rng.choice(rings)
        add, mul = _tables(ring)
        one = ring.one
    n = len(add)
    relabel = [0] + rng.sample(range(1, n), n - 1)
    inv = {v: k for k, v in enumerate(relabel)}
    add = [[relabel[add[inv[a]][inv[b]]] for b in range(n)] for a in range(n)]
    mul = [[relabel[mul[inv[a]][inv[b]]] for b in range(n)] for a in range(n)]
    one = relabel[one]
    if n > 1 and kind not in ("none", "bilinear"):
        a, b = rng.randrange(n), rng.randrange(n)
        if kind in ("mul", "both"):
            mul[a][b] = rng.randrange(n)
        if kind == "mul-sym":
            mul[a][b] = mul[b][a] = rng.randrange(n)
        if kind in ("add-sym", "both"):
            add[a][b] = add[b][a] = rng.randrange(n)
    return add, mul, one


def test_generator_law_check_matches_cubic_reference():
    """Seeded differential test: the O(|S| n^2) generator check accepts
    exactly the perturbed tables that the all-triples sweep accepts."""
    rng = random.Random(20240601)
    rings = _law_fixture_rings()
    accepted = 0
    laws = set()
    for case in range(2400):
        add, mul, one = _perturbed_case(rng, rings)
        expected = cubic_ring_laws_hold(add, mul, one)
        witness = generator_check_witness(add, mul, one)
        assert (witness is None) == expected, (case, witness, add, mul, one)
        accepted += expected
        if witness is not None:
            laws.add(witness[0])
    assert 200 <= accepted <= 2200
    # every generator-based law rejected some case
    assert {"addassoc", "ldist", "rdist", "mulassoc"} <= laws


def test_additive_closure_keeps_at_most_log2_generators():
    for ring in _law_fixture_rings():
        span, kept = additive_closure(ring, ring.elements())
        assert span == frozenset(ring.elements())
        assert 2 ** len(kept) <= ring.size
        assert additive_span(ring, kept) == span
        if isinstance(ring, TableRing):
            assert kept == ring.additive_generators()


def test_zero_ring():
    z1 = make_zn(1)
    assert z1.size == 1 and z1.one == 0
    assert nilpotency_index(z1, 0) == 1
    assert is_unit(z1, 0)
    assert inverse_of(z1, 0) == 0
    assert unit_map(z1) == {0: 0}
    assert trivial_grading(z1).homogeneous_unit_inverse(0) == 0


def test_zn_arithmetic():
    z4 = make_zn(4)
    assert z4.mul(2, 2) == 0
    assert z4.add(3, 2) == 1
    z3 = make_zn(3)
    assert all(is_unit(z3, x) for x in range(1, 3))


def test_gf_construction():
    gf2 = make_gf(2)
    assert gf2.size == 2
    gf3 = make_gf(3)
    assert all(brute_power(gf3, a, 3) == a for a in gf3.elements())
    gf4 = make_gf(2, 2)
    assert all(brute_power(gf4, a, 4) == a for a in gf4.elements())
    with pytest.raises(ValidationError):
        make_gf(4)


def test_gf_modulus_is_deterministic():
    assert lowest_irreducible(2, 2) == (1, 1, 1)      # x^2 + x + 1
    assert lowest_irreducible(3, 2) == (1, 0, 1)      # x^2 + 1
    assert lowest_irreducible(2, 3) == (1, 1, 0, 1)   # x^3 + x + 1


@pytest.mark.parametrize("p,k", [(2, 2), (3, 2), (2, 3), (5, 1)])
def test_gf_nonzero_elements_form_cyclic_group(p, k):
    ring = make_gf(p, k)
    q = p**k
    orders = set()
    for a in range(1, q):
        acc, n = a, 1
        while acc != ring.one:
            acc = ring.mul(acc, a)
            n += 1
        orders.add(n)
    assert max(orders) == q - 1  # a generator exists


@pytest.mark.parametrize("ring", SMALL_RINGS, ids=lambda r: r.label)
def test_nilpotency_matches_brute_force(ring):
    for x in ring.elements():
        assert nilpotency_index(ring, x) == brute_nilpotency_index(ring, x)


def test_nilpotency_examples():
    z4 = make_zn(4)
    assert nilpotency_index(z4, 0) == 1
    assert nilpotency_index(z4, 2) == 2
    gf3 = make_gf(3)
    assert all(not is_nilpotent(gf3, x) for x in range(1, 3))


@pytest.mark.parametrize("ring", SMALL_RINGS, ids=lambda r: r.label)
@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_m_potents_match_brute_force(ring, m):
    for x in ring.elements():
        assert is_m_potent(ring, x, m) == (brute_power(ring, x, m) == x)


def test_m_potent_examples():
    z3, z4 = make_zn(3), make_zn(4)
    assert is_m_potent(z3, 0, 5)
    assert is_m_potent(z3, 2, 3)
    assert not is_m_potent(z4, 2, 2)
    assert idempotents(z4) == [0, 1]
    with pytest.raises(ValidationError):
        is_m_potent(z4, 1, 1)


@pytest.mark.parametrize("ring", SMALL_RINGS, ids=lambda r: r.label)
def test_units_match_brute_force(ring):
    for x in ring.elements():
        assert inverse_of(ring, x) == brute_inverse(ring, x)
    assert list(unit_map(ring).items()) == list(brute_unit_map(ring).items())


def _structured_cases(source):
    """(label, ring, grading or None) for each ring of at most 256 elements:
    the ring and the identity subring of each corpus entry of that size, or
    each ring the search catalog builds at m = 2."""
    if source == "corpus":
        for name, text in corpus_documents():
            grading = parse_ring_spec(text).grading
            if grading.ring.size > 256:
                continue
            yield name, grading.ring, grading
            identity = grading.component(grading.group.identity)
            yield f"{name}_e", subring_from_elements(grading.ring, identity)[0], None
    else:
        for key in _catalog_keys():
            spec = _instance(key) if key[-1] == 2 else None
            if spec is not None and spec.grading.ring.size <= 256:
                yield spec.name, spec.grading.ring, spec.grading


@pytest.mark.parametrize("source", ["corpus", "search"])
def test_power_orbit_matches_scans_on_structured_rings(source):
    """Nilpotency and inverses from the power walk agree with the scans, on
    table and structured rings alike."""
    tested = 0
    for label, ring, grading in _structured_cases(source):
        tested += 1
        units = brute_unit_map(ring)
        for x in ring.elements():
            assert nilpotency_index(ring, x) == brute_nilpotency_index(ring, x), (label, x)
            assert inverse_of(ring, x) == units.get(x), (label, x)
        assert list(unit_map(ring).items()) == list(units.items()), label
        if grading is not None:
            for u, _ in grading.homogeneous_elements():
                assert grading.homogeneous_unit_inverse(u) == brute_homogeneous_inverse(
                    grading, u), (label, u)
    assert tested >= 40


def test_unit_examples():
    z4 = make_zn(4)
    assert inverse_of(z4, 1) == 1
    assert inverse_of(z4, 3) == 3
    assert not is_unit(z4, 2)


@pytest.mark.parametrize("ring", SMALL_RINGS, ids=lambda r: r.label)
def test_nilpotent_and_unit_exclusive(ring):
    if ring.size == 1:
        return
    for x in ring.elements():
        assert not (is_nilpotent(ring, x) and is_unit(ring, x))


def test_jacobson_radical_examples():
    assert jacobson_radical(make_gf(3)) == frozenset({0})
    assert jacobson_radical(make_zn(4)) == frozenset({0, 2})
    assert jacobson_radical(make_zn(9)) == frozenset({0, 3, 6})


def test_radical_quotient_is_semiprimitive():
    for ring in (make_zn(4), make_zn(8), make_zn(9), make_zn(6)):
        rad = jacobson_radical(ring)
        assert ring.one not in rad
        quot, _ = quotient_ring(ring, rad)
        assert jacobson_radical(quot) == frozenset({0})


def test_is_nil_set():
    z4 = make_zn(4)
    assert is_nil_set(z4, {0})
    assert is_nil_set(z4, jacobson_radical(z4))
    assert not is_nil_set(z4, {1})


def test_quotient_examples():
    z4 = make_zn(4)
    whole, _ = quotient_ring(z4, set(range(4)))
    assert whole.size == 1
    q, proj = quotient_ring(z4, {0, 2})
    assert q.size == 2
    assert proj[0] == proj[2] and proj[1] == proj[3]
    assert q.mul(proj[3], proj[3]) == proj[1]
    iso, _ = quotient_ring(z4, {0})
    assert iso.size == 4


def test_quotient_rejects_non_ideal():
    z4 = make_zn(4)
    with pytest.raises(ValidationError) as err:
        quotient_ring(z4, {0, 1})
    assert err.value.witness is not None


def test_product_ring():
    z2, z4 = make_zn(2), make_zn(4)
    single = product_ring([z4])
    assert single.size == 4 and single.mul(3, 3) == 1
    p = product_ring([z2, z2])
    e10 = p.encode((1, 0))
    assert p.mul(e10, e10) == e10 and not is_unit(p, e10)
    p24 = product_ring([z2, z4])
    x = p24.encode((0, 2))
    assert nilpotency_index(p24, x) == 2
    check_ring_axioms(p24)


def test_subring_extraction():
    z4 = make_zn(4)
    with pytest.raises(ValidationError):
        subring_from_elements(z4, {0, 2})  # misses 1
    p = product_ring([z4, z4])
    diag = {p.encode((a, a)) for a in range(4)}
    sub, index, members = subring_from_elements(p, diag)
    assert sub.size == 4
    assert sub.mul(index[p.encode((2, 2))], index[p.encode((2, 2))]) == 0


def test_table_ring_rejects_broken_laws():
    # multiplication table that is not associative
    add = [[0, 1], [1, 0]]
    bad_mul = [[0, 1], [1, 1]]
    with pytest.raises(ValidationError):
        TableRing(add, bad_mul, one=1)


def test_classify_element():
    z4 = make_zn(4)
    c = classify_element(z4, 2, ms=(2, 3))
    assert c.is_nilpotent and c.nilpotency_index == 2
    assert not c.is_unit and c.inverse is None
    assert c.m_potent_for == {2: False, 3: False}
    c1 = classify_element(z4, 1, ms=(2,))
    assert c1.is_unit and c1.inverse == 1 and c1.m_potent_for[2]


def test_gf_size_cap():
    from gradednil.errors import ResourceLimitError

    with pytest.raises(ResourceLimitError):
        make_gf(2, 9)  # 512^2 table entries exceed the cap
    with pytest.raises(ResourceLimitError):
        make_zn(257)  # Z_n tables share the cap
    assert make_zn(256).size == 256


def test_product_ring_cap():
    from gradednil.errors import ResourceLimitError

    with pytest.raises(ResourceLimitError):
        product_ring([make_zn(64), make_zn(64)], max_elements=1000)


def test_m_potent_cache_is_sorted_ascending():
    z9 = make_zn(9)
    pots = m_potents(z9, 3)
    assert pots == sorted(pots)
    assert pots == [x for x in z9.elements() if brute_power(z9, x, 3) == x]
