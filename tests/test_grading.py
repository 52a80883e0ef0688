import pytest

from gradednil.constructions import diagonal_z_grading, matrix_graded, triangular_graded
from gradednil.corpus import corpus_document
from gradednil.errors import ResourceLimitError, ValidationError
from gradednil.grading import (
    NOT_HOMOGENEOUS,
    ZERO_DEGREE,
    graded_jacobson_radical,
    graded_maximal_right_ideals,
    graded_quotient,
    homogeneous_right_ideal_closure,
    homogeneous_two_sided_ideal_closure,
    is_graded_local,
    is_graded_nil,
    trivial_grading,
    verify_grading,
)
from gradednil.groups import make_cyclic
from gradednil.rings import jacobson_radical, make_gf, make_zn, subring_from_elements
from gradednil.specfile import parse_ring_spec

C2 = make_cyclic(2)


@pytest.fixture(scope="module")
def t2_gf3():
    grading, ideal = triangular_graded(trivial_grading(make_gf(3), C2), 2, [0, 1])
    return grading, ideal


@pytest.fixture(scope="module")
def t2_z2():
    grading, ideal = triangular_graded(trivial_grading(make_zn(2), C2), 2, [0, 1])
    return grading, ideal


@pytest.fixture(scope="module")
def t3_z4_c2():
    """4096 elements: far too many homogeneous right ideals to list."""
    return parse_ring_spec(corpus_document("t3-z4-c2")).grading


def test_trivial_grading_valid_for_any_ring():
    for ring in (make_zn(4), make_gf(2, 2), make_zn(1)):
        g = trivial_grading(ring)
        if ring.size > 1:
            assert g.support == frozenset({0})
        else:
            assert g.support == frozenset()


def test_explicit_grading_validation(t2_gf3):
    grading, _ = t2_gf3
    ring = grading.ring
    # rebuild from explicit generator sets and compare components
    diag = [ring.encode_entries({(0, 0): a, (1, 1): d}) for a in range(3) for d in range(3)]
    upper = [ring.encode_entries({(0, 1): b}) for b in range(3)]
    rebuilt = verify_grading(ring, C2, {0: diag, 1: upper})
    assert rebuilt.components == grading.components


def test_grading_failures_carry_witnesses():
    z4 = make_zn(4)
    # direct-sum failure: components {0,2} and {0,2} overlap
    with pytest.raises(ValidationError):
        verify_grading(z4, C2, {0: [0, 2], 1: [2]})
    # identity not in the declared identity component
    with pytest.raises(ValidationError):
        verify_grading(z4, C2, {0: [0, 2], 1: [1]})
    # multiplicativity failure: Z4 = {0,2} + {1,3}? additive spans collide
    gf3 = make_gf(3)
    with pytest.raises(ValidationError) as err:
        verify_grading(gf3, C2, {0: [1], 1: [1]})
    assert err.value.witness is not None


def test_multiplicativity_failure_above_the_table_cap_has_a_witness():
    """Multiplicativity is checked on component generators at any size."""
    from gradednil.constructions import MatrixRing

    ring = MatrixRing(make_zn(5), 2)  # 625 elements: no memo tables
    unit = {pos: ring.encode_entries({pos: 1}) for pos in ring.positions}
    # upper triangular in degree 0, E21 in degree 1: a direct sum holding 1,
    # but E12 * E21 = E11 leaves degree 1
    components = {0: [unit[0, 0], unit[1, 1], unit[0, 1]], 1: [unit[1, 0]]}
    with pytest.raises(ValidationError) as err:
        verify_grading(ring, C2, components)
    assert err.value.witness == ("multiplicativity", unit[0, 1], unit[1, 0], 0, 1)
    assert ring.mul(unit[0, 1], unit[1, 0]) == unit[0, 0]
    assert ring._mul_table is None


def test_degree_of_and_decompose(t2_gf3):
    grading, _ = t2_gf3
    ring = grading.ring
    assert grading.degree_of(0) is ZERO_DEGREE
    one = ring.one
    assert grading.degree_of(one) == 0
    e12 = ring.encode_entries({(0, 1): 1})
    assert grading.degree_of(e12) == 1
    mixed = ring.add(one, e12)
    assert grading.degree_of(mixed) is NOT_HOMOGENEOUS
    parts = grading.decompose(mixed)
    assert parts == {0: one, 1: e12}
    assert grading.decompose(0) == {}
    homogeneous = ring.encode_entries({(0, 0): 2})
    assert list(grading.decompose(homogeneous)) == [0]


def test_decomposition_parts_sum_back(t2_gf3):
    grading, _ = t2_gf3
    ring = grading.ring
    for x in ring.elements():
        acc = 0
        for part in grading.decompose(x).values():
            acc = ring.add(acc, part)
        assert acc == x


def test_homogeneous_elements_iterator(t2_gf3):
    grading, _ = t2_gf3
    items = list(grading.homogeneous_elements())
    assert items[0] == (0, ZERO_DEGREE)
    assert len(items) == 11  # 8 diagonal + 2 strictly-upper nonzero + the zero entry
    seen = [x for x, _ in items]
    assert len(seen) == len(set(seen))


def test_homogeneous_elements_trivial_and_zero_ring():
    z4 = trivial_grading(make_zn(4))
    assert len(list(z4.homogeneous_elements())) == 4
    zero = trivial_grading(make_zn(1))
    assert list(zero.homogeneous_elements()) == [(0, ZERO_DEGREE)]


def test_powers_of_homogeneous_elements_stay_homogeneous(t2_gf3):
    grading, _ = t2_gf3
    ring = grading.ring
    group = grading.group
    for x, g in grading.homogeneous_elements():
        if g is ZERO_DEGREE:
            continue
        p = x
        for k in range(2, 6):
            p = ring.mul(p, x)
            if p == 0:
                break
            assert grading.degree_of(p) == group.power(g, k)


def test_right_ideal_closure_examples(t2_z2):
    grading, _ = t2_z2
    ring = grading.ring
    assert homogeneous_right_ideal_closure(grading, [0]).elements == frozenset({0})
    assert len(homogeneous_right_ideal_closure(grading, [ring.one])) == ring.size
    e12 = ring.encode_entries({(0, 1): 1})
    ideal = homogeneous_right_ideal_closure(grading, [e12])
    assert ideal.elements == frozenset({0, e12})
    with pytest.raises(ValidationError):
        homogeneous_right_ideal_closure(grading, [ring.add(ring.one, e12)])


def test_two_sided_closure_is_two_sided(t2_z2):
    grading, _ = t2_z2
    ring = grading.ring
    e22 = ring.encode_entries({(1, 1): 1})
    ideal = homogeneous_two_sided_ideal_closure(grading, [e22])
    for a in ideal.elements:
        for r in ring.elements():
            assert ring.mul(r, a) in ideal.elements
            assert ring.mul(a, r) in ideal.elements


def test_graded_maximal_right_ideals_examples(t2_z2):
    field = trivial_grading(make_gf(3))
    (only,) = graded_maximal_right_ideals(field)
    assert only.elements == frozenset({0})

    z4 = trivial_grading(make_zn(4))
    (only,) = graded_maximal_right_ideals(z4)
    assert only.elements == frozenset({0, 2})

    grading, _ = t2_z2
    maximal = graded_maximal_right_ideals(grading)
    assert len(maximal) == 2


def test_graded_jacobson_radical_examples(t2_z2, t3_z4_c2):
    assert graded_jacobson_radical(trivial_grading(make_gf(3))).elements == frozenset({0})
    assert graded_jacobson_radical(trivial_grading(make_zn(4))).elements == frozenset({0, 2})
    assert graded_jacobson_radical(trivial_grading(make_zn(1))).elements == frozenset({0})
    grading, _ = t2_z2
    with pytest.raises(ResourceLimitError):  # the lattice cap does not bound the radical
        graded_maximal_right_ideals(grading, max_ideals=2)
    e12 = grading.ring.encode_entries({(0, 1): 1})
    jg = graded_jacobson_radical(grading)
    assert jg.elements == frozenset({0, e12})
    assert jg.sidedness == "two-sided"
    assert len(graded_jacobson_radical(t3_z4_c2)) == 512


def test_is_graded_nil(t2_z2):
    grading, strict = t2_z2
    assert is_graded_nil(grading, strict)
    jg = graded_jacobson_radical(grading)
    assert is_graded_nil(grading, jg)
    full = homogeneous_right_ideal_closure(grading, [grading.ring.one])
    assert not is_graded_nil(grading, full)


def test_graded_local_examples(t2_z2, t3_z4_c2):
    assert is_graded_local(trivial_grading(make_gf(3)))
    assert is_graded_local(trivial_grading(make_zn(4)))
    from gradednil.rings import product_ring
    z2z2 = product_ring([make_zn(2), make_zn(2)])
    assert not is_graded_local(trivial_grading(z2z2))
    assert not is_graded_local(trivial_grading(make_zn(1)))  # the zero ring
    assert not is_graded_local(t2_z2[0])
    assert not is_graded_local(t3_z4_c2)


def test_graded_quotient_examples(t2_gf3):
    grading, strict = t2_gf3
    qgr, proj = graded_quotient(grading, strict)
    assert qgr.ring.size == 9
    assert sorted(qgr.support) == [0]  # strictly-upper part quotiented away
    # degree preservation: nonzero image of a degree-g element has degree g
    for x, g in grading.homogeneous_elements():
        if g is ZERO_DEGREE:
            continue
        image = proj[x]
        if image != 0:
            assert qgr.degree_of(image) == g
    # quotient by zero and by everything
    zero_ideal = homogeneous_two_sided_ideal_closure(grading, [0])
    iso, _ = graded_quotient(grading, zero_ideal)
    assert iso.ring.size == grading.ring.size
    full = homogeneous_two_sided_ideal_closure(grading, [grading.ring.one])
    collapsed, _ = graded_quotient(grading, full)
    assert collapsed.ring.size == 1


def test_support_examples(t2_gf3):
    grading, _ = t2_gf3
    assert sorted(grading.support) == [0, 1]
    assert sorted(trivial_grading(make_zn(4)).support) == [0]
    diag = diagonal_z_grading(make_zn(2), 2)
    assert sorted(diag.support) == [-1, 0, 1]


def test_radical_identity_on_finite_graded_corpus(t2_gf3, t2_z2):
    """Classical radical of the identity component equals the graded radical
    cut to it, across the small graded rings used everywhere in the tests."""
    samples = [
        t2_gf3[0],
        t2_z2[0],
        trivial_grading(make_zn(4)),
        trivial_grading(make_gf(2, 2)),
        matrix_graded(trivial_grading(make_zn(3), C2), 2, [0, 1]),
    ]
    for grading in samples:
        e = grading.group.identity
        sub, _idx, members = subring_from_elements(grading.ring, grading.component(e))
        classical = {members[i] for i in jacobson_radical(sub)}
        jg = graded_jacobson_radical(grading)
        assert classical == set(jg.elements & grading.component(e)), grading


def test_homogeneous_radical_containment(t2_z2):
    grading, _ = t2_z2
    jg = graded_jacobson_radical(grading)
    for x in jacobson_radical(grading.ring):
        if grading.is_homogeneous(x):
            assert x in jg.elements


def test_graded_quotient_rejects_right_only_ideal(t2_z2):
    grading, _ = t2_z2
    ring = grading.ring
    e11 = ring.encode_entries({(0, 0): 1})
    right = homogeneous_right_ideal_closure(grading, [e11])
    with pytest.raises(ValidationError):
        graded_quotient(grading, right)


# ---------------------------------------------------------------------------
# brute-force oracle for the homogeneous right ideal lattice


def brute_homogeneous_right_ideals(grading):
    """Enumerate every subset that is a right ideal splitting along the
    components (the counting criterion), by raw subset sweep."""
    import itertools

    ring = grading.ring
    nonzero = [x for x in ring.elements() if x != 0]
    found = []
    for r in range(len(nonzero) + 1):
        for picked in itertools.combinations(nonzero, r):
            cand = frozenset((0,) + picked)
            if not all(ring.neg(x) in cand for x in cand):
                continue
            if not all(ring.add(x, y) in cand for x in cand for y in cand):
                continue
            if not all(ring.mul(x, s) in cand for x in cand for s in ring.elements()):
                continue
            total = 1
            for g in grading.support:
                total *= len(cand & grading.components[g])
            if total != len(cand):
                continue
            found.append(cand)
    return set(found)


@pytest.mark.parametrize("make", [
    lambda: trivial_grading(make_zn(4)),
    lambda: trivial_grading(make_gf(2, 2)),
    lambda: triangular_graded(trivial_grading(make_zn(2), C2), 2, [0, 1])[0],
    lambda: verify_grading(
        make_zn(6), make_cyclic(1), {0: [1]}
    ),
], ids=["z4", "gf4", "t2z2-split", "z6"])
def test_lattice_fixpoint_matches_subset_sweep(make):
    """The cyclic-seed/sum-closure fixpoint reaches exactly the homogeneous
    right ideals a raw subset enumeration finds, and agrees on maximality."""
    grading = make()
    brute = brute_homogeneous_right_ideals(grading)
    maximal = graded_maximal_right_ideals(grading)
    full = frozenset(grading.ring.elements())
    proper = {s for s in brute if s != full}
    brute_maximal = {s for s in proper if not any(s < t for t in proper)}
    assert {m.elements for m in maximal} == brute_maximal
    # and every brute ideal is reachable as a sum of cyclic ones: rebuild each
    from gradednil.grading import homogeneous_right_ideal_closure as closure

    for ideal in brute:
        gens = [x for x in sorted(ideal) if grading.is_homogeneous(x)]
        assert closure(grading, gens).elements == ideal


def test_lattice_fixpoint_matches_subset_sweep_group_ring():
    from gradednil.constructions import group_ring_graded

    grading = group_ring_graded(trivial_grading(make_zn(4), C2), C2)
    brute = brute_homogeneous_right_ideals(grading)
    maximal = graded_maximal_right_ideals(grading)
    full = frozenset(grading.ring.elements())
    proper = {s for s in brute if s != full}
    brute_maximal = {s for s in proper if not any(s < t for t in proper)}
    assert {m.elements for m in maximal} == brute_maximal
    assert len(maximal) == 1  # this group ring is graded-local
