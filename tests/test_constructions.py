import itertools

import pytest

from gradednil.constructions import (
    AmalgamationSpec,
    amalgamation,
    augmentation_ideal,
    augmentation_map,
    diagonal_z_grading,
    group_ring_graded,
    image_subring_grading,
    matrix_graded,
    product_grading,
    triangular_graded,
)
from gradednil.errors import ResourceLimitError, ValidationError
from gradednil.grading import (
    ZERO_DEGREE,
    homogeneous_two_sided_ideal_closure,
    trivial_grading,
    verify_grading,
)
from gradednil.groups import FiniteGroup, make_cyclic
from gradednil.rings import (
    TableRing,
    additive_span,
    check_ring_axioms,
    is_nilpotent,
    make_gf,
    make_zn,
)

C1 = make_cyclic(1)
C2 = make_cyclic(2)


# ---------------------------------------------------------------------------
# matrix gradings


def test_matrix_ring_arithmetic_matches_by_hand():
    ring = matrix_graded(trivial_grading(make_zn(3), C2), 2, [0, 1]).ring
    a = ring.encode_entries({(0, 0): 1, (0, 1): 2})
    b = ring.encode_entries({(1, 0): 1})
    # [[1,2],[0,0]] * [[0,0],[1,0]] = [[2,0],[0,0]]
    assert ring.mul(a, b) == ring.encode_entries({(0, 0): 2})
    check_ring_axioms(ring)


def test_matrix_identity_sigma_components_follow_base():
    base = trivial_grading(make_zn(3), C2)
    grading = matrix_graded(base, 2, [0, 0])
    # with sigma = (e, e) the component of degree lam uses base component lam everywhere
    assert sorted(grading.support) == [0]
    assert len(grading.components[0]) == 81


def test_matrix_size_one_is_base():
    base = trivial_grading(make_zn(4), C2)
    grading = matrix_graded(base, 1, [0])
    assert grading.ring.size == 4
    assert {g: len(c) for g, c in grading.components.items() if len(c) > 1} == {0: 4}


def test_matrix_swap_grading_reproduces_split():
    grading = matrix_graded(trivial_grading(make_zn(3), C2), 2, [0, 1])
    ring = grading.ring
    diag = {ring.encode_entries({(0, 0): a, (1, 1): d}) for a in range(3) for d in range(3)}
    anti = {ring.encode_entries({(0, 1): b, (1, 0): c}) for b in range(3) for c in range(3)}
    assert grading.components[0] == frozenset(diag)
    assert grading.components[1] == frozenset(anti)


def test_matrix_component_oracle():
    """Each matrix component matches the entrywise-degree rule, checked
    directly from the definition."""
    base = trivial_grading(make_zn(2), C2)
    sigma = [0, 1]
    grading = matrix_graded(base, 2, sigma)
    ring = grading.ring
    group = grading.group
    for lam in (0, 1):
        expected = []
        for entries in itertools.product(range(2), repeat=4):
            mat = {
                (i, j): entries[2 * i + j] for i in range(2) for j in range(2)
            }
            ok = True
            for (i, j), v in mat.items():
                need = group.op(group.op(sigma[i], lam), group.inv(sigma[j]))
                if v and need not in base.support:
                    ok = False
            if ok:
                expected.append(ring.encode_entries({k: v for k, v in mat.items() if v}))
        assert grading.components[lam] == frozenset(expected)


def test_matrix_identity_sigma_over_graded_base():
    """With sigma all-identity over a nontrivially graded base, the component
    of degree lam is exactly the matrices with every entry in the base
    component of lam."""
    base, _ = triangular_graded(trivial_grading(make_zn(2), C2), 2, [0, 1])
    grading = matrix_graded(base, 2, [0, 0])
    ring = grading.ring
    for lam in (0, 1):
        allowed = base.component(lam)
        expected = {
            ring.encode_entries({p: v for p, v in zip(ring.positions, combo) if v})
            for combo in itertools.product(sorted(allowed), repeat=4)
        }
        assert grading.components[lam] == frozenset(expected)


def test_matrix_cap():
    with pytest.raises(ResourceLimitError):
        matrix_graded(trivial_grading(make_zn(4), C2), 3, [0, 0, 0], max_elements=1000)


# ---------------------------------------------------------------------------
# diagonal integer grading


def test_diagonal_grading_structure():
    grading = diagonal_z_grading(make_zn(2), 2)
    ring = grading.ring
    assert sorted(grading.support) == [-1, 0, 1]
    assert grading.components[1] == frozenset({0, ring.encode_entries({(0, 1): 1})})
    assert grading.components[-1] == frozenset({0, ring.encode_entries({(1, 0): 1})})
    single = diagonal_z_grading(make_zn(4), 1)
    assert sorted(single.support) == [0]


def test_diagonal_grading_support_n3():
    grading = diagonal_z_grading(make_zn(2), 3)
    assert sorted(grading.support) == [-2, -1, 0, 1, 2]


@pytest.mark.parametrize("base,n", [(4, 2), (2, 3), (3, 3)])
def test_diagonal_offdiagonal_elements_nilpotent(base, n):
    grading = diagonal_z_grading(make_zn(base), n)
    for x, g in grading.homogeneous_elements():
        if g is ZERO_DEGREE or g == 0:
            continue
        assert is_nilpotent(grading.ring, x)


# ---------------------------------------------------------------------------
# triangular gradings


def test_triangular_base_case():
    grading, ideal = triangular_graded(trivial_grading(make_zn(4), C2), 1, [0])
    assert grading.ring.size == 4
    assert ideal.elements == frozenset({0})


def test_triangular_zero_diagonal_ideal():
    grading, ideal = triangular_graded(trivial_grading(make_zn(2), C2), 2, [0, 1])
    ring = grading.ring
    e12 = ring.encode_entries({(0, 1): 1})
    assert ideal.elements == frozenset({0, e12})
    assert ring.mul(e12, e12) == 0
    # ideal is homogeneous: split by component
    assert ideal.elements <= grading.components[1] | {0}


@pytest.mark.parametrize("n", [2, 3])
def test_zero_diagonal_ideal_nilpotency(n):
    grading, ideal = triangular_graded(
        trivial_grading(make_zn(2), C2), n, [0, 1, 0][:n]
    )
    ring = grading.ring
    power = set(ideal.elements)
    for _ in range(n - 1):
        power = set(additive_span(ring, {ring.mul(a, b) for a in power for b in ideal.elements}))
    assert power == {0}  # I^n = 0


def test_triangular_reproduces_the_split_grading():
    grading, _ = triangular_graded(trivial_grading(make_gf(3), C2), 2, [0, 1])
    ring = grading.ring
    diag = {ring.encode_entries({(0, 0): a, (1, 1): d}) for a in range(3) for d in range(3)}
    upper = {ring.encode_entries({(0, 1): b}) for b in range(3)}
    assert grading.components[0] == frozenset(diag)
    assert grading.components[1] == frozenset(upper)


# ---------------------------------------------------------------------------
# group rings


def test_group_ring_components_over_trivial_base():
    grading = group_ring_graded(trivial_grading(make_zn(4), C2), C2)
    ring = grading.ring
    assert ring.size == 16
    for g in (0, 1):
        comp = grading.components[g]
        assert len(comp) == 4
        assert comp == frozenset(ring.encode({g: r}) for r in range(4))


def test_group_ring_modes_agree_on_trivial_abelian_base():
    base = trivial_grading(make_zn(4), C2)
    std = group_ring_graded(base, C2, "standard")
    tw = group_ring_graded(base, C2, "paper_twisted")
    for a in range(16):
        for b in range(16):
            assert std.ring.mul(a, b) == tw.ring.mul(a, b)
    assert std.components == tw.components


def test_group_ring_nonhomogeneous_mix():
    grading = group_ring_graded(trivial_grading(make_zn(2), C2), C2)
    ring = grading.ring
    x = ring.add(ring.encode({0: 1}), ring.encode({1: 1}))
    from gradednil.grading import NOT_HOMOGENEOUS

    assert grading.degree_of(x) is NOT_HOMOGENEOUS


def test_group_ring_base_group_mismatch_rejected():
    with pytest.raises(ValidationError):
        group_ring_graded(trivial_grading(make_zn(2), C2), make_cyclic(3))


def test_augmentation_is_multiplicative_in_standard_mode():
    grading = group_ring_graded(trivial_grading(make_zn(4), C2), C2)
    ring = grading.ring
    for a in ring.elements():
        for b in ring.elements():
            lhs = augmentation_map(ring, ring.mul(a, b))
            rhs = ring.base.mul(augmentation_map(ring, a), augmentation_map(ring, b))
            assert lhs == rhs


def test_augmentation_ideal_examples():
    trivial = group_ring_graded(trivial_grading(make_zn(4), C1), C1)
    kernel, nilidx = augmentation_ideal(trivial)
    assert kernel == frozenset({0}) and nilidx == 1

    z4c2 = group_ring_graded(trivial_grading(make_zn(4), C2), C2)
    kernel, nilidx = augmentation_ideal(z4c2)
    ring = z4c2.ring
    g_minus_one = ring.sub(ring.encode({1: 1}), ring.one)
    assert g_minus_one in kernel
    assert len(kernel) == 4 and nilidx == 3

    z3c2 = group_ring_graded(trivial_grading(make_zn(3), C2), C2)
    kernel, nilidx = augmentation_ideal(z3c2)
    assert nilidx is None  # 2 is invertible: the kernel is a direct factor


# ---------------------------------------------------------------------------
# amalgamations


def _z4_spec(ideal_gens):
    a = trivial_grading(make_zn(4))
    b = trivial_grading(make_zn(4))
    ideal = homogeneous_two_sided_ideal_closure(b, ideal_gens)
    return AmalgamationSpec(a, b, list(range(4)), ideal)


def test_amalgamation_trivial_ideal_is_isomorphic_to_a():
    spec = _z4_spec([0])
    grading = amalgamation(spec)
    assert grading.ring.size == 4


def test_amalgamation_element_count():
    spec = _z4_spec([2])
    grading = amalgamation(spec)
    assert grading.ring.size == 8  # |A| * |J|


def test_amalgamation_projections_are_graded_surjections():
    spec = _z4_spec([2])
    grading = amalgamation(spec)
    sub = grading.ring
    # recover the coordinates through the product encoding of the parent
    firsts = set()
    seconds = set()
    for name in sub.element_names:
        a, b = name.strip("()").split(", ")
        firsts.add(int(a))
        seconds.add(int(b))
    assert firsts == set(range(4))
    image = image_subring_grading(spec)
    assert seconds == {int(n) for n in image.ring.element_names}


def test_amalgamation_image_subring():
    spec = _z4_spec([2])
    image = image_subring_grading(spec)
    assert image.ring.size == 4  # f surjective: f(A) + J = Z4


def test_amalgamation_requires_commutative():
    tri, _ = triangular_graded(trivial_grading(make_zn(2), C2), 2, [0, 1])
    ideal = homogeneous_two_sided_ideal_closure(tri, [0])
    with pytest.raises(ValidationError):
        AmalgamationSpec(tri, tri, list(range(tri.ring.size)), ideal)


def test_amalgamation_rejects_non_homomorphism():
    a = trivial_grading(make_zn(4))
    b = trivial_grading(make_zn(4))
    ideal = homogeneous_two_sided_ideal_closure(b, [2])
    broken = [0, 2, 1, 3]
    with pytest.raises(ValidationError):
        AmalgamationSpec(a, b, broken, ideal)


# ---------------------------------------------------------------------------
# products


def test_product_grading_examples():
    base = trivial_grading(make_gf(3), C2)
    tri, _ = triangular_graded(base, 2, [0, 1])
    single = product_grading([tri])
    assert single.ring.size == 27

    both = product_grading([trivial_grading(make_zn(2), C2), trivial_grading(make_zn(3), C2)])
    assert sorted(both.support) == [0]

    mixed = product_grading([tri, trivial_grading(make_gf(3), C2)])
    assert mixed.ring.size == 81
    assert sorted(mixed.support) == [0, 1]


def test_product_grading_rejects_mismatched_groups():
    with pytest.raises(ValidationError):
        product_grading([
            trivial_grading(make_zn(2), C2),
            trivial_grading(make_zn(2), make_cyclic(3)),
        ])


def test_constructions_validate_their_gradings():
    """Spot-check multiplicativity on a constructed grading by hand."""
    grading = matrix_graded(trivial_grading(make_zn(3), C2), 2, [0, 1])
    ring = grading.ring
    group = grading.group
    for g in grading.support:
        for h in grading.support:
            target = grading.component(group.op(g, h))
            for x in grading.components[g]:
                for y in grading.components[h]:
                    assert ring.mul(x, y) in target


# ---------------------------------------------------------------------------
# arithmetic against entrywise / convolution references on decode()


def _matrix_reference(ring):
    """Entrywise matrix arithmetic on decode() dicts, in the base ring."""
    base = ring.base

    def add(da, db):
        out = {p: base.add(da.get(p, 0), db.get(p, 0)) for p in ring.positions}
        return {p: v for p, v in out.items() if v}

    def neg(da):
        return {p: base.neg(v) for p, v in da.items()}

    def mul(da, db):
        out = {}
        for (i, j) in ring.positions:
            acc = 0
            for k in range(ring.n):
                acc = base.add(acc, base.mul(da.get((i, k), 0), db.get((k, j), 0)))
            if acc:
                out[(i, j)] = acc
        return out

    return add, neg, mul


def _group_ring_reference(ring):
    """Coefficient arithmetic on decode() dicts; paper_twisted sends a
    degree-d part at position h, times a coefficient at position g, to
    d^-1 * g * d * h."""
    base, group = ring.base, ring.group

    def add(da, db):
        out = {h: base.add(da.get(h, 0), db.get(h, 0)) for h in group.elements()}
        return {h: v for h, v in out.items() if v}

    def neg(da):
        return {h: base.neg(v) for h, v in da.items()}

    def mul(da, db):
        out = {}
        for g, c1 in da.items():
            for h, c2 in db.items():
                if ring.mode == "standard":
                    terms = [(group.op(g, h), base.mul(c1, c2))]
                else:
                    terms = [
                        (group.op(group.op(group.op(group.inv(d), g), d), h), base.mul(c1, part))
                        for d, part in ring.base_grading.decompose(c2).items()
                    ]
                for pos, val in terms:
                    out[pos] = base.add(out.get(pos, 0), val)
        return {h: v for h, v in out.items() if v}

    return add, neg, mul


def _product_reference(ring):
    """Componentwise arithmetic on decode() tuples, in the factor rings."""
    fs = ring.factors
    return (
        lambda da, db: tuple(f.add(x, y) for f, x, y in zip(fs, da, db)),
        lambda da: tuple(f.neg(x) for f, x in zip(fs, da)),
        lambda da, db: tuple(f.mul(x, y) for f, x, y in zip(fs, da, db)),
    )


def _graded_base_c2():
    """Z2[C2], graded by C2 with the group element in degree 1."""
    return group_ring_graded(trivial_grading(make_zn(2), C2), C2)


def _twisted_s3_group_ring():
    """Z2[x]/(x^2) with x in the degree of a transposition, over S3: the
    twisted positions then differ from the convolution ones."""
    perms = list(itertools.permutations(range(3)))
    at = {p: i for i, p in enumerate(perms)}
    s3 = FiniteGroup([[at[tuple(p[q[k]] for k in range(3))] for q in perms] for p in perms], "S3")
    # a + b*x is index a + 2b
    add = [[(a ^ c) for c in range(4)] for a in range(4)]
    mul = [[(a & c & 1) | (((a & 1) & (c >> 1)) ^ ((a >> 1) & (c & 1))) << 1 for c in range(4)]
           for a in range(4)]
    dual = TableRing(add, mul, one=1, label="Z2[x]/x^2")
    base = verify_grading(dual, s3, {0: [1], at[(0, 2, 1)]: [2]})
    return group_ring_graded(base, s3, "paper_twisted").ring


ARITHMETIC_CASES = {
    # at the table cap
    "matrix-m2-z4": lambda: matrix_graded(trivial_grading(make_zn(4), C2), 2, (0, 1)).ring,
    "triangular-t3-z2": lambda: triangular_graded(
        trivial_grading(make_zn(2), C2), 3, (0, 1, 0))[0].ring,
    "diagonal_z-m2-z3": lambda: diagonal_z_grading(make_zn(3), 2).ring,
    "group_ring-standard-z4-c3": lambda: group_ring_graded(
        trivial_grading(make_zn(4), make_cyclic(3)), make_cyclic(3)).ring,
    "group_ring-paper_twisted-graded-base": lambda: group_ring_graded(
        _graded_base_c2(), C2, "paper_twisted").ring,
    "product-t2gf3-gf3": lambda: product_grading([
        triangular_graded(trivial_grading(make_gf(3), C2), 2, (0, 1))[0],
        trivial_grading(make_gf(3), C2),
    ]).ring,
    "matrix-over-group-ring": lambda: matrix_graded(_graded_base_c2(), 2, (0, 1)).ring,
    # above the table cap: the kernel runs on every call
    "matrix-m3-z2": lambda: matrix_graded(trivial_grading(make_zn(2), C1), 3, (0, 0, 0)).ring,
    "group_ring-paper_twisted-s3": _twisted_s3_group_ring,
}


def _canonical(decoded):
    return tuple(sorted(decoded.items())) if isinstance(decoded, dict) else decoded


@pytest.mark.parametrize("case", sorted(ARITHMETIC_CASES))
def test_structured_arithmetic_matches_reference(case):
    """Every pair within the table cap.  Above it, where every pair would
    take seconds, the right operand runs over a fixed sample of 64 elements,
    and so does the left one beyond 1024 elements."""
    from gradednil.constructions import GroupRingRing, MatrixRing
    from gradednil.rings import TABLE_ELEMENT_CAP

    ring = ARITHMETIC_CASES[case]()
    if isinstance(ring, MatrixRing):
        ref_add, ref_neg, ref_mul = _matrix_reference(ring)
    elif isinstance(ring, GroupRingRing):
        ref_add, ref_neg, ref_mul = _group_ring_reference(ring)
    else:
        ref_add, ref_neg, ref_mul = _product_reference(ring)
    n = ring.size
    assert (n <= TABLE_ELEMENT_CAP) == (case not in ("matrix-m3-z2", "group_ring-paper_twisted-s3"))
    decoded = [ring.decode(x) for x in ring.elements()]
    index = {_canonical(d): x for x, d in enumerate(decoded)}
    assert len(index) == n
    sample = range(0, n, max(1, n // 64))
    right = ring.elements() if n <= TABLE_ELEMENT_CAP else sample
    for a in (ring.elements() if n <= 1024 else sample):
        da = decoded[a]
        assert ring.neg(a) == index[_canonical(ref_neg(da))]
        for b in right:
            db = decoded[b]
            assert ring.add(a, b) == index[_canonical(ref_add(da, db))], ("add", a, b)
            assert ring.mul(a, b) == index[_canonical(ref_mul(da, db))], ("mul", a, b)
    if n > TABLE_ELEMENT_CAP:
        assert ring._add_table is None and ring._mul_table is None
        return
    # every pair is now in the tables, and a second call reads them
    for table, op in ((ring._add_table, ring.add), (ring._mul_table, ring.mul)):
        assert len(table) == n * n and 0xFFFF not in table
        for a in ring.elements():
            for b in ring.elements():
                assert op(a, b) == table[a * n + b]


def test_corrupted_twisted_positions_are_rejected_exactly(monkeypatch):
    """The 4096-element S3 ring is law-checked on all triples of additive
    generators, not on a sample: corrupting where one part degree sends a
    product is caught, and the witness is a non-associative triple."""
    from gradednil import constructions

    built = []

    class CorruptedTwist(constructions.GroupRingRing):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            degree = next(d for d in self.base_grading.support if d != self.group.identity)
            row = self._twist[degree][1]
            row[0], row[1] = row[1], row[0]
            built.append(self)

    monkeypatch.setattr(constructions, "GroupRingRing", CorruptedTwist)
    with pytest.raises(ValidationError) as err:
        _twisted_s3_group_ring()
    law, a, b, c = err.value.witness
    assert law == "mulassoc"
    assert "'paper_twisted' is not associative" in str(err.value)
    (ring,) = built
    assert ring.size == 4096
    gens = ring.additive_generators()
    assert a in gens and b in gens and c in gens
    assert ring.mul(ring.mul(a, b), c) != ring.mul(a, ring.mul(b, c))
