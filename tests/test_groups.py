import pytest

from gradednil.errors import ValidationError
from gradednil.groups import (
    FiniteGroup,
    INTEGER_GROUP,
    direct_product,
    element_order,
    is_m_torsion_free,
    is_p_group,
    make_cyclic,
)


def brute_order(group, g):
    acc = g
    k = 1
    while acc != 0:
        acc = group.op(acc, g)
        k += 1
    return k


def assert_group_axioms(group):
    n = group.order
    for i in range(n):
        assert group.op(0, i) == i and group.op(i, 0) == i
        assert group.op(i, group.inv(i)) == 0
        for j in range(n):
            ij = group.op(i, j)
            for k in range(n):
                assert group.op(ij, k) == group.op(i, group.op(j, k))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 8])
def test_cyclic_groups_satisfy_axioms(n):
    assert_group_axioms(make_cyclic(n))


def test_cyclic_trivial_and_small():
    c1 = make_cyclic(1)
    assert c1.order == 1
    c2 = make_cyclic(2)
    assert c2.op(1, 1) == 0
    c4 = make_cyclic(4)
    assert element_order(c4, 1) == 4


def test_cyclic_rejects_zero():
    with pytest.raises(ValidationError):
        make_cyclic(0)


def test_direct_product_with_trivial_factor():
    g = make_cyclic(5)
    prod = direct_product(make_cyclic(1), g)
    assert prod.order == 5
    assert prod.table == g.table


def test_klein_four_group():
    k4 = direct_product(make_cyclic(2), make_cyclic(2))
    assert_group_axioms(k4)
    assert all(element_order(k4, g) == 2 for g in range(1, 4))


def test_c2_times_c3_is_cyclic_of_order_six():
    g = direct_product(make_cyclic(2), make_cyclic(3))
    assert g.order == 6
    assert any(element_order(g, x) == 6 for x in g.elements())


def test_element_order_examples():
    c2, c4 = make_cyclic(2), make_cyclic(4)
    assert element_order(c4, 0) == 1
    assert element_order(c4, 1) == 4
    assert element_order(c2, 1) == 2


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_torsion_freeness_matches_definitional_loop(n, m):
    g = make_cyclic(n)
    brute = all(g.power(x, m) != 0 for x in range(1, n))
    assert is_m_torsion_free(g, m) == brute


def test_torsion_free_examples():
    assert is_m_torsion_free(INTEGER_GROUP, 2)
    assert is_m_torsion_free(INTEGER_GROUP, 7)
    assert not is_m_torsion_free(make_cyclic(2), 2)
    assert is_m_torsion_free(make_cyclic(3), 2)


def test_p_group_examples():
    assert is_p_group(make_cyclic(2), 2)
    assert is_p_group(make_cyclic(4), 2)
    assert not is_p_group(make_cyclic(6), 2)
    with pytest.raises(ValidationError):
        is_p_group(make_cyclic(4), 4)


def test_torsion_free_is_order_based():
    # g^m = e iff order(g) divides m; cross-check against element orders
    for n in (2, 3, 4, 6):
        g = make_cyclic(n)
        for m in (2, 3, 4, 5):
            expected = all(m % brute_order(g, x) != 0 for x in range(1, n))
            assert is_m_torsion_free(g, m) == expected


def test_integer_group_surface():
    assert INTEGER_GROUP.op(3, -5) == -2
    assert INTEGER_GROUP.inv(4) == -4
    assert INTEGER_GROUP.power(3, -2) == -6
    assert INTEGER_GROUP.identity == 0
    assert INTEGER_GROUP.order is None


def test_bad_table_rejected():
    # identity law broken
    with pytest.raises(ValidationError):
        FiniteGroup([[1, 0], [0, 1]])
    # non-associative magma on 3 elements
    with pytest.raises(ValidationError):
        FiniteGroup([[0, 1, 2], [1, 0, 0], [2, 0, 0]])


@pytest.mark.parametrize("n", [6, 66])
def test_associativity_is_checked_at_every_order(n):
    """A cyclic table with two entries of one row swapped is not associative."""
    table = make_cyclic(n).table
    table[2][3], table[2][4] = table[2][4], table[2][3]
    with pytest.raises(ValidationError) as err:
        FiniteGroup(table)
    assert err.value.witness[0] == "assoc"
    _, a, b, c = err.value.witness
    assert table[table[a][b]][c] != table[a][table[b][c]]


def test_large_products_pass_the_associativity_check():
    c2 = make_cyclic(2)
    group = direct_product(direct_product(c2, make_cyclic(5)), make_cyclic(9))
    assert group.order == 90
    assert FiniteGroup(group.table).order == 90
