"""The named sample spaces and their exact masses."""
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kwise.constructions import (
    independent_shape,
    independent_space,
    partition_shape,
    partition_space,
    xor_pairwise_table,
    xor_pattern,
    xor_seed_coefficient,
    xor_shape,
    xor_sign,
    xor_space,
)
from kwise.core import SignVector, symmetrize


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
def test_partition_space_masses(n):
    space = partition_space(n)
    assert space.support_size == 2 + comb(n, n // 2)
    assert space.probability(0) == Fraction(1, 2 * n)
    assert space.probability((1 << n) - 1) == Fraction(1, 2 * n)
    q = symmetrize(space).q
    assert q[0] == q[n] == Fraction(1, 2 * n)
    assert q[n // 2] == Fraction(n - 1, n)


def test_partition_space_rejects_odd_dimension():
    with pytest.raises(ValueError):
        partition_space(5)
    with pytest.raises(ValueError):
        partition_space(0)


def test_independent_space_is_uniform():
    space = independent_space(4)
    assert space.support_size == 16
    assert all(m == Fraction(1, 16) for _, m in space.items())


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_xor_space_dimensions(n):
    space = xor_space(n)
    assert space.n == 1 << n
    # one atom per seed assignment: a sign and an n-bit mask
    assert space.support_size == 1 << (n + 1)
    assert all(m == Fraction(1, 1 << (n + 1)) for _, m in space.items())


def test_xor_space_atoms_match_lazy_signs():
    # every seed pattern equals its coordinate-by-coordinate reference, and
    # the patterns are exactly the atoms of the space
    for n in range(1, 6):
        patterns = set()
        for seed_sign in (1, -1):
            for mask in range(1 << n):
                bits = 0
                for j in range(1 << n):
                    if xor_sign(n, seed_sign, mask, j) > 0:
                        bits |= 1 << j
                assert xor_pattern(n, seed_sign, mask) == bits, (n, seed_sign, mask)
                patterns.add(bits)
        assert set(xor_space(n).masses) == patterns, n


def test_xor_sign_first_coordinate_is_seed():
    # coordinate 0 uses the empty subset: always the bare seed sign
    for mask in range(8):
        assert xor_sign(3, 1, mask, 0) == 1
        assert xor_sign(3, -1, mask, 0) == -1


def test_xor_sign_multiplicativity():
    """Coordinate parities multiply: sign(i xor j) * seed = sign(i) * sign(j)."""
    n = 4
    for mask in (0b0000, 0b1011, 0b0110):
        s = [xor_sign(n, 1, mask, j) for j in range(1 << n)]
        for i in (1, 5, 9):
            for j in (2, 7, 14):
                assert s[i ^ j] == s[i] * s[j]


@given(st.integers(1, 4), st.data())
def test_xor_seed_coefficient_matches_enumeration(n, data):
    dim = 1 << n
    size = data.draw(st.integers(1, min(4, dim)))
    coords = tuple(sorted(data.draw(
        st.sets(st.integers(0, dim - 1), min_size=size, max_size=size))))
    space = xor_space(n)
    total = Fraction(0)
    for v, m in space.items():
        prod = 1
        for j in coords:
            prod *= v.sign(j)
        total += m * prod
    assert xor_seed_coefficient(n, coords) == total


def test_xor_pairwise_table_vanishes():
    table = xor_pairwise_table(3)
    assert set(table) == {(i, j) for i in range(8) for j in range(i + 1, 8)}
    assert all(v == 0 for v in table.values())


def test_xor_designated_four_subset():
    # an even-size set of coordinates whose indices xor to zero multiplies to
    # the trivial character, so the family is pairwise but not 4-wise
    assert xor_seed_coefficient(2, (0, 1, 2, 3)) == 1
    assert xor_seed_coefficient(3, (1, 2, 4, 7)) == 1
    assert xor_seed_coefficient(3, (1, 2, 3)) == 0
    assert xor_seed_coefficient(3, (1, 2, 4, 6)) == 0


def test_sign_vector_layout_matches_construction():
    space = partition_space(2)
    assert space.probability(SignVector.from_string("++")) == Fraction(1, 4)
    assert space.probability(SignVector.from_string("+-")) == Fraction(1, 4)


LAWS = [(partition_shape, partition_space), (xor_shape, xor_space), (independent_shape, independent_space)]


@pytest.mark.parametrize("shape,build", LAWS)
@pytest.mark.parametrize("n", [2, 4, 5])
def test_shape_is_the_built_laws(shape, build, n):
    if shape is partition_shape and n % 2:
        n += 1
    space = build(n)
    assert shape(n) == (space.n, space.support_size)


@pytest.mark.parametrize("shape,build", LAWS)
@pytest.mark.parametrize("n", [-1, 0, 21])
def test_shape_refuses_what_the_builder_refuses(shape, build, n):
    with pytest.raises(ValueError) as refused:
        shape(n)
    with pytest.raises(ValueError) as built:
        build(n)
    assert str(refused.value) == str(built.value)
