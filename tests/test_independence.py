"""Parity coefficients and the k-wise independence checks."""
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kwise.constructions import partition_space, xor_space
from kwise.core import SampleSpace, expand, uniform_cube, WeightProfile
from kwise.independence import (
    check_exchangeable,
    check_kwise,
    check_kwise_marginal,
    fourier_coefficient,
    parity_visits,
)


def brute_coefficient(space, coords):
    total = Fraction(0)
    for v, m in space.items():
        prod = 1
        for i in coords:
            prod *= v.sign(i)
        total += m * prod
    return total


def brute_report(space, k):
    """(k_requested, k_verified, witness) of the parity route, from the
    definition: the first nonzero coefficient by size, then lexicographically."""
    for size in range(1, k + 1):
        for T in combinations(range(space.n), size):
            value = brute_coefficient(space, T)
            if value != 0:
                return k, size - 1, (T, value)
    return k, k, None


@st.composite
def rational_laws(draw):
    """Laws on at most 6 coordinates with mixed denominators, averaged over
    the flips by a few random coordinate masks, so that many low-order
    parities vanish and witnesses turn up at every level."""
    n = draw(st.integers(1, 6))
    atoms = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=10, unique=True))
    flips = {0}
    for g in draw(st.lists(st.integers(1, (1 << n) - 1), max_size=5)):
        flips |= {h ^ g for h in flips}
    table = {}
    for x in atoms:
        w = Fraction(draw(st.integers(1, 9)), draw(st.integers(1, 12)))
        for g in flips:
            table[x ^ g] = table.get(x ^ g, 0) + w
    total = sum(table.values())
    return SampleSpace(n, [(x, w / total) for x, w in table.items()])


@given(st.integers(1, 5), st.data())
def test_fourier_coefficient_matches_brute_force(n, data):
    atoms = data.draw(
        st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=6, unique=True)
    )
    space = SampleSpace(n, [(x, Fraction(1, len(atoms))) for x in atoms])
    size = data.draw(st.integers(1, n))
    coords = tuple(sorted(data.draw(
        st.sets(st.integers(0, n - 1), min_size=size, max_size=size))))
    assert fourier_coefficient(space, coords) == brute_coefficient(space, coords)


@given(rational_laws())
def test_parity_route_matches_oracle_on_rational_laws(space):
    for size in range(space.n + 1):
        for T in combinations(range(space.n), size):
            assert fourier_coefficient(space, T) == brute_coefficient(space, T)
    for k in range(1, space.n + 1):
        report = check_kwise(space, k)
        assert (report.k_requested, report.k_verified, report.witness) == brute_report(space, k)


def test_fourier_coefficient_empty_set_is_one():
    assert fourier_coefficient(uniform_cube(3), ()) == 1


def test_uniform_cube_is_fully_independent():
    space = uniform_cube(5)
    report = check_kwise(space, 5)
    assert report.passed
    assert report.k_verified == 5
    assert report.witness is None


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_partition_space_is_threewise(n):
    space = partition_space(n)
    assert check_kwise(space, 2).passed
    if n >= 3:  # an independence level above the dimension is undefined
        assert check_kwise(space, 3).passed
    assert check_exchangeable(space)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_partition_space_fails_fourwise(n):
    report = check_kwise(space := partition_space(n), 4)
    assert not report.passed
    assert report.k_verified == 3
    T, coefficient = report.witness
    assert len(T) == 4
    # the witness really is a nonvanishing parity
    assert brute_coefficient(space, T) == coefficient != 0


def test_xor_space_is_pairwise_not_fourwise():
    space = xor_space(2)
    report = check_kwise(space, 2)
    assert report.passed and report.k_verified == 2
    report4 = check_kwise(space, 4)
    assert not report4.passed
    assert report4.k_verified in (2, 3)


def test_report_json_shape():
    report = check_kwise(partition_space(4), 4)
    data = report.to_json()
    assert data["k_verified"] == 3
    assert sorted(data["witness"]) == ["T", "coefficient"]
    clean = check_kwise(uniform_cube(2), 2).to_json()
    assert clean["witness"] is None


def test_check_kwise_rejects_bad_k():
    space = uniform_cube(3)
    with pytest.raises(ValueError):
        check_kwise(space, 0)
    with pytest.raises(ValueError):
        check_kwise(space, 4)


def test_marginal_check_agrees_with_parity_check():
    for n in (2, 4, 6):
        space = partition_space(n)
        assert check_kwise_marginal(space, 2).passed
        assert check_kwise_marginal(space, min(3, n)).passed


@given(rational_laws())
def test_marginal_check_agrees_with_parity_check_on_rational_laws(space):
    for k in range(1, space.n + 1):
        assert check_kwise_marginal(space, k) == check_kwise(space, k)


def test_marginal_check_finds_biased_pair():
    # equal signs on coordinates 0 and 1: one-dimensional marginals are fair
    # but the pair is fully correlated
    space = SampleSpace(
        3,
        [
            (0b000, Fraction(1, 4)),
            (0b011, Fraction(1, 4)),
            (0b100, Fraction(1, 4)),
            (0b111, Fraction(1, 4)),
        ],
    )
    assert check_kwise(space, 1).passed
    report = check_kwise(space, 2)
    assert not report.passed
    assert report.k_verified == 1
    assert not check_kwise_marginal(space, 2).passed


@given(st.integers(2, 6), st.data())
def test_exchangeable_expansions_pass(n, data):
    raw = data.draw(
        st.lists(st.integers(0, 8), min_size=n + 1, max_size=n + 1).filter(
            lambda v: sum(v) > 0
        )
    )
    total = sum(raw)
    profile = WeightProfile(n, tuple(Fraction(v, total) for v in raw))
    assert check_exchangeable(expand(profile))


def test_non_exchangeable_detected():
    space = SampleSpace(2, [(0b01, Fraction(1, 2)), (0b00, Fraction(1, 2))])
    assert not check_exchangeable(space)


def test_kwise_iff_all_small_parities_vanish():
    """check_kwise(space, k) must match the defining property directly."""
    space = xor_space(2)
    for k in (1, 2, 3, 4):
        expected = all(
            brute_coefficient(space, T) == 0
            for size in range(1, k + 1)
            for T in combinations(range(space.n), size)
        )
        assert check_kwise(space, k).passed == expected


@pytest.mark.parametrize("space,k", [(uniform_cube(5), 5), (partition_space(6), 3), (xor_space(2), 2)])
def test_parity_visits_counts_a_passing_check(monkeypatch, space, k):
    import kwise.independence as independence

    visits = []

    def counted(den, atoms, mask, _real=independence._parity_sum):
        visits.append(len(atoms))
        return _real(den, atoms, mask)

    monkeypatch.setattr(independence, "_parity_sum", counted)
    assert check_kwise(space, k).passed
    assert parity_visits(space.n, space.support_size, k, 1 << 60) == sum(visits)


def test_parity_visits_stops_past_the_cap():
    # sizes 1, 2, 3 of 20 coordinates over 2^20 atoms: 20, 190, 1140 sets
    assert parity_visits(20, 1 << 20, 20, 200 << 20) == 210 << 20
    assert parity_visits(20, 1 << 20, 3, 1 << 60) == 1350 << 20
    with pytest.raises(ValueError, match="got 21"):
        parity_visits(20, 1 << 20, 21, 1 << 60)
