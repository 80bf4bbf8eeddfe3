"""Sign vectors, sample spaces, and exchangeable weight profiles."""
import json
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kwise.core import (
    MAX_DIMENSION,
    SampleSpace,
    SignVector,
    WeightProfile,
    _frac_str,
    expand,
    project_marginal,
    subset_mask,
    symmetrize,
    uniform_cube,
    walsh_hadamard,
)
from kwise.independence import check_kwise
from kwise.moments import Weights, pth_moment


def test_sign_vector_roundtrip():
    v = SignVector(5, 0b10110)
    assert v.signs() == (-1, 1, 1, -1, 1)
    assert str(v) == "-++-+"
    assert SignVector.from_string(str(v)) == v
    assert SignVector.from_signs(v.signs()) == v
    assert v.weight == 3


def test_sign_vector_validation():
    with pytest.raises(ValueError):
        SignVector(0, 0)
    with pytest.raises(ValueError):
        SignVector(MAX_DIMENSION + 1, 0)
    with pytest.raises(ValueError):
        SignVector(3, 0b1000)  # mask wider than dimension
    with pytest.raises(ValueError):
        SignVector.from_signs([1, 0, -1])


@given(st.integers(1, 16), st.data())
def test_sign_vector_sign_matches_bits(n, data):
    bits = data.draw(st.integers(0, (1 << n) - 1))
    v = SignVector(n, bits)
    for i in range(n):
        assert v.sign(i) == (1 if bits >> i & 1 else -1)


def test_sample_space_accepts_atoms_and_dict():
    atoms = [(0, Fraction(1, 2)), (3, Fraction(1, 2))]
    a = SampleSpace(2, atoms)
    b = SampleSpace(2, dict(atoms))
    assert a.masses == b.masses
    assert a.support_size == 2
    assert a.probability(SignVector(2, 3)) == Fraction(1, 2)
    assert a.probability(1) == 0


def test_sample_space_mass_must_sum_to_one():
    with pytest.raises(ValueError):
        SampleSpace(2, [(0, Fraction(1, 2))])
    with pytest.raises(ValueError):
        SampleSpace(2, [(0, Fraction(3, 2)), (1, Fraction(-1, 2))])


def test_sample_space_json_roundtrip():
    space = uniform_cube(3)
    again = SampleSpace.from_json(space.to_json())
    assert again.n == 3
    assert again.masses == space.masses


def test_integer_masses_share_one_denominator():
    space = SampleSpace(2, [(0b00, Fraction(1, 6)), (0b01, Fraction(1, 4)), (0b11, Fraction(7, 12))])
    assert (space.den, list(space.numerators.items())) == (12, [(0b00, 2), (0b01, 3), (0b11, 7)])
    cube = uniform_cube(2)
    assert (cube.den, list(cube.numerators.items())) == (4, [(0, 1), (1, 1), (2, 1), (3, 1)])


def test_equal_laws_from_any_spelling():
    spellings = [
        SampleSpace(2, [(0b11, "2/4"), (0b00, "1/2")]),
        SampleSpace(2, {0b00: Fraction(1, 2), 0b11: Fraction(1, 2)}),
        SampleSpace(2, [(SignVector(2, 0b00), 1 - Fraction(1, 2)), (SignVector.from_string("++"), "1/2")]),
    ]
    for space in spellings[1:]:
        assert space == spellings[0]
        assert hash(space) == hash(spellings[0])
        assert json.dumps(space.to_json()) == json.dumps(spellings[0].to_json())
    assert spellings[0].to_json()["atoms"][0] == {"signs": "--", "prob": "1/2"}


def test_law_is_read_in_place():
    # a per-atom copy of the 2^16-atom law, Fraction or integer, is megabytes
    space, ones = uniform_cube(16), Weights.all_ones(16)
    for work in (lambda: check_kwise(space, 1), lambda: pth_moment(space, ones, 4)):
        tracemalloc.start()
        try:
            work()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def test_long_fractions_print_every_digit():
    # beyond the interpreter's default limit of 4300 digits for str(int)
    assert _frac_str(Fraction(-10**5000, 3)) == "-1" + "0" * 5000 + "/3"
    assert _frac_str(Fraction(7, 10**5000)) == "7/1" + "0" * 5000


def test_uniform_cube_masses():
    space = uniform_cube(4)
    assert space.support_size == 16
    assert all(m == Fraction(1, 16) for _, m in space.items())


def test_weight_profile_expand_symmetrize_inverse():
    q = (Fraction(1, 8), Fraction(0), Fraction(3, 4), Fraction(0), Fraction(1, 8))
    profile = WeightProfile(4, q)
    space = expand(profile)
    assert symmetrize(space).q == q
    # class w spreads its mass over the C(n, w) vectors of that weight
    assert space.probability(SignVector(4, 0b0011)) == Fraction(3, 4) / 6


def test_weight_profile_json_roundtrip():
    profile = WeightProfile(2, (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)))
    again = WeightProfile.from_json(profile.to_json())
    assert again.n == 2 and again.q == profile.q


def test_weight_profile_validation():
    with pytest.raises(ValueError):
        WeightProfile(2, (Fraction(1), Fraction(1)))  # needs n+1 entries
    with pytest.raises(ValueError):
        WeightProfile(1, (Fraction(2), Fraction(-1)))


@given(st.integers(1, 6), st.data())
def test_symmetrize_preserves_weight_class_mass(n, data):
    atoms = data.draw(
        st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=8, unique=True)
    )
    mass = Fraction(1, len(atoms))
    space = SampleSpace(n, [(x, mass) for x in atoms])
    profile = symmetrize(space)
    assert sum(profile.q) == 1
    for w in range(n + 1):
        expected = sum(m for v, m in space.items() if v.weight == w)
        assert profile.q[w] == expected


def test_project_marginal_uniform():
    space = uniform_cube(5)
    sub = project_marginal(space, (1, 3))
    assert sub.n == 2
    assert all(m == Fraction(1, 4) for _, m in sub.items())


def test_project_marginal_order_and_bounds():
    space = uniform_cube(3)
    with pytest.raises(ValueError):
        project_marginal(space, (2, 2))
    with pytest.raises(ValueError):
        project_marginal(space, (0, 3))


def test_project_marginal_collapses_correlated_pair():
    # equal signs on coordinates 0 and 1, coordinate 2 free
    space = SampleSpace(
        3,
        [
            (0b000, Fraction(1, 4)),
            (0b011, Fraction(1, 4)),
            (0b100, Fraction(1, 4)),
            (0b111, Fraction(1, 4)),
        ],
    )
    pair = project_marginal(space, (0, 1))
    assert pair.probability(SignVector(2, 0b00)) == Fraction(1, 2)
    assert pair.probability(SignVector(2, 0b11)) == Fraction(1, 2)
    assert pair.probability(SignVector(2, 0b01)) == 0


@given(st.sets(st.integers(0, 70)))
def test_subset_mask_sets_one_bit_per_coordinate(coords):
    mask = subset_mask(sorted(coords))
    assert [i for i in range(mask.bit_length()) if mask >> i & 1] == sorted(coords)


@given(st.integers(0, 6).flatmap(
    lambda n: st.lists(st.integers(-2**70, 2**70), min_size=1 << n, max_size=1 << n)))
def test_walsh_hadamard_matches_its_definition(f):
    # g[x] = sum_t f[t] (-1)^|t & x|, and H H = 2^n I
    g = walsh_hadamard(f)
    assert g == [sum(v if (t & x).bit_count() % 2 == 0 else -v for t, v in enumerate(f))
                 for x in range(len(f))]
    assert walsh_hadamard(g) == [len(f) * v for v in f]


def test_walsh_hadamard_needs_a_power_of_two():
    for size in (0, 3, 6, 12):
        with pytest.raises(ValueError, match="power of two"):
            walsh_hadamard([1] * size)
