"""Core ultrametric arithmetic, checked against brute-force enumeration.

The enumeration oracles here work at the level of residue classes: a
sphere or character integral is computed by listing cosets of p^M Z_p^n
explicitly and summing exact rationals (and exact roots of unity via the
p-adic fractional part), independently of the closed forms under test.
"""

import cmath
import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    CosetPoint,
    DepthOverflow,
    character_sphere_integral,
    character_sphere_integral_frac,
    coset_add,
    coset_neg,
    padic_fractional_part,
    sphere_volume_frac,
)
from ultradiff.padic import SpaceParams, ZERO_NORM, is_prime, sphere_volume, split_stream

# ---------------------------------------------------------------------------
# enumeration oracles
# ---------------------------------------------------------------------------


def sphere_residue_count(p, n, depth):
    """Number of residues mod p^depth with at least one unit coordinate."""
    count = 0
    for vec in product(range(p**depth), repeat=n):
        if any(v % p != 0 for v in vec):
            count += 1
    return count


def sphere_volume_by_counting(p, n, j, depth=2):
    """vol(S_j^n) from counting cosets of p^depth Z_p^n in the unit sphere,
    scaled by p^{jn} (the sphere S_j is p^{-j} times the unit sphere)."""
    cells = sphere_residue_count(p, n, depth)
    return Fraction(p) ** (j * n) * Fraction(cells, p ** (depth * n))


def character_integral_by_enumeration(p, n, y_exp, sphere_exp, slack=2):
    """int_{|xi| = p^sphere_exp} chi_p(-y . xi) d^n xi for y = (p^{-y_exp}, 0, ..).

    Enumerates xi over cells fine enough that the character is constant on
    each (depth y_exp + sphere_exp + slack past the sphere's leading digit).
    """
    depth = max(y_exp + sphere_exp, 0) + slack
    y = Fraction(1, p**y_exp) if y_exp >= 0 else Fraction(p ** (-y_exp))
    total = 0j
    cells = 0
    for vec in product(range(p**depth), repeat=n):
        if all(v % p == 0 for v in vec):
            continue  # need a unit coordinate: |z| = 1
        # xi = p^{-sphere_exp} z with z = vec (mod p^depth); only the first
        # coordinate meets y
        xi_1 = Fraction(vec[0]) * Fraction(p) ** (-sphere_exp)
        frac = padic_fractional_part(-y * xi_1, p)
        total += cmath.exp(2j * math.pi * float(frac))
        cells += 1
    cell_volume = Fraction(p) ** (sphere_exp * n) * Fraction(1, p ** (depth * n))
    return (total * float(cell_volume)).real


# ---------------------------------------------------------------------------
# SpaceParams
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 97])
def test_primes_accepted(p):
    SpaceParams(p=p, n=1)


@pytest.mark.parametrize("p", [0, 1, 4, 6, 9, 100])
def test_composites_rejected(p):
    with pytest.raises(ValueError):
        SpaceParams(p=p, n=1)


def test_dimension_validated():
    with pytest.raises(ValueError):
        SpaceParams(p=2, n=0)


# ---------------------------------------------------------------------------
# sphere volumes
# ---------------------------------------------------------------------------


def test_unit_sphere_volume_p2():
    # B_0 = S_0 u pZ_p and vol(B_0) = 1, vol(pZ_p) = 1/2
    assert sphere_volume_frac(SpaceParams(2, 1), 0) == Fraction(1, 2)


@pytest.mark.parametrize(
    "p,n,j",
    [(3, 2, -1), (2, 1, 1), (2, 2, -2), (3, 1, 2), (5, 1, -1), (2, 1, 0)],
)
def test_sphere_volume_matches_coset_counting(p, n, j):
    expected = sphere_volume_by_counting(p, n, j)
    assert sphere_volume_frac(SpaceParams(p, n), j) == expected
    assert sphere_volume(SpaceParams(p, n), j) == pytest.approx(float(expected), rel=1e-15)


def test_sphere_volume_is_the_rounded_exact_volume():
    # every exponent of the exact range, up to a p of 17 bits and n = 7
    checked = 0
    for p in (2, 3, 5, 7, 11, 13, 31, 97, 101, 257, 65537):
        for n in range(1, 8):
            space = SpaceParams(p, n)
            for j in range(-(30 // n), 30 // n + 1):
                assert sphere_volume(space, j) == float(sphere_volume_frac(space, j)), (p, n, j)
                checked += 1
    assert checked == 1771


def test_sphere_volume_examples_from_counting():
    assert sphere_volume_by_counting(3, 2, -1) == Fraction(8, 81)
    assert sphere_volume_by_counting(2, 1, 1) == Fraction(1)


def test_partition_of_unity_exact():
    # sum_{J0 <= j <= J} vol(S_j) = p^{nJ} - p^{n(J0-1)} exactly, i.e. the
    # spheres tile the ball: the deficit is precisely the missing sub-ball
    for p, n in ((2, 1), (3, 2), (5, 1)):
        space = SpaceParams(p, n)
        for j_top in (-2, 0, 3):
            j_bot = j_top - 10
            total = sum(sphere_volume_frac(space, j) for j in range(j_bot, j_top + 1))
            assert total == Fraction(p) ** (j_top * n) - Fraction(p) ** ((j_bot - 1) * n)


def test_log_sphere_volume_far_range():
    space = SpaceParams(2, 1)
    from ultradiff.padic import log_sphere_volume

    assert log_sphere_volume(space, 2000) == pytest.approx(
        2000 * math.log(2) + math.log(0.5), rel=1e-14
    )
    assert sphere_volume(space, -2000) == 0.0  # underflows, not an error


# ---------------------------------------------------------------------------
# character integrals over spheres
# ---------------------------------------------------------------------------


def test_character_trivial_on_small_norms():
    space = SpaceParams(2, 1)
    assert character_sphere_integral_frac(space, 0, 0) == Fraction(1, 2)
    assert character_sphere_integral_frac(space, ZERO_NORM, 0) == Fraction(1, 2)


def test_character_frozen_examples():
    # values computed with character_integral_by_enumeration and frozen
    assert character_sphere_integral(SpaceParams(2, 1), 1, 0) == pytest.approx(-0.5)
    assert character_sphere_integral(SpaceParams(3, 1), 2, 0) == 0.0


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_character_integral_matches_enumeration(p, n):
    space = SpaceParams(p, n)
    exps = range(-2, 3) if n == 1 else range(-1, 2)
    ys = range(-1, 4) if n == 1 else range(-1, 3)
    for sphere_exp in exps:
        for y_exp in ys:
            got = character_sphere_integral(space, y_exp, sphere_exp)
            want = character_integral_by_enumeration(p, n, y_exp, sphere_exp)
            # the enumeration sums p^{n(|y|+slack)} unit complex numbers
            cells = p ** (n * (max(y_exp + sphere_exp, 0) + 2))
            assert got == pytest.approx(want, abs=1e-12 + 3e-16 * cells)


def test_character_value_depends_only_on_norm_of_y():
    # same |y|: y = u p^{-k} for units u; enumeration with several units
    p, k, sphere_exp = 3, 1, 0
    vals = []
    for unit in (1, 2, 4):
        total = 0j
        depth = k + sphere_exp + 2
        cells = 0
        for v in range(p**depth):
            if v % p == 0:
                continue
            frac = padic_fractional_part(Fraction(-unit * v, p**k), p)
            total += cmath.exp(2j * math.pi * float(frac))
            cells += 1
        vals.append((total / cells).real * float(sphere_volume_frac(SpaceParams(p, 1), 0)) * cells / cells)
    assert max(vals) - min(vals) < 1e-12


def test_character_ball_sum_reproduces_truncated_ball():
    # summing sphere integrals over |xi| <= p^M gives the ball character
    # integral: vol(B_M) when |y| p^M <= 1, and 0 when |y| p^M >= p^2;
    # checked in exact arithmetic for p in {2,3}, n in {1,2}, M <= 3
    for p, n in ((2, 1), (3, 1), (2, 2), (3, 2)):
        space = SpaceParams(p, n)
        for M in (-1, 0, 1, 3):
            for y_exp in range(-M - 1, -M + 4):
                total = sum(
                    character_sphere_integral_frac(space, y_exp, s)
                    for s in range(M - 10, M + 1)
                )
                remainder = Fraction(p) ** ((M - 11) * n)  # dropped lower tail
                if y_exp + M <= 0:
                    assert abs(total - Fraction(p) ** (M * n)) <= remainder
                elif y_exp + M >= 2:
                    assert abs(total) <= remainder


# ---------------------------------------------------------------------------
# p-adic fractional part
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "x,p,expect",
    [
        (Fraction(5, 9), 3, Fraction(5, 9)),
        (Fraction(1, 2), 2, Fraction(1, 2)),
        (Fraction(3, 4), 2, Fraction(3, 4)),
        (Fraction(7, 3), 3, Fraction(1, 3)),
        (Fraction(4), 2, Fraction(0)),
        (Fraction(-1, 3), 3, Fraction(2, 3)),
        (Fraction(0), 5, Fraction(0)),
        (Fraction(2, 5), 3, Fraction(0)),  # unit denominator: inside Z_3
    ],
)
def test_fractional_part(x, p, expect):
    assert padic_fractional_part(x, p) == expect


# ---------------------------------------------------------------------------
# coset arithmetic
# ---------------------------------------------------------------------------


def test_coset_identity():
    space = SpaceParams(2, 1)
    a = CosetPoint.from_digit_maps(space, [{-1: 1, -3: 1}])
    zero = CosetPoint.zero(space)
    assert coset_add(a, zero) == a
    assert zero.is_zero() and zero.norm_exponent() == ZERO_NORM


def test_coset_half_plus_half_is_zero():
    space = SpaceParams(2, 1)
    half = CosetPoint.from_digit_maps(space, [{-1: 1}])
    assert coset_add(half, half).is_zero()


def test_coset_rational_example():
    # 1/3 + 2/9 = 5/9, base-3 digits {-2: 2, -1: 1}
    space = SpaceParams(3, 1)
    a = CosetPoint.from_digit_maps(space, [{-1: 1}])
    b = CosetPoint.from_digit_maps(space, [{-2: 2}])
    c = coset_add(a, b)
    assert c == CosetPoint.from_digit_maps(space, [{-2: 2, -1: 1}])
    assert c.to_fractions() == (Fraction(5, 9),)
    assert c == CosetPoint.from_fractions(space, [Fraction(5, 9)])


def test_coset_addition_matches_rational_addition():
    space = SpaceParams(3, 2)
    xs = [Fraction(7, 27), Fraction(2, 3)]
    ys = [Fraction(11, 9), Fraction(5, 27)]
    a = CosetPoint.from_fractions(space, xs)
    b = CosetPoint.from_fractions(space, ys)
    expect = CosetPoint.from_fractions(space, [x + y for x, y in zip(xs, ys)])
    assert coset_add(a, b) == expect


def test_norm_exponent_is_deepest_nonzero_digit():
    space = SpaceParams(2, 2)
    c = CosetPoint.from_digit_maps(space, [{-2: 1}, {-5: 1, -1: 1}])
    assert c.norm_exponent() == 5
    assert CosetPoint.from_digit_maps(space, [{-1: 1}, {}]).norm_exponent() == 1


digit_arrays = st.integers(2, 5).filter(is_prime).flatmap(
    lambda p: st.tuples(
        st.just(p),
        st.lists(
            st.lists(st.integers(0, p - 1), min_size=0, max_size=8),
            min_size=1,
            max_size=2,
        ),
    )
)


@st.composite
def coset_triples(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 2))
    space = SpaceParams(p, n)

    def one():
        return CosetPoint(
            space,
            tuple(
                tuple(draw(st.lists(st.integers(0, p - 1), min_size=0, max_size=8)))
                for _ in range(n)
            ),
        )

    return one(), one(), one()


@given(coset_triples())
@settings(max_examples=200, deadline=None)
def test_coset_add_associative_commutative(triple):
    a, b, c = triple
    assert coset_add(a, b) == coset_add(b, a)
    assert coset_add(coset_add(a, b), c) == coset_add(a, coset_add(b, c))


def test_coset_add_group_laws_bulk():
    # 10^4 seeded random triples: associativity and commutativity
    rng = split_stream(2718, 0)
    space = SpaceParams(3, 2)
    p = space.p

    def rand_coset():
        depth = int(rng.integers(0, 7))
        return CosetPoint(
            space,
            tuple(
                tuple(int(d) for d in rng.integers(0, p, size=depth))
                for _ in range(space.n)
            ),
        )

    for _ in range(10_000):
        a, b, c = rand_coset(), rand_coset(), rand_coset()
        assert coset_add(a, b) == coset_add(b, a)
        assert coset_add(coset_add(a, b), c) == coset_add(a, coset_add(b, c))


@given(coset_triples())
@settings(max_examples=100, deadline=None)
def test_coset_inverse_and_p_power_order(triple):
    a, _, _ = triple
    assert coset_add(a, coset_neg(a)).is_zero()
    # the order of a divides p^depth: adding a to itself p^depth times
    acc = CosetPoint.zero(a.space)
    reps = a.space.p ** a.depth
    doubled = a
    k = reps
    while k:  # exponentiation by doubling on the group
        if k & 1:
            acc = coset_add(acc, doubled)
        doubled = coset_add(doubled, doubled)
        k >>= 1
    assert acc.is_zero()


def test_depth_cap_enforced():
    space = SpaceParams(2, 1)
    with pytest.raises(DepthOverflow):
        CosetPoint.from_digit_maps(space, [{-65: 1}])
    with pytest.raises(DepthOverflow):
        CosetPoint.from_fractions(space, [Fraction(1, 2**70)])


def test_residue_round_trip():
    space = SpaceParams(3, 2)
    c = CosetPoint.from_digit_maps(space, [{-1: 2, -3: 1}, {-2: 2}])
    assert CosetPoint.from_residues(space, c.to_residues(4), 4) == c


# ---------------------------------------------------------------------------
# random streams
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 20240810, 2**64 - 1])
@pytest.mark.parametrize("index", [0, 1, 12345, 2**63 + 7, 2**64 + 5])
def test_split_stream_equals_jumped(seed, index):
    # the stream starts at counter (0, 0, index mod 2^64, index >> 64); the
    # protocol defines it as Philox(key=seed) jumped index times by 2^128
    def oracle():
        return np.random.Generator(np.random.Philox(key=seed).jumped(index))

    raw = split_stream(seed, index).bit_generator.random_raw(16)
    assert np.array_equal(raw, oracle().bit_generator.random_raw(16))
    rng, ref = split_stream(seed, index), oracle()
    for _ in range(5):
        assert rng.standard_exponential() == ref.standard_exponential()
        assert rng.random() == ref.random()
        assert rng.integers(3) == ref.integers(3)
        assert np.array_equal(rng.integers(0, 5, size=(2, 3)), ref.integers(0, 5, size=(2, 3)))


def test_split_stream_deterministic_and_independent():
    a1 = split_stream(42, 3).random(8)
    a2 = split_stream(42, 3).random(8)
    b = split_stream(42, 4).random(8)
    c = split_stream(43, 3).random(8)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    assert not np.array_equal(a1, c)
