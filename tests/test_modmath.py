"""Share arithmetic: worked values against independent oracles, plus properties."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quditshare import modmath
from quditshare.modmath import (
    MAX_MODULUS,
    DuplicateAbscissa,
    NotInvertible,
    Share,
    SharePolynomial,
    ZeroAbscissa,
    eval_poly,
    gen_shares,
    lagrange_term,
    lagrange_terms,
    mod_inverse,
)

PRIMES_31 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


def inverse_bruteforce(a, d):
    """Oracle: scan all residues for a*b % d == 1."""
    for b in range(d):
        if a * b % d == 1:
            return b
    return None


def eval_bruteforce(coeffs, x, d):
    """Oracle: direct power sum, no Horner."""
    return sum(a * x**j for j, a in enumerate(coeffs)) % d


def interpolate_at_zero_bruteforce(shares, d):
    """Oracle: scan every polynomial of degree < len(shares) over Z_d.

    Returns the constant term of the unique match (asserts uniqueness).
    """
    t = len(shares)
    matches = [
        coeffs
        for coeffs in itertools.product(range(d), repeat=t)
        if all(eval_bruteforce(coeffs, sh.x, d) == sh.y for sh in shares)
    ]
    assert len(matches) == 1, f"expected a unique interpolant, got {len(matches)}"
    return matches[0][0]


def term_factorwise(shares, r, d):
    """Oracle: term r (0-based) multiplied factor by factor, one inverse per difference."""
    x_r, s = shares[r].x, shares[r].y
    for j, sh in enumerate(shares):
        if j != r:
            diff = (sh.x - x_r) % d
            try:
                inv = pow(diff, -1, d)
            except ValueError:
                raise NotInvertible(diff, d) from None
            s = s * sh.x * inv % d
    return s


def outcome(fn, *args):
    """fn's result, or the value and modulus of the NotInvertible it raises."""
    try:
        return fn(*args)
    except NotInvertible as exc:
        return NotInvertible, exc.value, exc.modulus


# mod_inverse ---------------------------------------------------------------

def test_mod_inverse_identity():
    assert mod_inverse(1, 7) == 1


def test_mod_inverse_composite_modulus():
    # unit mod a composite modulus: oracle confirms 3*3 = 9 = 1 mod 4
    assert inverse_bruteforce(3, 4) == 3
    assert mod_inverse(3, 4) == 3


def test_mod_inverse_not_invertible():
    with pytest.raises(NotInvertible) as exc:
        mod_inverse(2, 4)
    assert exc.value.value == 2
    assert exc.value.modulus == 4
    assert "2" in str(exc.value) and "4" in str(exc.value)


def test_mod_inverse_rejects_out_of_range():
    with pytest.raises(ValueError):
        mod_inverse(7, 5)
    with pytest.raises(ValueError):
        mod_inverse(-1, 5)


@given(st.integers(min_value=2, max_value=200), st.data())
def test_mod_inverse_matches_bruteforce(d, data):
    a = data.draw(st.integers(min_value=0, max_value=d - 1))
    expected = inverse_bruteforce(a, d)
    if expected is None:
        with pytest.raises(NotInvertible):
            mod_inverse(a, d)
    else:
        b = mod_inverse(a, d)
        assert b == expected
        assert a * b % d == 1


# eval_poly / gen_shares ----------------------------------------------------

@pytest.mark.parametrize(
    "d,coeffs,x,expected",
    [
        (5, (3, 2), 0, 3),
        (5, (3, 2), 1, 0),
        (7, (5, 3, 2), 3, 4),
    ],
)
def test_eval_poly_values(d, coeffs, x, expected):
    assert eval_bruteforce(coeffs, x, d) == expected
    assert eval_poly(SharePolynomial(d, coeffs), x) == expected


@given(
    st.integers(min_value=2, max_value=50),
    st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=6),
    st.integers(min_value=0, max_value=49),
)
def test_eval_poly_matches_direct_sum(d, raw_coeffs, x):
    coeffs = tuple(a % d for a in raw_coeffs)
    x %= d
    assert eval_poly(SharePolynomial(d, coeffs), x) == eval_bruteforce(coeffs, x, d)


def test_gen_shares_values():
    assert gen_shares(SharePolynomial(5, (3, 2)), [1, 2]) == [Share(1, 0), Share(2, 2)]
    assert gen_shares(SharePolynomial(7, (5, 3, 2)), [1, 2, 3]) == [
        Share(1, 3),
        Share(2, 5),
        Share(3, 4),
    ]


def test_gen_shares_rejects_duplicates_and_zero():
    p = SharePolynomial(5, (3, 2))
    with pytest.raises(DuplicateAbscissa):
        gen_shares(p, [1, 1])
    with pytest.raises(ZeroAbscissa):
        gen_shares(p, [0, 1])
    with pytest.raises(ValueError):
        gen_shares(p, [1, 5])
    with pytest.raises(ValueError):
        gen_shares(p, [1, 2.5])


# lagrange_term / the sum of the terms --------------------------------------

def test_lagrange_term_two_shares_mod5():
    shares = [Share(1, 0), Share(2, 2)]
    assert lagrange_term(shares, 2, 5) == 3
    assert lagrange_term(shares, 1, 5) == 0


def test_lagrange_term_single_share_is_identity():
    for d in (2, 4, 7, 13):
        for y in range(d):
            assert lagrange_term([Share(1, y)], 1, d) == y


def test_lagrange_term_three_shares_mod7():
    shares = [Share(1, 3), Share(2, 5), Share(3, 4)]
    assert [lagrange_term(shares, r, 7) for r in (1, 2, 3)] == [2, 6, 4]


def test_lagrange_term_propagates_not_invertible():
    shares = [Share(1, 1), Share(3, 2)]
    with pytest.raises(NotInvertible):
        lagrange_term(shares, 1, 4)  # difference 3 - 1 = 2 shares a factor with 4


def test_lagrange_term_rejects_bad_index():
    shares = [Share(1, 0), Share(2, 2)]
    with pytest.raises(ValueError):
        lagrange_term(shares, 0, 5)
    with pytest.raises(ValueError):
        lagrange_term(shares, 3, 5)


@given(st.data())
def test_lagrange_term_permutation_invariant(data):
    d = data.draw(st.sampled_from([5, 7, 11, 13]))
    t = data.draw(st.integers(min_value=2, max_value=min(5, d - 1)))
    xs = data.draw(
        st.lists(st.integers(1, d - 1), min_size=t, max_size=t, unique=True)
    )
    ys = data.draw(st.lists(st.integers(0, d - 1), min_size=t, max_size=t))
    shares = [Share(x, y) for x, y in zip(xs, ys)]
    perm = data.draw(st.permutations(range(1, t)))
    s_1 = lagrange_term(shares, 1, d)
    shuffled = [shares[0]] + [shares[i] for i in perm]
    assert lagrange_term(shuffled, 1, d) == s_1


@given(st.data())
def test_lagrange_terms_match_factor_by_factor(data):
    d = data.draw(st.sampled_from([2, 3, 4, 6, 7, 8, 9, 12, 13, 31, 65521, 65536]))
    t = data.draw(st.integers(min_value=1, max_value=min(6, d - 1)))
    xs = data.draw(st.lists(st.integers(1, d - 1), min_size=t, max_size=t, unique=True))
    ys = data.draw(st.lists(st.integers(0, d - 1), min_size=t, max_size=t))
    shares = [Share(x, y) for x, y in zip(xs, ys)]
    expected = outcome(lambda: tuple(term_factorwise(shares, r, d) for r in range(t)))
    assert outcome(lagrange_terms, shares, d) == expected
    for r in range(1, t + 1):
        assert outcome(lagrange_term, shares, r, d) == outcome(term_factorwise, shares, r - 1, d)


def test_lagrange_term_computes_its_own_term_only():
    # mod 4 with xs (1, 3, 2): term 3's differences -1 and 1 are units, term 1's 3 - 1 = 2 is not
    shares = [Share(1, 1), Share(3, 2), Share(2, 3)]
    assert lagrange_term(shares, 3, 4) == 3
    with pytest.raises(NotInvertible) as exc:
        lagrange_terms(shares, 4)
    assert exc.value.value == 2


def test_lagrange_terms_make_one_inverse_per_term(monkeypatch):
    calls = []
    monkeypatch.setattr(modmath, "mod_inverse", lambda a, d, fn=mod_inverse: calls.append(a) or fn(a, d))
    shares = gen_shares(SharePolynomial(13, (5, 3, 2, 7, 1)), [1, 2, 3, 4, 5])
    assert sum(lagrange_terms(shares, 13)) % 13 == 5
    assert len(calls) == 5


def test_reconstruct_values():
    assert sum(lagrange_terms(gen_shares(SharePolynomial(5, (3, 2)), [1, 2]), 5)) % 5 == 3
    assert sum(lagrange_terms(gen_shares(SharePolynomial(7, (5, 3, 2)), [1, 2, 3]), 7)) % 7 == 5
    assert sum(lagrange_terms([Share(1, 4)], 6)) % 6 == 4


def test_reconstruct_random_prime_instances():
    rng = random.Random(2357)
    for _ in range(300):
        t = rng.randint(1, 5)
        d = rng.choice([p for p in PRIMES_31 if p - 1 >= t])
        coeffs = tuple(rng.randrange(d) for _ in range(t))
        xs = rng.sample(range(1, d), t)
        shares = gen_shares(SharePolynomial(d, coeffs), xs)
        assert sum(lagrange_terms(shares, d)) % d == coeffs[0]


@settings(max_examples=60)
@given(st.data())
def test_reconstruct_matches_bruteforce_interpolation(data):
    d = data.draw(st.sampled_from([2, 3, 5, 7]))
    t = data.draw(st.integers(min_value=1, max_value=min(3, d - 1)))
    coeffs = tuple(data.draw(st.integers(0, d - 1)) for _ in range(t))
    xs = data.draw(st.lists(st.integers(1, d - 1), min_size=t, max_size=t, unique=True))
    shares = gen_shares(SharePolynomial(d, coeffs), xs)
    assert sum(lagrange_terms(shares, d)) % d == interpolate_at_zero_bruteforce(shares, d)


def test_threshold_property_bruteforce():
    # t-1 shares leave every candidate secret equally consistent (prime d)
    for d, t in [(3, 2), (5, 2), (5, 3), (7, 3)]:
        coeffs = tuple((2 * j + 1) % d for j in range(t))
        known = gen_shares(SharePolynomial(d, coeffs), list(range(1, t)))
        consistent_secrets = set()
        for candidate in itertools.product(range(d), repeat=t):
            if all(eval_bruteforce(candidate, sh.x, d) == sh.y for sh in known):
                consistent_secrets.add(candidate[0])
        assert consistent_secrets == set(range(d))


# type validation -----------------------------------------------------------

def test_share_polynomial_validation():
    with pytest.raises(ValueError):
        SharePolynomial(1, (0,))
    with pytest.raises(ValueError):
        SharePolynomial(MAX_MODULUS + 1, (0,))
    with pytest.raises(ValueError):
        SharePolynomial(5, ())
    with pytest.raises(ValueError):
        SharePolynomial(5, (5,))
    with pytest.raises(ValueError):
        SharePolynomial(7, (1.5, 2))
    assert SharePolynomial(7, (np.int64(3), 2)).coeffs == (3, 2)
    p = SharePolynomial(MAX_MODULUS, [1, 2])
    assert p.coeffs == (1, 2)
    assert p.threshold == 2
    assert p.secret == 1
