import random

import pytest
from hypothesis import given, strategies as st

from rankcert.field import PrimeField, SampleSet, _is_prime
from shapes import add, sub


SMALL_PRIMES = [2, 3, 5, 7, 101, 131071]


def test_rejects_composite_and_out_of_range():
    for bad in (0, 1, 4, 9, 15, 2**31, 2**31 + 11):
        with pytest.raises(ValueError):
            PrimeField(bad)


def _trial_division_is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_primality_matches_trial_division_below_200000():
    assert [n for n in range(200_000) if _is_prime(n)] == [
        n for n in range(200_000) if _trial_division_is_prime(n)
    ]


# strong pseudoprimes to bases 2; 2, 3; 2, 3, 5, then Carmichael numbers,
# then primes up to the field's top modulus
@pytest.mark.parametrize(
    "n",
    [2047, 1373653, 25326001, 561, 41041, 825265, 321197185, 2**31 - 1, 67108859, 131071],
)
def test_primality_on_pseudoprimes_carmichael_numbers_and_large_primes(n):
    assert _is_prime(n) == _trial_division_is_prime(n)
    if _is_prime(n):
        assert PrimeField(n).p == n
    else:
        with pytest.raises(ValueError, match="not prime"):
            PrimeField(n)


def test_default_sized_prime_accepted():
    f = PrimeField(131071)
    assert f.p == 131071
    assert f.inv(2) == 65536


@given(st.sampled_from(SMALL_PRIMES), st.data())
def test_field_axioms(p, data):
    f = PrimeField(p)
    a = data.draw(st.integers(0, p - 1))
    b = data.draw(st.integers(0, p - 1))
    c = data.draw(st.integers(0, p - 1))
    assert add(f, a, add(f, b, c)) == add(f, add(f, a, b), c)
    assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
    assert f.mul(a, add(f, b, c)) == add(f, f.mul(a, b), f.mul(a, c))
    assert add(f, a, f.neg(a)) == 0
    assert sub(f, a, b) == add(f, a, f.neg(b))
    if a != 0:
        assert f.mul(a, f.inv(a)) == 1


def test_inverse_of_zero_fails():
    f = PrimeField(7)
    with pytest.raises(ValueError):
        f.inv(0)


def test_sample_set_membership_and_star():
    f = PrimeField(7)
    s = SampleSet(f)
    assert s.size == 7
    star = s.star()
    assert star.size == 6
    assert 0 not in star
    assert 3 in star
    narrowed = s.without(2, 5)
    assert narrowed.size == 5
    assert 2 not in narrowed


def test_draw_is_uniform_over_allowed_residues():
    # deterministic bit feed: walk the acceptance region one chunk at a time
    f = PrimeField(5)
    s = SampleSet(f).without(1)
    feed = iter(range(0, 40))
    got = [s.draw(lambda: next(feed)) for _ in range(8)]
    # k = 4 allowed residues {0,2,3,4}; chunks 0..7 map 0,2,3,4,0,2,3,4
    assert got == [0, 2, 3, 4, 0, 2, 3, 4]


def test_draw_respects_forbid_and_rejection():
    f = PrimeField(5)
    s = SampleSet(f)
    vals = {s.draw((lambda v: lambda: v)(u), forbid=(3,)) for u in range(12)}
    assert 3 not in vals
    assert vals == {0, 1, 2, 4}


def test_empty_sample_set_rejected_at_construction():
    f = PrimeField(2)
    with pytest.raises(ValueError):
        SampleSet(f).without(0, 1)


def test_draw_with_everything_forbidden_fails():
    f = PrimeField(2)
    s = SampleSet(f).without(0)
    with pytest.raises(ValueError):
        s.draw(lambda: 0, forbid=(1,))


def test_draw_rejects_high_chunks():
    # chunks at or above the acceptance limit must be skipped, not folded in
    f = PrimeField(3)
    s = SampleSet(f)
    limit = (2**64 // 3) * 3
    feed = iter([limit, limit + 1, 2**64 - 1, limit - 1])
    assert s.draw(lambda: next(feed)) == (limit - 1) % 3


def test_draws_match_sorting_the_exclusions_on_every_draw():
    """The exclusions are sorted once per sample set and merged with
    ``forbid`` only when it is non-empty; the draws stay those of sorting
    both on every draw."""
    f = PrimeField(101)

    def reference(s, bits, forbid=()):
        skip = sorted(s.excluded | {v % f.p for v in forbid})
        k = f.p - len(skip)
        limit = (2**64 // k) * k
        while True:
            u = bits()
            if u < limit:
                v = u % k
                for e in skip:
                    if e > v:
                        break
                    v += 1
                return v

    for s in (SampleSet(f), SampleSet(f).star(), SampleSet(f).without(0, 3, 50)):
        for forbid in ((), (7,), (0, 100, 5), (-1,)):
            ours, theirs = random.Random(9), random.Random(9)
            got = [s.draw(lambda: ours.getrandbits(64), forbid) for _ in range(300)]
            want = [reference(s, lambda: theirs.getrandbits(64), forbid) for _ in range(300)]
            assert got == want, (sorted(s.excluded), forbid)
            assert not set(got) & (s.excluded | {v % f.p for v in forbid})
