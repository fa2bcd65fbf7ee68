"""Scalar layer: residues mod p**m, valuations, inverses, slot moduli."""

from __future__ import annotations

from random import Random

import pytest

from skewseries import AtLeast, ContextMismatch, ModuleSpec, PadicInt, PrecisionContext
from skewseries.cli import main
from skewseries.coeff import vcanon
from skewseries.precision import CHARP, INTEGRAL, _is_prime

# Strong pseudoprimes to all twelve prime bases 2..37 (the first is the
# least such number, 399165290221 * 798330580441).
STRONG_PSEUDOPRIMES = (318665857834031151167461, 3317044064679887385961981)


def test_known_inverses():
    assert PadicInt(5, 2, 3).inverse().residue == 63
    assert PadicInt(2, 3, 4).inverse().residue == 11
    assert PadicInt(7, 1, 1).inverse().residue == 1


def test_known_valuation():
    assert PadicInt(3, 18, 4).valuation() == 2
    assert PadicInt(2, 12, 5).valuation() == 2
    v = PadicInt(3, 0, 4).valuation()
    assert isinstance(v, AtLeast) and v.bound == 4


def test_inverse_against_modular_oracle():
    rng = Random(101)
    for _ in range(1000):
        p = rng.choice((2, 3, 5, 7))
        m = rng.randrange(1, 7)
        mod = p**m
        a = PadicInt(p, rng.randrange(mod), m)
        if not a.is_unit():
            with pytest.raises(Exception):
                a.inverse()
            continue
        inv = a.inverse()
        assert inv.residue == pow(a.residue, -1, mod)
        assert (a * inv).residue == 1


def test_valuation_against_division_oracle():
    rng = Random(102)
    for _ in range(1000):
        p = rng.choice((2, 3, 5))
        m = rng.randrange(1, 8)
        a = PadicInt(p, rng.randrange(p**m), m)
        v = a.valuation()
        if a.residue == 0:
            assert isinstance(v, AtLeast) and v.bound == m
        else:
            r, count = a.residue, 0
            while r % p == 0:
                r //= p
                count += 1
            assert v == count < m


def test_ring_ops_mod_pm():
    rng = Random(103)
    for _ in range(500):
        p = rng.choice((2, 3, 5))
        m = rng.randrange(1, 6)
        mod = p**m
        a = PadicInt(p, rng.randrange(mod), m)
        b = PadicInt(p, rng.randrange(mod), m)
        assert (a + b).residue == (a.residue + b.residue) % mod
        assert (a - b).residue == (a.residue - b.residue) % mod
        assert (a * b).residue == (a.residue * b.residue) % mod
        assert (-a).residue == (mod - a.residue) % mod


def test_minimum_precision_rule():
    a = PadicInt(3, 20, 4)
    b = PadicInt(3, 5, 2)
    assert (a + b).prec == 2
    assert (a * b).prec == 2
    assert (a + b).residue == 25 % 9
    with pytest.raises(ContextMismatch):
        a + PadicInt(2, 1, 2)


def test_context_validation():
    PrecisionContext(2, 1, INTEGRAL)
    for p in (0, 1, 4, 6, -3):
        with pytest.raises(ValueError):
            PrecisionContext(p, 3, INTEGRAL)
    with pytest.raises(ValueError):
        PrecisionContext(3, 0, INTEGRAL)
    with pytest.raises(ValueError):
        PrecisionContext(3, 2, "other")


def test_primality_agrees_with_a_sieve():
    n = 10**5
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for i in range(2, 317):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, n, i)))
    assert [k for k in range(-3, n) if _is_prime(k)] == [k for k in range(n) if sieve[k]]
    for p in (2**127 - 1, 2**521 - 1, 1000003):
        assert _is_prime(p)


@pytest.mark.parametrize("q", (1093, 3511))
def test_wieferich_squares_are_refused(q):
    # q**2 for a Wieferich prime q passes trial division and the strong
    # base-2 test.  (D/q**2) = (D/q)**2 is never -1, so the square check
    # refuses it; without that check Selfridge's search would run on to
    # |D| = q, where the Jacobi symbol vanishes.
    n = q * q
    assert pow(2, n - 1, n) == 1
    assert not _is_prime(n)


@pytest.mark.parametrize("n", STRONG_PSEUDOPRIMES)
def test_strong_pseudoprimes_are_refused(n, capsys):
    assert not _is_prime(n)
    with pytest.raises(ValueError):
        PrecisionContext(n, 2, INTEGRAL)
    with pytest.raises(ValueError):
        ModuleSpec(p=n, d=1)
    assert main(["omega", "--p", str(n), "--K", "2", "--n", "1"]) == 3
    assert "is not prime" in capsys.readouterr().err


def test_slot_moduli_shapes():
    # length-K vector; slots at or beyond the window q collapse to 1
    ctx = PrecisionContext(5, 4, INTEGRAL)
    assert ctx.slot_moduli(3) == (125, 25, 5, 1)
    assert ctx.slot_moduli(1) == (5, 1, 1, 1)
    fp = PrecisionContext(5, 4, CHARP)
    assert fp.slot_moduli(3) == (5, 5, 5, 1)
    for p in (2, 3, 7):
        for K in (1, 2, 5, 17):
            for mode in (INTEGRAL, CHARP):
                ctx = PrecisionContext(p, K, mode)
                for q in range(K + 1):
                    top = [p if mode == CHARP else p ** (q - a) for a in range(q)]
                    assert ctx.slot_moduli(q) == tuple(top + [1] * (K - q))


def test_slot_moduli_refuse_a_precision_outside_the_window():
    # a slice of the ladder outside 0..K gives a short window or one of
    # ones, and vcanon would then zero the row instead of failing
    ctx = PrecisionContext(3, 4, INTEGRAL)
    for q in (-1, 5, 6):
        with pytest.raises(ValueError, match=f"m-precision {q} outside 0..4"):
            ctx.slot_moduli(q)
    with pytest.raises(ValueError):
        vcanon(ctx, [5] * 4, 5)


def test_padic_immutable_and_hashable():
    a = PadicInt(3, 4, 2)
    with pytest.raises(AttributeError):
        a.residue = 5
    assert a == PadicInt(3, 13, 2)  # 13 reduces to 4 mod 9
    assert hash(a) == hash(PadicInt(3, 4, 2))
    assert a != PadicInt(3, 4, 3)  # different precision
