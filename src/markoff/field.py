"""The prime field F_p for odd p: the checked modulus and square roots.

Field values are plain canonical integers in [0, p); F_p[t] arithmetic on
them lives in `poly`.  Square roots use Tonelli-Shanks and always return the
smaller of the two integer representatives, so outputs are deterministic
(e.g. sqrt(-1) = 5 for p = 13, never 8).
"""

from __future__ import annotations

import functools

from .record import Record, _set

# Deterministic Miller-Rabin witnesses for all n < 3.3 * 10^24 (covers 64-bit).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

MAX_MODULUS = 2**63


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n < 2**64."""
    if n < 2:
        return False
    for w in _MR_WITNESSES:
        if n == w:
            return True
        if n % w == 0:
            return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for w in _MR_WITNESSES:
        x = pow(w, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeModulus(Record):
    """An odd prime p with 3 <= p < 2**63, checked at construction."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int):
            raise TypeError("modulus must be an int")
        if not 3 <= p < MAX_MODULUS:
            raise ValueError(f"modulus must satisfy 3 <= p < 2**63, got {p}")
        if not is_prime(p):
            raise ValueError(f"modulus must be an odd prime, got {p}")
        _set(self, "p", p)

    def __repr__(self):
        return f"PrimeModulus({self.p})"


def _sqrt_int(a: int, p: int) -> int | None:
    """Canonical square root of a mod p by Tonelli-Shanks: min(r, p - r),
    or None when a is a non-residue.  At p = 3 (mod 4), s = 1 and t = 1,
    so r = a^((p+1)/4) is returned without entering the loop."""
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    # write p - 1 = q * 2^s with q odd
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2, i = t * t % p, 1
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return min(r, p - r)


@functools.lru_cache(maxsize=None)
def sqrt_minus_one(modulus: PrimeModulus) -> int | None:
    """Canonical i with i*i = -1, or None when p = 3 (mod 4)."""
    if modulus.p % 4 != 1:
        return None
    return _sqrt_int(modulus.p - 1, modulus.p)
