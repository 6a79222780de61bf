"""Small finite fields GF(p^e) for the group constructions.

Elements are integers 0..q-1; the base-p digits of an index are the
coefficients of the element in the polynomial basis, least significant digit
first.  Extension fields use a fixed table of primitive (Conway) polynomials,
so the labelling of every constructed group is reproducible.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

# modulus polynomials, little-endian coefficients including the leading 1
_POLYS: dict[tuple[int, int], tuple[int, ...]] = {
    (2, 2): (1, 1, 1),            # x^2 + x + 1
    (2, 3): (1, 1, 0, 1),         # x^3 + x + 1
    (2, 4): (1, 1, 0, 0, 1),      # x^4 + x + 1
    (2, 5): (1, 0, 1, 0, 0, 1),   # x^5 + x^2 + 1
    (3, 2): (2, 2, 1),            # x^2 + 2x + 2
    (3, 3): (1, 2, 0, 1),         # x^3 + 2x + 1
    (5, 2): (2, 4, 1),            # x^2 + 4x + 2
}


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def factor_prime_power(q: int) -> tuple[int, int]:
    """Return (p, e) with q = p^e, or raise ValueError."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    for p in range(2, q + 1):
        if p * p > q:
            break
        if q % p == 0:
            e = 0
            m = q
            while m % p == 0:
                m //= p
                e += 1
            if m != 1:
                raise ValueError(f"{q} is not a prime power")
            return p, e
    return q, 1  # q itself is prime


def primitive_root(p: int) -> int:
    """Smallest primitive root modulo the prime p."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p == 2:
        return 1
    phi = p - 1
    factors = []
    m = phi
    d = 2
    while d * d <= m:
        if m % d == 0:
            factors.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        factors.append(m)
    for g in range(2, p):
        if all(pow(g, phi // f, p) != 1 for f in factors):
            return g
    raise AssertionError("no primitive root found")


@dataclass(frozen=True)
class GF:
    """Arithmetic tables for GF(q) with elements encoded as 0..q-1."""

    q: int
    p: int
    e: int
    _mul: tuple[tuple[int, ...], ...]
    _add: tuple[tuple[int, ...], ...]
    generator: int

    @staticmethod
    @lru_cache(maxsize=None)
    def of(q: int) -> "GF":
        p, e = factor_prime_power(q)
        if e == 1:
            add = tuple(tuple((a + b) % p for b in range(p)) for a in range(p))
            mul = tuple(tuple((a * b) % p for b in range(p)) for a in range(p))
            gen = primitive_root(p) if p > 2 else 1
            return GF(q, p, e, mul, add, gen)
        if (p, e) not in _POLYS:
            raise ValueError(f"no modulus polynomial on record for GF({q})")
        poly = _POLYS[(p, e)]

        def digits(a: int) -> list[int]:
            out = []
            for _ in range(e):
                out.append(a % p)
                a //= p
            return out

        def undigits(ds: list[int]) -> int:
            a = 0
            for d in reversed(ds):
                a = a * p + d
            return a

        def polymul(a: int, b: int) -> int:
            da, db = digits(a), digits(b)
            prod = [0] * (2 * e - 1)
            for i, x in enumerate(da):
                if x:
                    for j, y in enumerate(db):
                        prod[i + j] = (prod[i + j] + x * y) % p
            # reduce modulo the (monic) modulus polynomial
            for i in range(len(prod) - 1, e - 1, -1):
                c = prod[i]
                if c:
                    prod[i] = 0
                    for j in range(e):
                        prod[i - e + j] = (prod[i - e + j] - c * poly[j]) % p
            return undigits(prod[:e])

        add = tuple(
            tuple(
                undigits([(x + y) % p for x, y in zip(digits(a), digits(b))])
                for b in range(q)
            )
            for a in range(q)
        )
        mul = tuple(tuple(polymul(a, b) for b in range(q)) for a in range(q))
        gen = p  # the class of x; primitive for the tabulated polynomials
        return GF(q, p, e, mul, add, gen)

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def neg(self, a: int) -> int:
        row = self._add[a]
        return row.index(0)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return self._mul[a].index(1)

    def pow(self, a: int, n: int) -> int:
        if n < 0:
            return self.pow(self.inv(a), -n)
        out = 1
        base = a
        while n:
            if n & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            n >>= 1
        return out

    def frobenius(self, a: int) -> int:
        return self.pow(a, self.p)
