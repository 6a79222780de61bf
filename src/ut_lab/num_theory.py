"""The <-1, c, c-1> criterion for AGL(1,p), shortcut witnesses, and the sieve.

All arithmetic is explicit closure in GF(p)*; p stays desk-scale, so set
saturation is simpler and more obviously correct than discrete logarithms.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .gf import is_prime


def subgroup_order(p: int, gens: list[int] | tuple[int, ...]) -> int:
    """Order of the multiplicative subgroup of GF(p)* generated by `gens`."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if not gens:
        raise ValueError("need at least one generator")
    norm = [g % p for g in gens]
    if any(g == 0 for g in norm):
        raise ValueError("generators must be nonzero mod p")
    seen = {1}
    frontier = [1]
    while frontier:
        x = frontier.pop()
        for g in norm:
            y = (x * g) % p
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return len(seen)


@dataclass
class AglReport:
    """Per-prime table of |<-1, c, c-1>| and the resulting 3-ut verdict."""

    p: int
    orders: dict[int, int] = field(default_factory=dict)
    witnesses: list[int] = field(default_factory=list)

    @property
    def verdict(self) -> bool:
        return not self.witnesses

    @property
    def min_witness(self) -> int | None:
        return min(self.witnesses) if self.witnesses else None


def agl_criterion(p: int, stop_early: bool = False) -> AglReport:
    """Evaluate |<-1, c, c-1>| for every c in GF(p) minus {0, 1}.

    The verdict is true iff every subgroup is all of GF(p)*.  With
    `stop_early` the scan stops at the first failing c (verdict-only use).
    """
    if not is_prime(p) or p < 5:
        raise ValueError(f"need a prime p >= 5, got {p}")
    report = AglReport(p)
    for c in range(2, p):
        order = subgroup_order(p, [p - 1, c, c - 1])
        report.orders[c] = order
        if order < p - 1:
            report.witnesses.append(c)
            if stop_early:
                break
    return report


def sixth_root_shortcut(p: int) -> int | None:
    """A primitive sixth root of unity c (so c^2 = c - 1) when p = 1 mod 3, p > 7."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p % 3 != 1 or p <= 7:
        return None
    for c in range(2, p):
        if (c * c - c + 1) % p == 0:
            return c
    return None


def quadratic_residues(p: int) -> set[int]:
    return {(x * x) % p for x in range(1, p)}


def consecutive_qr_shortcut(p: int) -> int | None:
    """The larger of the first consecutive quadratic-residue pair, for p = 1 mod 4, p > 5."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p % 4 != 1 or p <= 5:
        return None
    qr = quadratic_residues(p)
    for c in range(2, p):
        if c in qr and (c - 1) in qr:
            return c
    return None


def primes_up_to(limit: int) -> list[int]:
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i in range(limit + 1) if sieve[i]]


@dataclass(frozen=True)
class SieveRow:
    p: int
    verdict: bool
    min_witness: int | None
    witness_order: int | None

    def as_text(self) -> str:
        w = self.min_witness if self.min_witness is not None else "-"
        o = self.witness_order if self.witness_order is not None else "-"
        return f"{self.p}\t{str(self.verdict).lower()}\t{w}\t{o}"


def sieve_problem1(limit: int, threads: int = 1) -> list[SieveRow]:
    """For every prime p = 11 (mod 12) up to `limit`: verdict and minimal witness.

    These are exactly the primes the sixth-root and consecutive-residue
    shortcuts leave open, so each one needs the criterion scan, which stops
    at the minimal witness: its order is the only one a row reports.
    """
    if limit < 11:
        return []
    targets = [p for p in primes_up_to(limit) if p % 12 == 11]

    def row(p: int) -> SieveRow:
        rep = agl_criterion(p, stop_early=True)
        w = rep.min_witness
        return SieveRow(p, rep.verdict, w, rep.orders.get(w) if w else None)

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(row, targets))
    return [row(p) for p in targets]
