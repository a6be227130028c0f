"""Base-p digit arithmetic: multiplying by p^a modulo p^N - 1 rotates the
digit vector, and under a size bound that forces the trivial rotation.

The scan below checks, exhaustively for small parameters, that
n = m * p^a (mod p^N - 1) with n*m < p^N and p dividing neither factor
can only happen with a = 0 and n = m.  An empty result is the expected
outcome; any violation is returned, never swallowed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .pgroup import DEFAULT_WORK_BOUND


def _check_base(p: int) -> None:
    if p < 2:
        raise ValueError("base p must be at least 2, got %d" % p)


def digits(n: int, p: int, width: int = 0) -> list:
    """Little-endian base-p digits, zero-padded to ``width``."""
    _check_base(p)
    if n < 0:
        raise ValueError("nonnegative integer required")
    out = []
    while n:
        n, d = divmod(n, p)
        out.append(d)
    while len(out) < width:
        out.append(0)
    return out


def rotated_value(m: int, p: int, N: int, a: int) -> int:
    """Sum of m_k * p^((a+k) mod N) over the N-digit expansion of m."""
    if m >= p ** N:
        raise ValueError("m must have at most N digits")
    ds = digits(m, p, width=N)
    return sum(d * p ** ((a + k) % N) for k, d in enumerate(ds))


@dataclass(frozen=True)
class DigitViolation:
    p: int
    N: int
    a: int
    n: int
    m: int
    reason: str


def _check_bound(p: int, n_max: int, bound: int) -> None:
    """Raise ValueError if the scan may take more than bound steps: N values
    of a per pair n m < P = p^N of n, m prime to p.  The Q = P (p-1)/p values
    of n have at most P (p-1)/(p n) + 1 values of m each, and the sum of 1/n
    over them is at most 1 + ln p (N - (N-1)/p), which bounds the pairs by
    Q (2 + ln p (N - (N-1)/p)) >= P.  So the check stops once P passes the
    bound, and it counts in ints (1024 ln p rounded up, plus one)."""
    total, size, log_p = 0, 1, math.ceil(math.log(p) * 1024) + 1
    for N in range(1, n_max + 1):
        size *= p
        # N Q (2048 p + 1024 ln p (N p - N + 1)) / (1024 p), rounded up
        total += -(-N * (size // p * (p - 1)) * (2048 * p + log_p * (N * p - N + 1)) // (1024 * p))
        if size > bound or total > bound:
            raise ValueError("work bound exceeded for (p, N) = (%d, %d)" % (p, n_max))


def digit_lemma_scan(p: int, n_max: int, work_bound: int = DEFAULT_WORK_BOUND) -> list:
    """All counterexamples with N <= n_max; expected empty.

    Also cross-checks the rotation formula on every congruent pair: when
    n = m * p^a (mod p^N - 1), the digit vector of n must be the a-step
    rotation of the digit vector of m."""
    _check_base(p)
    _check_bound(p, n_max, work_bound)
    violations = []
    for N in range(1, n_max + 1):
        modulus = p ** N - 1
        top = p ** N
        for n in range(1, top):
            if n % p == 0:
                continue
            m_limit = (top - 1) // n
            for m in range(1, m_limit + 1):
                if m % p == 0:
                    continue
                for a in range(N):
                    if (n - m * p ** a) % modulus:
                        continue
                    if not (a == 0 and n == m):
                        violations.append(DigitViolation(p, N, a, n, m, "conclusion"))
                    elif rotated_value(m, p, N, a) != n:
                        violations.append(DigitViolation(p, N, a, n, m, "rotation"))
    return violations
