"""Pure-Python arithmetic kernels for cyclotomic scalar coefficients.

A scalar in Q(zeta_N) is carried around as ``(nums, den)`` where ``nums``
is a tuple of len == deg Phi_N integer numerators over the common positive
denominator ``den``, fully reduced (gcd of all numerators and den is 1).
Every kernel returns values already in that canonical form.
"""

from math import gcd

BACKEND_NAME = "python"


def normalize(nums, den):
    """Return (tuple(nums), den) scaled to canonical form: den > 0 and
    gcd(*nums, den) == 1; the zero vector always has den == 1."""
    if den == 0:
        raise ZeroDivisionError("scalar with zero denominator")
    if den < 0:
        den = -den
        nums = [-n for n in nums]
    g = den
    for n in nums:
        g = gcd(g, n)
        if g == 1:
            return tuple(nums), den
    return tuple(n // g for n in nums), den // g


def add(anums, aden, bnums, bden):
    if aden == bden:
        return normalize([x + y for x, y in zip(anums, bnums)], aden)
    return normalize(
        [x * bden + y * aden for x, y in zip(anums, bnums)], aden * bden
    )


def sub(anums, aden, bnums, bden):
    if aden == bden:
        return normalize([x - y for x, y in zip(anums, bnums)], aden)
    return normalize(
        [x * bden - y * aden for x, y in zip(anums, bnums)], aden * bden
    )


def mul(anums, aden, bnums, bden, reduction):
    """Multiply two coefficient vectors modulo the minimal polynomial.

    ``reduction`` holds, for t = 0 .. d-2, the integer coefficient row of
    x**(d+t) reduced modulo Phi_N (empty for d == 1).  The convolution is
    pure integer arithmetic; a single gcd pass at the end canonicalizes.
    """
    d = len(anums)
    if d == 1:
        return normalize([anums[0] * bnums[0]], aden * bden)
    conv = [0] * (2 * d - 1)
    for i in range(d):
        a = anums[i]
        if a:
            for j in range(d):
                b = bnums[j]
                if b:
                    conv[i + j] += a * b
    out = conv[:d]
    for t in range(d - 1):
        c = conv[d + t]
        if c:
            row = reduction[t]
            for j in range(d):
                r = row[j]
                if r:
                    out[j] += c * r
    return normalize(out, aden * bden)
