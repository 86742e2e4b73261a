"""Pure-Python arithmetic kernels for cyclotomic scalar coefficients.

A scalar in Q(zeta_N) is carried around as ``(nums, den)`` where ``nums``
is a tuple of len == deg Phi_N integer numerators over the common positive
denominator ``den``, fully reduced (gcd of all numerators and den is 1).
``add``, ``sub``, ``mul`` and ``inverse`` return values already in that
canonical form.  ``product`` and ``times_zeta`` are the raw integer field
products under them, with no gcd: the only field multiplication in the
package, used as well by the table compiler in ``colorhom.tables``.
``mul`` calls ``product`` only when both factors have a zeta part; a
rational factor just scales the other's numerators.
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


def product(a, b, reduction):
    """a * b for integer coefficient tuples of length d, as a tuple.

    ``reduction`` holds, for t = 0 .. d-2, the integer coefficient row of
    x**(d+t) reduced modulo Phi_N (empty for d == 1): the convolution's
    zeta**(d+t) term is folded back by row t.  No gcd is taken.
    """
    d = len(a)
    conv = [0] * (2 * d - 1)
    for i in range(d):
        x = a[i]
        if x:
            for j in range(d):
                y = b[j]
                if y:
                    conv[i + j] += x * y
    out = conv[:d]
    for t in range(d - 1):
        c = conv[d + t]
        if c:
            row = reduction[t]
            for j in range(d):
                r = row[j]
                if r:
                    out[j] += c * r
    return tuple(out)


def times_zeta(a, reduction):
    """zeta * a for an integer coefficient tuple of length d >= 2 (only
    ``reduction[0]``, the row of x**d, is read)."""
    out = [0, *a[:-1]]
    top = a[-1]
    if top:
        for j, r in enumerate(reduction[0]):
            out[j] += top * r
    return tuple(out)


def mul(anums, aden, bnums, bden, reduction):
    """The canonical product of two scalars, with one gcd pass.  A
    rational factor (every numerator past the first is 0, as always for
    N <= 2) scales the other coordinatewise; only two factors with zeta
    parts go through ``product``."""
    if not any(bnums[1:]):
        b = bnums[0]
        return normalize([a * b for a in anums], aden * bden)
    if not any(anums[1:]):
        a = anums[0]
        return normalize([a * b for b in bnums], aden * bden)
    return normalize(product(anums, bnums, reduction), aden * bden)


def inverse(nums, den, order, reduction):
    """The canonical inverse of the nonzero scalar nums / den in
    Q(zeta_order).

    The conjugates sigma_k(x) (zeta -> zeta**k, gcd(k, order) == 1) of
    x = nums multiply to the norm of x, a rational, so 1/x is the product
    of the conjugates other than x itself divided by x times that product.
    """
    d = len(nums)
    if d == 1:
        return normalize([den], nums[0])
    powers = [(1,) + (0,) * (d - 1)]  # zeta**m for m = 0 .. order-1
    for _ in range(order - 1):
        powers.append(times_zeta(powers[-1], reduction))
    rest = powers[0]
    for k in range(2, order):
        if gcd(k, order) == 1:
            conj = [0] * d
            for t in range(d):
                c = nums[t]
                if c:
                    for j, p in enumerate(powers[k * t % order]):
                        conj[j] += c * p
            rest = product(rest, conj, reduction)
    norm = product(nums, rest, reduction)[0]
    return normalize([den * r for r in rest], norm)
