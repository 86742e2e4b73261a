"""The universal instance (``genutil.universal_instance``): the free color
Hom-algebra on x, y, z, truncated to the 126 words whose bases are
distinct, over Q with a Z^3 grading.  Its derived maps, built by the
compiled engine at dim 126 from sparse tables, must equal an evaluator on
dicts of words that shares no code with colorhom, on every basis tuple."""

from fractions import Fraction
from itertools import product

from genutil import UNIVERSAL_Q, universal_instance, word_bases

from colorhom.bundles import associator_map
from colorhom.linalg import commutator_map


def mul(a, b):
    """The product of two vectors {word: Fraction}: concatenation of words
    with disjoint bases, 0 otherwise."""
    out = {}
    for u, c in a.items():
        for v, d in b.items():
            if not set(word_bases(u)) & set(word_bases(v)):
                out[u, v] = out.get((u, v), 0) + c * d
    return out


def alpha(a):
    return {"α" + w: c for w, c in a.items() if w in ("x", "y", "z")}


def sub(a, b):
    out = dict(a)
    for w, c in b.items():
        out[w] = out.get(w, 0) - c
    return {w: c for w, c in out.items() if c}


def eps(u, v):
    """eps(deg u, deg v): the product of q over the pairs of bases."""
    qxy, qxz, qyz = map(Fraction, UNIVERSAL_Q)
    value = {("x", "y"): qxy, ("x", "z"): qxz, ("y", "z"): qyz}
    out = Fraction(1)
    for a in word_bases(u):
        for b in word_bases(v):
            if a != b:  # the diagonal is 1
                out *= value[a, b] if (a, b) in value else 1 / value[b, a]
    return out


def as_words(m, words):
    """A map's table as {key: {word: Fraction}}."""
    return {key: {words[k]: Fraction(*s.nums, s.den) for k, s in v.coeffs.items()}
            for key, v in m.table.items()}


def test_associator_equals_the_word_evaluator_on_every_key():
    words, b = universal_instance()
    basis = [{w: Fraction(1)} for w in words]
    twisted = [alpha(e) for e in basis]
    expected = {}
    for i, j, k in product(range(len(words)), repeat=3):
        if not (twisted[i] or twisted[k]):  # both terms twist one of e_i, e_k
            continue
        value = sub(mul(mul(basis[i], basis[j]), twisted[k]),
                    mul(twisted[i], mul(basis[j], basis[k])))
        if value:
            expected[i, j, k] = value
    assert len(expected) == 36  # 24 + 24 - 12 keys where both terms are nonzero
    assert as_words(associator_map(b.product, b.twist), words) == expected


def test_commutator_equals_the_word_evaluator_on_every_key():
    words, b = universal_instance()
    expected = {}
    for (i, u), (j, v) in product(enumerate(words), repeat=2):
        value = sub(mul({u: 1}, {v: 1}), {w: eps(u, v) * c for w, c in mul({v: 1}, {u: 1}).items()})
        if value:
            expected[i, j] = value
    assert len(expected) == 120
    assert as_words(commutator_map(b.product, b.bichar), words) == expected
