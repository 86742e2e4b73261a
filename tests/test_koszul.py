"""Every law follows the color sign rule: its defect is covariant under
Scheunert's cocycle twist (``genutil.cocycle_twist``).

The twist scales each k-ary operation at argument degrees g_1..g_k by
sigma(g_1, .., g_k) = prod_{p<q} s(g_p, g_q) and replaces eps by its
diagonal part rho.  Each term of a law written by the Koszul rule (one
eps(k[p], k[q]) for each pair of key positions p < q whose arguments
appear in the order q .. p) then picks up the same factor: the sigma of
the key degrees in order.  So the twisted bundle's defect at each basis
tuple is that sigma times the bundle's own, and a cyclic sum, which
carries the prefactor eps(z, x) in every rotation, is also multiplied by
rho(z, x) / eps(z, x).  The check is exact, tuple by tuple, on
tests/test_engine.py's random bundles, modules over a nonzero bracket
among them; preconditions are replaced by passing reports, so that every
law is evaluated on every bundle.  The derived maps that ``commutator_map``
and ``associator_map`` materialize, and each operation under the twisting
maps of the constructions, are compared entry by entry the same way: a
twist map is even and stays as it is, so t o op, or op with t applied to
its algebra argument, scales as op does, by the sigma of the operation's
argument degrees.
"""

import itertools
import random

import pytest

import genutil as G
from colorhom import checkers
from colorhom.bundles import ModuleBundle, associator_map
from colorhom.linalg import commutator_map
from colorhom.report import CheckReport
from test_engine import ALL_LAWS, CASES, DIM, checks_for, random_bundles

# laws whose eps factors do not follow the Koszul rule, left out until
# ROADMAP.md item 12 settles them: flexible-literal is ungraded by design;
# flexible-polarized reads eps(x,z) alone; the second summand of
# flexible-akivis-relation reads eps(x,y) eps(y,z); module-bracket-right and
# module-mixed differ from the Leibniz law of the semidirect product
NOT_KOSZUL = {"flexible-literal", "flexible-polarized", "flexible-akivis-relation",
              "module-bracket-right", "module-mixed"}

# the twisting maps of checkers.LAWS, which the constructions derive
TWISTING = {"twisted-unary", "twisted-binary", "twisted-ternary",
            "twisted-action-left", "twisted-action-right"}

# the derived maps of checkers.LAWS, which no checker scans
DERIVED = {"commutator", "hom-associator", "dialgebra-bracket", "opposite", *TWISTING}

# the prefactor (p, q), eps(k[p], k[q]), of every term of a cyclic sum
PREFACTOR = {"hom-jacobi": (2, 0), "hom-akivis": (2, 0)}

# the space of each key position of a module law: A the algebra's, M the module's
MODULE_KEYS = {"module-twist-left": "AM", "module-twist-right": "MA",
               "module-bracket-left": "AAM", "module-bracket-right": "AAM",
               "module-mixed": "AMA"}


@pytest.fixture
def laws(monkeypatch):
    """run(bundle) -> {identity id: (keys, defect)} for every law the
    checkers scan on the bundle."""
    originals = (checkers.check_skew_symmetry, checkers.check_color_leibniz,
                 checkers.check_flexible_alternative)
    monkeypatch.setattr(checkers, "check_skew_symmetry",
                        lambda b: CheckReport("skew-symmetry"))
    monkeypatch.setattr(checkers, "check_color_leibniz",
                        lambda b: CheckReport("color-hom-leibniz"))
    monkeypatch.setattr(checkers, "check_flexible_alternative",
                        lambda b: CheckReport("flexible-alternative", flags={"flexible": True}))
    captured = {}

    def capture(identity_id, keys, defect_fn, jobs=1, note=""):
        captured[identity_id] = (list(keys), defect_fn)
        return CheckReport(identity_id)

    monkeypatch.setattr(checkers, "scan_identity", capture)

    def run(b):
        captured.clear()
        for check in checks_for(b, originals):
            check(b)
        return dict(captured)

    return run


def key_degrees(b, identity_id, key):
    if isinstance(b, ModuleBundle):
        spaces = {"A": b.algebra.space, "M": b.module_space}
        return [spaces[s].degree(k) for s, k in zip(MODULE_KEYS[identity_id], key)]
    return [b.space.degree(k) for k in key]


def vector(defect):
    return None if defect is None else defect.vector()


def derived_maps(b):
    """(law id, map) for each derived map of b's operations: the
    commutator and Hom-associator of a binary algebra operation, and
    every operation twisted by the (algebra's) twist map t, t o op or an
    action with t applied to its algebra argument; t o t stands for the
    unary case."""
    if isinstance(b, ModuleBundle):
        spaces, t = {"S": b.module_space, "A": b.algebra.space}, b.algebra.twist
        return [(law_id, checkers.derive(law_id, spaces, M=op, tA=t)) for law_id, op in (
            ("twisted-action-left", b.act_left), ("twisted-action-right", b.act_right))]
    space, t = {"S": b.space}, b.twist
    out = [("twisted-unary", checkers.derive("twisted-unary", space, M=t, tS=t))]
    for op in b.ops():
        law_id = "twisted-binary" if op.arity == 2 else "twisted-ternary"
        out.append((law_id, checkers.derive(law_id, space, M=op, tS=t)))
        if op.arity == 2:
            out += [("commutator", commutator_map(op, b.bichar)),
                    ("hom-associator", associator_map(op, t))]
    return out


@pytest.mark.parametrize("N,grading", [pytest.param(N, g, id=f"{N}-{g}") for N, g in CASES])
def test_every_koszul_law_is_covariant(laws, N, grading):
    rng = random.Random(f"cocycle-{N}-{grading}")
    checked = set()
    for dim in (1, DIM[grading]):
        for kind, b in random_bundles(rng, N, grading, dim):
            eps = b.algebra.bichar if isinstance(b, ModuleBundle) else b.bichar
            sigma, rho = G.cocycle(eps)
            twisted = G.cocycle_twist(b)
            mine, theirs = laws(b), laws(twisted)
            assert mine.keys() == theirs.keys(), kind
            for identity_id, (keys, defect) in mine.items():
                if identity_id in NOT_KOSZUL:
                    continue
                checked.add(identity_id)
                twisted_defect = theirs[identity_id][1]
                for key in keys:
                    degrees = key_degrees(b, identity_id, key)
                    factor = sigma(*degrees)
                    if identity_id in PREFACTOR:
                        p, q = PREFACTOR[identity_id]
                        factor = factor * rho(degrees[p], degrees[q]) / eps(
                            degrees[p], degrees[q])
                    want = vector(defect(key))
                    want = None if want is None else want.scaled(factor)
                    assert vector(twisted_defect(key)) == want, (kind, identity_id, key)
            # the derived maps, entry by entry
            for (law_id, mine), (_, theirs) in zip(derived_maps(b), derived_maps(twisted)):
                checked.add(law_id)
                for key in itertools.product(*(range(sp.dim) for sp in mine.spaces)):
                    factor = sigma(*(sp.degree(k) for sp, k in zip(mine.spaces, key)))
                    want = mine.on_basis(*key).scaled(factor)
                    assert theirs.on_basis(*key) == want, (kind, law_id, key)
    assert checked == {law for law in ALL_LAWS - NOT_KOSZUL
                       if grading == "trivial" or not law.startswith("dialgebra")} | {
                           "commutator", "hom-associator", *TWISTING}


def test_laws_table_is_what_the_covariance_test_covers():
    """checkers.LAWS holds every scanned law and the derived maps, with
    the module key spaces used above (its S is the module); exactly the
    laws left out above and the opposite product, whose Koszul form would
    be eps(x,y) P(y,x), list their own eps factors, and the cyclic sums
    carry the prefactor checked above.  The commutator, the
    Hom-associator and the twisting maps are checked above as maps; the
    dialgebra bracket lives on ungraded spaces, where every eps is 1."""
    assert set(checkers.LAWS) == ALL_LAWS | DERIVED
    assert {law_id: checkers.LAWS[law_id][0] for law_id in MODULE_KEYS} == {
        law_id: spaces.replace("M", "S") for law_id, spaces in MODULE_KEYS.items()}
    own = {law_id for law_id, (_, _, terms) in checkers.LAWS.items()
           if any(len(term) == 3 for term in terms)}
    assert own == NOT_KOSZUL | {"opposite"}
    prefactors = {law_id: prefactor for law_id, (_, prefactor, _) in checkers.LAWS.items()
                  if prefactor}
    assert prefactors == {**PREFACTOR, "flexible-akivis-relation": (2, 0)}
