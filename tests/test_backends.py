"""Bit-for-bit parity between the compiled kernel and its pure-Python
twin, and the COLORHOM_BACKEND selection contract.

The pure-Python contract and the selection tests always run; only the
tests that need the compiled ``colorhom._core`` skip when it is not
built."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import colorhom
from colorhom import _core_py
from colorhom._backend import BACKEND, kernel
from colorhom.scalars import cyclotomic_field

try:
    from colorhom import _core as _core_c
except ImportError:
    _core_c = None


def needs_core(reason):
    return pytest.mark.skipif(
        _core_c is None, reason=f"compiled colorhom._core not built: {reason}"
    )


FIELDS = [cyclotomic_field(n) for n in (1, 2, 3, 4, 8, 12)]

ints = st.integers(min_value=-50, max_value=50)
dens = st.integers(min_value=1, max_value=40)


def vec_strategy(width):
    return st.tuples(
        st.lists(ints, min_size=width, max_size=width).map(tuple), dens
    )


@pytest.mark.parametrize(
    "backend",
    [
        pytest.param(_core_py, id="python"),
        pytest.param(_core_c, id="cython",
                     marks=needs_core("checks the compiled normalize contract")),
    ],
)
def test_normalize_contract(backend):
    assert backend.normalize([2, 4], 6) == ((1, 2), 3)
    assert backend.normalize([-2, 4], -6) == ((1, -2), 3)
    assert backend.normalize([0, 0], 7) == ((0, 0), 1)
    assert backend.normalize([3], 1) == ((3,), 1)
    with pytest.raises(ZeroDivisionError):
        backend.normalize([1], 0)


@needs_core("compares the compiled kernels with _core_py")
@settings(max_examples=300)
@given(st.data())
def test_kernels_agree_on_random_inputs(data):
    field = data.draw(st.sampled_from(FIELDS))
    width = field.degree
    a_nums, a_den = data.draw(vec_strategy(width))
    b_nums, b_den = data.draw(vec_strategy(width))
    for name in ("add", "sub"):
        py = getattr(_core_py, name)(a_nums, a_den, b_nums, b_den)
        cc = getattr(_core_c, name)(a_nums, a_den, b_nums, b_den)
        assert py == cc
        assert isinstance(cc[0], tuple)
    py = _core_py.mul(a_nums, a_den, b_nums, b_den, field.reduction)
    cc = _core_c.mul(a_nums, a_den, b_nums, b_den, field.reduction)
    assert py == cc


@settings(max_examples=120)
@given(st.data())
def test_mul_against_polynomial_oracle(data):
    from oracles import FieldOracle

    field = data.draw(st.sampled_from(FIELDS))
    width = field.degree
    a_nums, a_den = data.draw(vec_strategy(width))
    b_nums, b_den = data.draw(vec_strategy(width))
    nums, den = kernel.mul(a_nums, a_den, b_nums, b_den, field.reduction)
    O = FieldOracle(list(field.minimal_polynomial))
    want = O.mul(
        [Fraction(n, a_den) for n in a_nums], [Fraction(n, b_den) for n in b_nums]
    )
    assert [Fraction(n, den) for n in nums] == want


@settings(max_examples=150)
@given(st.data())
def test_results_always_canonical(data):
    from math import gcd

    field = data.draw(st.sampled_from(FIELDS))
    width = field.degree
    a_nums, a_den = data.draw(vec_strategy(width))
    b_nums, b_den = data.draw(vec_strategy(width))
    for nums, den in (
        kernel.add(a_nums, a_den, b_nums, b_den),
        kernel.sub(a_nums, a_den, b_nums, b_den),
        kernel.mul(a_nums, a_den, b_nums, b_den, field.reduction),
    ):
        assert den > 0
        g = den
        for n in nums:
            g = gcd(g, n)
        assert g == 1 or all(n == 0 for n in nums) and den == 1


@needs_core("compares the compiled mul with _core_py on big integers")
def test_big_integer_territory():
    # far past any fixed-width integer: both backends must agree exactly
    F = cyclotomic_field(4)
    a = ((10**40, -(3**50)), 7)
    b = ((-(2**64), 5**30), 11)
    py = _core_py.mul(*a, *b, F.reduction)
    cc = _core_c.mul(*a, *b, F.reduction)
    assert py == cc
    assert py[0][0] != 0 and abs(py[0][0]) > 10**50


# ---------------------------------------------------------------------------
# environment selection (subprocess: import-time decision)


def _selected_backend(env_value):
    code = (
        "import os\n"
        f"os.environ['COLORHOM_BACKEND'] = {env_value!r}\n"
        "from colorhom._backend import BACKEND\n"
        "print(BACKEND)\n"
    )
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_child_env()
    )


def _child_env():
    # the child imports the same colorhom as this test process
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(colorhom.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_env_selects_python_backend():
    r = _selected_backend("py")
    assert r.returncode == 0
    assert r.stdout.strip() == "python"


@needs_core("COLORHOM_BACKEND=c requires the extension")
def test_env_selects_compiled_backend():
    r = _selected_backend("c")
    assert r.returncode == 0
    assert r.stdout.strip() == "cython"


def test_env_rejects_unknown_backend():
    r = _selected_backend("fortran")
    assert r.returncode != 0
    assert "COLORHOM_BACKEND" in r.stderr


@needs_core("auto picks the extension only when it is built")
def test_default_build_uses_compiled_kernel():
    # this repository builds the extension; auto must have picked it
    assert BACKEND == "cython"
    assert kernel.BACKEND_NAME == "cython"


@needs_core("compares a scalar computation on both backends")
def test_scalar_arithmetic_identical_across_backends():
    # one end-to-end scalar computation per backend, byte-compared
    code = (
        "import os\n"
        "os.environ['COLORHOM_BACKEND'] = {sel!r}\n"
        "from colorhom.scalars import Scalar, cyclotomic_field\n"
        "F = cyclotomic_field(12)\n"
        "z = Scalar.root(F)\n"
        "x = (z**7 - 3*z.inverse()) / (z**2 + Scalar.rational(F, 5, 9))\n"
        "print(repr(x.coefficients))\n"
    )
    outs = []
    for sel in ("py", "c"):
        r = subprocess.run(
            [sys.executable, "-c", code.format(sel=sel)],
            capture_output=True,
            text=True,
            env=_child_env(),
        )
        assert r.returncode == 0, r.stderr
        outs.append(r.stdout)
    assert outs[0] == outs[1]
