"""The scalar arithmetic kernel: the pure-Python functions in ``_core_py``.

``kernel`` is that module object itself, so every caller looks its
functions up on one namespace."""

from . import _core_py as kernel

BACKEND = kernel.BACKEND_NAME
