"""A colorhom process imports only what its start needs: no dataclasses
(which loads inspect, ast and dis) and no fractions (which loads decimal
and numbers).  Runs under pytest, or as a plain script on an interpreter
without pytest:

    python tests/test_startup.py
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
UNWANTED = ("dataclasses", "inspect", "fractions")


def test_cli_import_leaves_out_heavy_modules():
    # -S: no site-packages, whose .pth files may import these themselves
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import colorhom.cli; "
            f"print(*[m for m in {UNWANTED!r} if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


if __name__ == "__main__":
    test_cli_import_leaves_out_heavy_modules()
    print(f"ok: import colorhom.cli loads none of {', '.join(UNWANTED)}")
