"""The README's Python quickstart runs as written and prints what it says."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _quickstart() -> str:
    """The fenced ``python`` block under the "Python quickstart" heading."""
    text = README.read_text(encoding="utf-8")
    found = re.search(r"^## Python quickstart\n[^#]*?^```python\n(.*?)^```$", text, re.MULTILINE | re.DOTALL)
    assert found, "README.md has no python block under '## Python quickstart'"
    return found.group(1)


def test_quickstart_prints_its_stated_numbers():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_quickstart(), str(README), "exec"), {"__name__": "quickstart"})
    gap, residual_norm, recovery_error, boundary_gap, boundary_residual = (
        float(line) for line in out.getvalue().splitlines())
    assert abs(gap - 0.28578) <= 1e-4
    assert residual_norm > 0.1
    assert recovery_error < 1e-12
    # A rank-deficient PsdOperator rho saturating the pinching.
    assert boundary_gap == 0.0
    assert boundary_residual == 0.0
