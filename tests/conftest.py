import numpy as np
import pytest

from muskat.core import make_curve, make_grid

# acceptance results registry, printed in the terminal summary
ACCEPTANCE_LINES: list[str] = []


def record_acceptance(num: int, name: str, passed: bool, detail: str = ""):
    tag = "PASS" if passed else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    ACCEPTANCE_LINES.append(f"criterion {num:2d} {tag}  {name}{suffix}")


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(line)


def mirror(values: np.ndarray) -> np.ndarray:
    """Samples of alpha -> -alpha on the same grid (node i -> (n-i) mod n)."""
    n = len(values)
    return values[(n - np.arange(n)) % n]


@pytest.fixture
def grid64():
    return make_grid(64)


@pytest.fixture
def flat64(grid64):
    return make_curve(grid64, np.zeros(64), np.zeros(64))
