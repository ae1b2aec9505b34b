import numpy as np
import pytest

from muskat.core import make_curve, make_grid, sample_preset

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


def tilted_seed(grid, delta):
    """The seed with z1 = alpha - (1 - delta) sin(alpha): odd and, for
    0 < delta < 1, strictly a graph with min d_alpha z1 = delta."""
    seed = sample_preset("SEED_T0", grid)
    return make_curve(grid, -(1.0 - delta) * np.sin(grid.nodes), seed.z2)


def asymmetric_curve(grid):
    """A tilted seed lifted by a cosine: the presets are all odd, this
    curve is not."""
    curve = tilted_seed(grid, 0.3)
    return curve.with_samples(
        (curve.p1, curve.z2 + 0.2 * np.cos(2.0 * grid.nodes) + 0.1))


@pytest.fixture
def grid64():
    return make_grid(64)


@pytest.fixture
def flat64(grid64):
    return make_curve(grid64, np.zeros(64), np.zeros(64))
