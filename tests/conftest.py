import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from cellang import GameConfig

# Every property test draws the same examples on every run and keeps no
# example database on disk.
settings.register_profile("cellang", derandomize=True, database=None)
settings.load_profile("cellang")


def pytest_configure(config):
    # Hypothesis still caches the constants it reads from the project's
    # source in its storage directory; keep that out of the working tree.
    config.hypothesis_home = tempfile.mkdtemp(prefix="hypothesis-")
    set_hypothesis_home_dir(config.hypothesis_home)


def pytest_unconfigure(config):
    shutil.rmtree(config.hypothesis_home, ignore_errors=True)


# Verdict lines recorded by tests/test_acceptance.py; echoed after the run
# so they are visible even when pytest captures stdout.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def numerical_grad(f, x, h=1e-5):
    """Central finite differences of a scalar function of an array."""
    x = np.array(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat, gf = x.reshape(-1), g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2.0 * h)
    return g


def grads_close(analytic, numeric, rtol=1e-4, atol=1e-7):
    return np.allclose(analytic, numeric, rtol=rtol, atol=atol)


@pytest.fixture
def small_cfg():
    """A scaled-down game for fast gradient and contract tests."""
    return GameConfig(n_concepts=3, vocab_size=8, feature_dim=6, embed_dim=4,
                      conv_filters=3, conv_width=2, temperature=1.0,
                      variant="sender-sees-all")
