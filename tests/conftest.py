import contextlib
import signal
import tracemalloc

import numpy as np
import pytest

from dynastop.codes import make_gold_codes, modulate
from dynastop.simulate import SimConfig, make_dataset, resolve_config


@pytest.fixture(scope="session")
def gold_codes():
    return make_gold_codes()


@pytest.fixture(scope="session")
def modulated_gold(gold_codes):
    return modulate(gold_codes)


@pytest.fixture(scope="session")
def small_sim():
    """Six-class, two-channel simulated set: fast enough for harness tests."""
    cfg = SimConfig(n_classes=6, n_channels=2, sigma=2.0, seed=77)
    resolved = resolve_config(cfg)
    trials = make_dataset(cfg, 5, resolved=resolved)
    return cfg, resolved, trials


@pytest.fixture
def rng():
    return np.random.default_rng(1729)


@pytest.fixture
def deadline():
    """Context manager that fails the block it wraps after `seconds`, so a
    regression to an endless loop fails the test instead of hanging it."""

    @contextlib.contextmanager
    def limit(seconds):
        def expire(signum, frame):
            raise TimeoutError(f"still running after {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return limit


@pytest.fixture
def traced_peak():
    """Run a callable under tracemalloc: its result, and the peak bytes it
    held above what was allocated when it started."""

    def measure(fn):
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            result = fn()
            return result, tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()

    return measure
