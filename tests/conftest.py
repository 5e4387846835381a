import contextlib
import signal
from pathlib import Path

import pytest

from shapxp import (
    ExplanationProblem,
    SimilarityConfig,
    load_model,
    make_instance,
)

from randmodels import rebuilt  # noqa: F401 (the test modules import it from here)

FIXTURES = Path(__file__).resolve().parent.parent / "docs" / "fixtures"


class CpuLimit(Exception):
    """Raised into a run that used up its CPU seconds."""


@contextlib.contextmanager
def cpu_limit(seconds):
    """Stop the block once this process has spent ``seconds`` more seconds
    of CPU, so that a run which would not end fails instead of hanging."""
    def stop(signum, frame):
        raise CpuLimit(f"stopped after {seconds} s of CPU")
    previous = signal.signal(signal.SIGPROF, stop)
    signal.setitimer(signal.ITIMER_PROF, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, previous)


@pytest.fixture(scope="session")
def cls3_model():
    return load_model(FIXTURES / "cls3.json")


@pytest.fixture(scope="session")
def cls3_tree_model():
    return load_model(FIXTURES / "cls3_tree.json")


@pytest.fixture(scope="session")
def reg2_model():
    return load_model(FIXTURES / "reg2.json")


@pytest.fixture(scope="session")
def reg2_tree_model():
    return load_model(FIXTURES / "reg2_tree.json")


@pytest.fixture(scope="session")
def pw2_model():
    return load_model(FIXTURES / "pw2.json")


@pytest.fixture(scope="session")
def cls3_problem(cls3_model):
    return ExplanationProblem(cls3_model, make_instance(cls3_model, (1, 1, 2)),
                              SimilarityConfig.class_equality())


@pytest.fixture(scope="session")
def reg2_problem(reg2_model):
    return ExplanationProblem(reg2_model, make_instance(reg2_model, (1, 1)),
                              SimilarityConfig.class_equality())


@pytest.fixture(scope="session")
def pw2_problem(pw2_model):
    from fractions import Fraction
    return ExplanationProblem(pw2_model, make_instance(pw2_model, (1, 1)),
                              SimilarityConfig.threshold(Fraction(1, 5)))
