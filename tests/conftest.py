import random
import signal
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import settings

from hsdiag import Dpi, cardinality_pr, load_dpi_file

settings.register_profile("ci", derandomize=True, max_examples=60)
settings.load_profile("ci")

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# Far above the slowest test, so only a test that never ends reaches it.
TEST_TIME_LIMIT_S = 120


@contextmanager
def time_limit(seconds: float):
    """Raise TimeoutError inside the block once ``seconds`` of wall time
    have passed; an enclosing limit is re-armed on the way out."""

    def expire(signum, frame):
        raise TimeoutError(f"ran past its {seconds} s time limit")

    previous_handler = signal.signal(signal.SIGALRM, expire)
    previous_delay, _ = signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous_handler)
        if previous_delay:
            signal.setitimer(signal.ITIMER_REAL, previous_delay)


@pytest.fixture(autouse=True)
def per_test_time_limit():
    """Every test fails after TEST_TIME_LIMIT_S instead of hanging the run
    (say, a search that loops for ever); a no-op without SIGALRM."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return
    with time_limit(TEST_TIME_LIMIT_S):
        yield


@pytest.fixture(scope="session")
def table1():
    dpi, pr = load_dpi_file(FIXTURES / "table1.dpi")
    return dpi, pr


@pytest.fixture(scope="session")
def ex4():
    dpi, pr = load_dpi_file(FIXTURES / "ex4.dpi")
    return dpi, pr.as_cost_adjusted()


@pytest.fixture(scope="session")
def table1_card(table1):
    dpi, _ = table1
    return cardinality_pr(dpi.k_ids, 1 / 3)


def random_formula(rng: random.Random, atoms, depth: int = 3):
    """Random formula AST for property tests (independent of the parser)."""
    from hsdiag import And, Atom, Const, Iff, Implies, Not, Or

    if depth == 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.08:
            return Const(rng.random() < 0.5)
        return Atom(rng.choice(atoms))
    op = rng.choice(("not", "and", "or", "implies", "iff"))
    if op == "not":
        return Not(random_formula(rng, atoms, depth - 1))
    ctor = {"and": And, "or": Or, "implies": Implies, "iff": Iff}[op]
    return ctor(
        random_formula(rng, atoms, depth - 1),
        random_formula(rng, atoms, depth - 1),
    )


def random_propositional_dpi(rng: random.Random, max_axioms: int = 8, max_atoms: int = 5) -> Dpi:
    """Random reasoner-backend DPI over a small atom alphabet."""
    atoms = [f"x{i}" for i in range(1, rng.randint(2, max_atoms) + 1)]
    n_axioms = rng.randint(2, max_axioms)
    k = [(f"ax{i + 1}", random_formula(rng, atoms, depth=2)) for i in range(n_axioms)]
    negative = [random_formula(rng, atoms, depth=2) for _ in range(rng.randint(0, 2))]
    background = [random_formula(rng, atoms, depth=1) for _ in range(rng.randint(0, 1))]
    return Dpi.propositional(k, background=background, negative=negative)
