import itertools
import random

from hypothesis import given, strategies as st

from hsdiag import And, Atom, Const, Dpi, Implies, Not, Or, Reasoner
from conftest import random_formula
from test_logic import evaluate

ATOMS = ["x1", "x2", "x3", "x4"]
TRUE, FALSE = Const(True), Const(False)


def random_sentence(rng):
    """A random formula, sometimes a constant or a formula that folds to one."""
    x = Atom(rng.choice(ATOMS))
    roll = rng.random()
    if roll < 0.08:
        return rng.choice((TRUE, FALSE))
    if roll < 0.16:
        return rng.choice((Or(x, TRUE), And(x, FALSE), Implies(FALSE, x), Not(Or(TRUE, x))))
    return random_formula(rng, ATOMS, depth=2)


def random_dpi(rng):
    k = [(f"ax{i}", random_sentence(rng)) for i in range(rng.randint(1, 6))]
    background = [random_sentence(rng) for _ in range(rng.randint(0, 2))]
    if rng.random() < 0.1:
        background.append(FALSE)
    positive = [random_sentence(rng) for _ in range(rng.randint(0, 2))]
    negative = [random_sentence(rng) for _ in range(rng.randint(0, 2))]
    return Dpi.propositional(k, background, positive, negative)


def models(formulas):
    for bits in itertools.product((False, True), repeat=len(ATOMS)):
        model = dict(zip(ATOMS, bits))
        if all(evaluate(f, model) for f in formulas):
            yield model


@given(st.integers(0, 10_000))
def test_reasoner_agrees_with_truth_tables(seed):
    rng = random.Random(seed)
    dpi = random_dpi(rng)
    reasoner = Reasoner(dpi)
    hard = [*dpi.background, *dpi.positive]
    for size in range(len(dpi.k_ids) + 1):
        for ids in itertools.combinations(dpi.k_ids, size):
            base = hard + [dpi.formula_of(a) for a in ids]
            satisfying = list(models(base))
            valid = bool(satisfying) and all(
                any(not evaluate(n, m) for m in satisfying) for n in dpi.negative
            )
            assert reasoner.is_valid(frozenset(ids)) == valid
            for axiom in dpi.k_ids:
                entailed = all(evaluate(dpi.formula_of(axiom), m) for m in satisfying)
                assert reasoner.entails(frozenset(ids), axiom) == entailed
