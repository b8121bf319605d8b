import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from hsdiag import And, Atom, Const, Dpi, Implies, Not, Or, Reasoner, make_query, update_dpi
from hsdiag.logic import Solver, format_formula, is_consistent
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


def assert_same_verdicts(live, fresh, k_ids):
    for size in range(len(k_ids) + 1):
        for ids in map(frozenset, itertools.combinations(k_ids, size)):
            assert live.is_valid(ids) == fresh.is_valid(ids)


@settings(deadline=None)  # up to five sweeps over every subset of K
@given(st.integers(0, 10_000))
def test_measured_reasoner_agrees_with_fresh_encodings(seed):
    # a live reasoner that absorbs each measurement answers every check as a
    # fresh encoding of the updated DPI does, including checks it already
    # answered (and memoized) before the measurement
    rng = random.Random(seed)
    dpi = random_dpi(rng)
    measured = [rng.choice(dpi.k_ids) for _ in range(rng.randint(1, 4))]
    if rng.random() < 0.5:
        x = Atom(rng.choice(ATOMS))
        falsum = rng.choice((FALSE, And(x, FALSE), Not(Or(TRUE, x))))
        dpi = Dpi.propositional(
            [*zip(dpi.k_ids, dpi.formulas), ("axf", falsum)],
            dpi.background, dpi.positive, dpi.negative,
        )
        measured.insert(rng.randint(0, len(measured)), "axf")
    live = Reasoner(dpi)
    assert_same_verdicts(live, Reasoner(dpi), dpi.k_ids)
    for axiom in measured:
        dpi = update_dpi(dpi, make_query(dpi, axiom), rng.random() < 0.5, reasoner=live)
        assert_same_verdicts(live, Reasoner(dpi), dpi.k_ids)


# --- verdict store ---------------------------------------------------------------

X, Y = Atom("x1"), Atom("x2")


def counting_solves(monkeypatch):
    calls = []
    solve = Solver.solve

    def counted(self, assumptions=()):
        calls.append(1)
        return solve(self, assumptions)

    monkeypatch.setattr(Solver, "solve", counted)
    return calls


@pytest.mark.parametrize("negative", [[], [And(X, Y)]], ids=["no-negatives", "negative"])
def test_monotone_checks_make_no_solver_calls(monkeypatch, negative):
    # a superset of an invalid set and a subset of a valid set are decided by
    # the stored core and witness alone
    dpi = Dpi.propositional([("a", X), ("b", Not(X)), ("c", Y), ("d", Or(X, Y))], negative=negative)
    reasoner = Reasoner(dpi)
    assert not reasoner.is_valid(frozenset({"a", "b"}))
    assert reasoner.is_valid(frozenset({"a", "d"}))
    calls = counting_solves(monkeypatch)
    assert not reasoner.is_valid(frozenset({"a", "b", "c"}))
    assert reasoner.is_valid(frozenset({"d"}))
    assert calls == []
    assert reasoner.solver_calls == 2


def test_one_witness_answers_every_check_of_a_consistent_k(monkeypatch):
    # with K ∪ B ∪ P consistent and no negatives, the model of the first
    # satisfiable check keeps every axiom's literal, so its witness covers K
    # and answers every later check
    calls = counting_solves(monkeypatch)
    rng = random.Random(7)
    checked = 0
    while checked < 50:
        drawn = random_dpi(rng)
        dpi = Dpi.propositional(list(zip(drawn.k_ids, drawn.formulas)), drawn.background, drawn.positive)
        if not is_consistent([*dpi.formulas, *dpi.background, *dpi.positive]):
            continue
        reasoner = Reasoner(dpi)
        assert reasoner.is_valid(rng.randint(0, dpi.full_mask))
        calls.clear()
        assert all(reasoner.is_valid(mask) for mask in range(dpi.full_mask + 1))
        assert calls == []
        checked += 1


def ids_of(dpi, mask):
    return frozenset(dpi.ids_of(mask))


def covering(cores, mask):
    return [c for c in cores if c & mask == c]


@settings(deadline=None)
@given(st.integers(0, 10_000))
def test_cores_carry_their_verdicts(seed):
    # every invalid verdict, read off the store or freshly solved, rests on a
    # stored core whose axioms alone give the same verdict on a fresh
    # encoding of the current DPI, across measurements too
    rng = random.Random(seed)
    dpi = random_dpi(rng)
    live = Reasoner(dpi)
    subsets = [frozenset(c) for size in range(len(dpi.k_ids) + 1)
               for c in itertools.combinations(dpi.k_ids, size)]
    for step in range(rng.randint(1, 3)):
        if step:
            axiom = rng.choice(dpi.k_ids)
            dpi = update_dpi(dpi, make_query(dpi, axiom), rng.random() < 0.5, reasoner=live)
        fresh = Reasoner(dpi)
        rng.shuffle(subsets)
        for ids in subsets:
            mask = dpi.mask_of(ids)
            if not live.is_valid(ids):
                cores = covering(live.invalid_cores, mask)
                assert cores
                assert not fresh.is_valid(ids_of(dpi, cores[0]))
        cores = live.invalid_cores
        assert all(a & b != a for a in cores for b in cores if a != b)  # minimal


def test_negative_answer_extends_the_witnesses_that_make_its_literal_false(monkeypatch):
    # the model of a check that kept b made x1 false, so once x1 is measured
    # false that model answers a subset check that must also falsify x1
    dpi = Dpi.propositional([("a", X), ("b", Not(X)), ("c", Y)])
    reasoner = Reasoner(dpi)
    assert reasoner.is_valid(frozenset({"b", "c"}))
    (g,) = reasoner.witnesses
    assert not g & dpi.mask_of({"a"})
    dpi = update_dpi(dpi, make_query(dpi, "a"), False, reasoner=reasoner)
    calls = counting_solves(monkeypatch)
    assert reasoner.is_valid(frozenset({"b"}))
    assert calls == []
    assert Reasoner(dpi).is_valid(frozenset({"b"}))


def test_positive_answer_drops_its_axiom_from_the_cores(monkeypatch):
    # {a, b} is a core; once x1 holds, {b} alone is one, and it answers a
    # check of a set without a
    dpi = Dpi.propositional([("a", X), ("b", Not(X)), ("c", Y)])
    reasoner = Reasoner(dpi)
    assert not reasoner.is_valid(frozenset({"a", "b"}))
    assert reasoner.invalid_cores == [dpi.mask_of({"a", "b"})]
    dpi = update_dpi(dpi, make_query(dpi, "a"), True, reasoner=reasoner)
    assert reasoner.invalid_cores == [dpi.mask_of({"b"})]
    calls = counting_solves(monkeypatch)
    assert not reasoner.is_valid(frozenset({"b", "c"}))
    assert calls == []
    assert not Reasoner(dpi).is_valid(frozenset({"b", "c"}))


def with_negatives(dpi, negative):
    return Dpi.propositional(list(zip(dpi.k_ids, dpi.formulas)), dpi.background, dpi.positive, negative)


@settings(deadline=None)
@given(st.integers(0, 10_000))
def test_verdict_store_stays_true_across_measurements(seed):
    # after every measurement each stored pair (g, nf) still holds on a fresh
    # encoding of the updated DPI: g's axioms are consistent with B ∪ P, and
    # stay so with the negation of each negative in nf; the negatives are
    # indexed as the reasoner indexes them, the DPI's sorted, then each new
    # measured one. Each stored core is invalid there too.
    rng = random.Random(seed)
    dpi = random_dpi(rng)
    live = Reasoner(dpi)
    negatives = sorted(dpi.negative, key=format_formula)
    for _ in range(rng.randint(1, 4)):
        for _ in range(rng.randint(1, 2 ** len(dpi.k_ids))):
            live.is_valid(rng.randint(0, dpi.full_mask))
        axiom, answer = rng.choice(dpi.k_ids), rng.random() < 0.5
        before = len(live._negatives)
        dpi = update_dpi(dpi, make_query(dpi, axiom), answer, reasoner=live)
        if len(live._negatives) > before:
            negatives.append(dpi.formula_of(axiom))
        assert len(live._negatives) == len(negatives)
        consistent = Reasoner(with_negatives(dpi, []))
        for g, nf in live.witnesses.items():
            ids = ids_of(dpi, g)
            assert consistent.is_valid(ids)
            for j, n in enumerate(negatives):
                if nf >> j & 1:
                    assert Reasoner(with_negatives(dpi, [n])).is_valid(ids)
        fresh = Reasoner(dpi)
        assert not any(fresh.is_valid(ids_of(dpi, c)) for c in live.invalid_cores)
