import itertools
import random

import pytest
from hypothesis import given, strategies as st

from hsdiag import (
    And,
    Atom,
    Const,
    Iff,
    Implies,
    Not,
    Or,
    ParseError,
    entails,
    format_formula,
    is_consistent,
    is_satisfiable,
    parse_formula,
    to_clause_set,
)
from hsdiag.logic import Binary, Solver
from conftest import random_formula

A, B, C = Atom("A"), Atom("B"), Atom("C")


# --- independent truth-table oracle -----------------------------------------

def evaluate(f, model):
    if isinstance(f, Const):
        return f.value
    if isinstance(f, Atom):
        return model[f.name]
    if isinstance(f, Not):
        return not evaluate(f.operand, model)
    if isinstance(f, And):
        return evaluate(f.lhs, model) and evaluate(f.rhs, model)
    if isinstance(f, Or):
        return evaluate(f.lhs, model) or evaluate(f.rhs, model)
    if isinstance(f, Implies):
        return not evaluate(f.lhs, model) or evaluate(f.rhs, model)
    if isinstance(f, Iff):
        return evaluate(f.lhs, model) == evaluate(f.rhs, model)
    raise TypeError(f)


def atoms_of(f, into=None):
    into = set() if into is None else into
    if isinstance(f, Atom):
        into.add(f.name)
    elif isinstance(f, Not):
        atoms_of(f.operand, into)
    elif isinstance(f, (And, Or, Implies, Iff)):
        atoms_of(f.lhs, into)
        atoms_of(f.rhs, into)
    return into


def truth_table_satisfiable(formulas):
    names = sorted(set().union(*(atoms_of(f) for f in formulas)) or {"A"})
    for bits in itertools.product((False, True), repeat=len(names)):
        model = dict(zip(names, bits))
        if all(evaluate(f, model) for f in formulas):
            return True
    return False


# --- parsing ----------------------------------------------------------------

def test_parse_table1_axiom():
    assert parse_formula("A -> !B") == Implies(A, Not(B))


def test_parse_constant():
    assert parse_formula("true") == Const(True)
    assert parse_formula("false") == Const(False)


def test_implication_is_right_associative():
    assert parse_formula("A -> B -> C") == Implies(A, Implies(B, C))


def test_iff_is_right_associative():
    assert parse_formula("A <-> B <-> C") == Iff(A, Iff(B, C))


def test_precedence_chain():
    f = parse_formula("!A & B | C -> A <-> B")
    assert f == Iff(Implies(Or(And(Not(A), B), C), A), B)


def test_and_or_left_associative():
    assert parse_formula("A & B & C") == And(And(A, B), C)
    assert parse_formula("A | B | C") == Or(Or(A, B), C)


def test_parentheses_override():
    assert parse_formula("(A -> B) -> C") == Implies(Implies(A, B), C)


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_formula("A -> ")
    assert err.value.line == 1
    assert err.value.column == 6


def test_unknown_token_rejected():
    with pytest.raises(ParseError) as err:
        parse_formula("A + B")
    assert "unknown token" in str(err.value)
    assert err.value.column == 3


def test_unbalanced_paren_rejected():
    with pytest.raises(ParseError):
        parse_formula("(A -> B")


def test_invalid_atom_name_rejected():
    with pytest.raises(ValueError):
        Atom("1abc")


def test_deep_parentheses_parse():
    # two parser frames per parenthesis
    assert parse_formula("(" * 300 + "x" + ")" * 300) == Atom("x")


def test_binary_operators_share_one_node_declaration():
    nodes = [And(A, B), Or(A, B), Implies(A, B), Iff(A, B)]
    assert all(isinstance(f, Binary) and (f.lhs, f.rhs) == (A, B) for f in nodes)
    # equal operands, unequal operators: equality compares classes too
    assert len(set(nodes)) == 4
    assert And(A, B) == And(A, B) and And(A, B) != Or(A, B)


@pytest.mark.parametrize(
    "f, text",
    [
        (Implies(A, Implies(B, C)), "A -> B -> C"),
        (Implies(Implies(A, B), C), "(A -> B) -> C"),
        (Iff(A, Iff(B, C)), "A <-> B <-> C"),
        (Iff(Iff(A, B), C), "(A <-> B) <-> C"),
        (And(And(A, B), C), "A & B & C"),
        (And(A, And(B, C)), "A & (B & C)"),
        (Or(Or(A, B), C), "A | B | C"),
        (Or(A, Or(B, C)), "A | (B | C)"),
        (And(Or(A, B), C), "(A | B) & C"),
        (Or(A, And(B, C)), "A | B & C"),
        (Implies(A, Iff(B, C)), "A -> (B <-> C)"),
        (Iff(Implies(A, B), C), "A -> B <-> C"),
        (Not(And(A, B)), "!(A & B)"),
        (And(Not(A), B), "!A & B"),
        (Not(Not(A)), "!!A"),
        (Implies(Const(True), Const(False)), "true -> false"),
    ],
)
def test_printer_spelling(f, text):
    # the exact text `dumps` writes and the reasoner sorts formulas by
    assert format_formula(f) == text
    assert parse_formula(text) == f


@given(st.integers(0, 10_000))
def test_printer_round_trip(seed):
    rng = random.Random(seed)
    f = random_formula(rng, ["A", "B", "C", "p_1", "Q2"], depth=4)
    assert parse_formula(format_formula(f)) == f


# --- CNF conversion ----------------------------------------------------------

def test_empty_set_converts_to_empty_clause_set():
    cs = to_clause_set([])
    assert cs.clauses == ()


def test_conjunction_yields_unit_clauses():
    cs = to_clause_set([And(A, B)])
    a, b = cs.atom_ids["A"], cs.atom_ids["B"]
    # Definitional form: the root auxiliary is asserted and forces both atoms.
    assert is_satisfiable(cs)
    forced_false = to_clause_set([And(A, B), Not(A)])
    assert not is_satisfiable(forced_false)
    assert a != b


def test_constants_are_one_variable_fixed_true():
    assert not is_satisfiable(to_clause_set([Const(False)]))
    assert is_satisfiable(to_clause_set([Const(True)]))
    # no such variable without a constant
    assert to_clause_set([And(A, B)]).var_count == 3


def test_implication_equisatisfiable_with_disjunction():
    # Models of {A -> B} over {A, B} equal the models of {!A | B}.
    for bits in itertools.product((False, True), repeat=2):
        model = {"A": bits[0], "B": bits[1]}
        want = evaluate(Implies(A, B), model)
        units = [A if model["A"] else Not(A), B if model["B"] else Not(B)]
        assert is_satisfiable(to_clause_set([Implies(A, B)] + units)) == want
        assert is_satisfiable(to_clause_set([Or(Not(A), B)] + units)) == want


def test_models_restricted_to_original_atoms_are_preserved():
    rng = random.Random(7)
    for _ in range(50):
        f = random_formula(rng, ["A", "B", "C"], depth=3)
        names = sorted(atoms_of(f))
        for bits in itertools.product((False, True), repeat=len(names)):
            model = dict(zip(names, bits))
            units = [Atom(n) if v else Not(Atom(n)) for n, v in model.items()]
            assert is_satisfiable(to_clause_set([f] + units)) == evaluate(f, model)


def test_no_clause_contains_complementary_literals():
    rng = random.Random(3)
    for _ in range(40):
        f = random_formula(rng, ["A", "B"], depth=3)
        for clause in to_clause_set([f]).clauses:
            assert not any(-lit in clause for lit in clause)


# --- satisfiability ----------------------------------------------------------

def test_empty_clause_set_is_satisfiable():
    assert is_satisfiable(to_clause_set([]))


def test_direct_contradiction_unsatisfiable():
    assert not is_satisfiable(to_clause_set([A, Not(A)]))


def test_table1_k_plus_a_is_unsatisfiable(table1):
    dpi, _ = table1
    assert not is_satisfiable(to_clause_set(list(dpi.formulas) + [Atom("A")]))


def test_table1_k_alone_is_consistent(table1):
    dpi, _ = table1
    assert truth_table_satisfiable(list(dpi.formulas))  # oracle agreement
    assert is_consistent(dpi.formulas)


@given(st.integers(0, 10_000))
def test_satisfiability_agrees_with_truth_tables(seed):
    rng = random.Random(seed)
    formulas = [
        random_formula(rng, ["a", "b", "c", "d", "e", "f"], depth=3)
        for _ in range(rng.randint(1, 4))
    ]
    assert is_satisfiable(to_clause_set(formulas)) == truth_table_satisfiable(formulas)


def test_many_independent_decisions_need_no_recursion():
    # One decision per clause; a recursive DPLL exceeds Python's frame limit.
    clauses = [Or(Atom(f"a{i}"), Atom(f"b{i}")) for i in range(1200)]
    assert is_consistent(clauses)
    assert not is_consistent(clauses + [Not(Atom("a7")), Not(Atom("b7"))])


# --- consistency and entailment ----------------------------------------------

def test_empty_set_consistent_and_entails_nothing():
    assert is_consistent([])
    assert not entails([], A)


def test_contradiction_inconsistent():
    assert not is_consistent([A, Not(A)])


def test_modus_ponens():
    assert entails([Implies(A, B), A], B)


def test_table1_k_entails_not_a(table1):
    dpi, _ = table1
    assert entails(dpi.formulas, Not(A))


@given(st.integers(0, 5_000))
def test_entailment_consistency_round_trip(seed):
    rng = random.Random(seed)
    sentences = [random_formula(rng, ["a", "b", "c"], depth=2) for _ in range(rng.randint(1, 3))]
    goal = random_formula(rng, ["a", "b", "c"], depth=2)
    if entails(sentences, goal):
        assert not is_consistent(sentences + [Not(goal)])
    else:
        assert is_consistent(sentences + [Not(goal)])


# --- failed assumptions -------------------------------------------------------

def test_solver_core_holds_only_the_assumptions_behind_the_conflict():
    # 1 -> 2, 2 -> !3: assuming 1, 3 and 4 fails on 1 and 3 alone
    solver = Solver([frozenset({-1, 2}), frozenset({-2, -3})], 4)
    assert not solver.solve([1, 3, 4])
    assert sorted(solver.core) == [1, 3]
    assert not solver.solve([1, -2, 4])  # an assumption already false
    assert sorted(solver.core) == [-2, 1]
    solver.add_unit(1)  # root-level literals carry no assumption
    assert not solver.solve([3, 4])
    assert solver.core == [3]
    assert solver.solve([4])
    assert solver.model[2 * 2] == 1 and solver.model[2 * 3] == -1


def test_solver_core_after_decisions_is_every_assumption():
    # (a|b), (a|!b), (!a|b), (!a|!b) need a decision before the conflict shows
    clauses = [frozenset(c) for c in ({1, 2}, {1, -2}, {-1, 2}, {-1, -2})]
    solver = Solver(clauses, 3)
    assert not solver.solve([3])
    assert solver.core == [3]
    unsatisfiable = Solver([frozenset()], 1)
    assert not unsatisfiable.solve([1])
    assert unsatisfiable.core == []  # no assumption is needed


# --- preferred literals -------------------------------------------------------

def _holds(lit, bits):
    return bits[abs(lit) - 1] == (lit > 0)


def _satisfiable(clauses, lits, var_count):
    return any(
        all(any(_holds(l, bits) for l in c) for c in clauses) and all(_holds(l, bits) for l in lits)
        for bits in itertools.product((False, True), repeat=var_count)
    )


@given(st.integers(0, 10_000))
def test_solver_with_preferred_literals_agrees_with_truth_tables(seed):
    # random CNFs over variables 1..n plus two no clause mentions; each model
    # assigns every variable, satisfies every clause and assumption, and keeps
    # each preferred literal unless the clauses, the assumptions and the
    # model's values of the literals preferred before it exclude it
    rng = random.Random(seed)
    n = rng.randint(1, 5)
    var_count = n + 2
    clauses = [
        frozenset(rng.choice((v, -v)) for v in rng.sample(range(1, n + 1), rng.randint(1, min(3, n))))
        for _ in range(rng.randint(0, 8))
    ]
    literal = lambda v: rng.choice((v, -v))
    preferred = [literal(v) for v in rng.sample(range(1, var_count + 1), rng.randint(0, var_count))]
    solver = Solver(clauses, var_count, preferred)
    for _ in range(2):  # a second solve starts from a clean trail
        assumptions = [literal(v) for v in rng.sample(range(1, var_count + 1), rng.randint(0, 3))]
        expected = _satisfiable(clauses, assumptions, var_count)
        assert solver.solve(assumptions) == expected
        if not expected:
            continue
        bits = [solver.model[2 * v] for v in range(1, var_count + 1)]
        assert 0 not in bits
        bits = [b == 1 for b in bits]
        assert all(any(_holds(l, bits) for l in c) for c in clauses)
        assert all(_holds(l, bits) for l in assumptions)
        constrained = {abs(l) for c in clauses for l in c} | {abs(l) for l in assumptions}
        for i, lit in enumerate(preferred):
            if abs(lit) not in constrained:
                assert _holds(lit, bits)
            kept = [p if _holds(p, bits) else -p for p in preferred[:i]]
            assert _holds(lit, bits) or not _satisfiable(clauses, [*assumptions, *kept, lit], var_count)


def test_solver_backtracking_over_a_preferred_literal_revisits_lower_variables():
    # preferring 3 propagates 1, and under 3 variables 4 and 5 clash whatever
    # 2 is: 3 flips false after the decision scan has passed 2 and the false
    # literal of 1, and the backtrack unassigns both again
    clauses = [frozenset(c) for c in ({-3, 1}, {-3, 4, 5}, {-3, 4, -5}, {-3, -4, 5}, {-3, -4, -5})]
    solver = Solver(clauses, 5, [3, 2])
    assert solver.solve()
    assert [solver.model[2 * v] for v in range(1, 6)] == [-1, 1, -1, -1, -1]
    solver = Solver(clauses[:1], 5, [3, 2])  # without the clash 3 stays true
    assert solver.solve()
    assert [solver.model[2 * v] for v in range(1, 6)] == [1, 1, 1, -1, -1]
