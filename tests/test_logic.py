import copy
import gc
import itertools
import pickle
import random

import pytest
from hypothesis import given, strategies as st

from hsdiag import (
    And,
    Atom,
    Const,
    Dpi,
    Iff,
    Implies,
    Not,
    Or,
    ParseError,
    Reasoner,
    dumps,
    format_formula,
    loads,
    parse_formula,
)
from hsdiag import logic
from hsdiag.logic import _DEFINITION, Binary, Solver, _Encoder, entails, is_consistent, is_satisfiable, to_clause_set
from conftest import adder_dpi, random_formula

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


@pytest.mark.parametrize("name", ["true", "false"])
def test_keywords_are_no_atom_names(name):
    # the tokenizer reads them as constants, so an atom of that name would
    # come back from its text as a constant
    with pytest.raises(ValueError):
        Atom(name)
    assert parse_formula(name) == Const(name == "true")


def test_constants_and_keyword_like_atoms_round_trip_through_dpi_text():
    dpi = Dpi.propositional(
        [("ax1", Const(True)), ("ax2", Atom("true_")), ("ax3", Not(Const(False))), ("ax4", Atom("False"))]
    )
    assert loads(dumps(dpi))[0] == dpi


def test_deep_parentheses_parse():
    # parentheses only group: the node is the atom's own
    assert parse_formula("(" * 300 + "x" + ")" * 300) is Atom("x")


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


# --- interned nodes -----------------------------------------------------------

def test_equal_formulas_are_one_object():
    text = "!(A & B) -> (C <-> false) | !!A"
    built = Implies(Not(And(A, B)), Or(Iff(C, Const(False)), Not(Not(A))))
    assert parse_formula(text) is built
    assert Const(False) is logic.FALSE and Atom("A") is A
    assert And(A, B) is not Or(A, B) and Not(Not(A)) is not A
    assert {built: "kept"}[parse_formula(text)] == "kept"
    for same in (copy.copy(built), copy.deepcopy(built), pickle.loads(pickle.dumps(built))):
        assert same is built
    assert copy.deepcopy([built, {built}]) == [built, {built}]


def test_formulas_are_immutable_and_print_as_their_constructors():
    with pytest.raises(AttributeError):
        A.name = "B"
    with pytest.raises(AttributeError):
        del A.name
    assert repr(Implies(A, Not(Const(True)))) == "Implies(Atom('A'), Not(Const(True)))"


def test_intern_table_lets_go_of_formulas_nobody_holds():
    # a long process parses many formulas; the table must not keep them
    gc.collect()
    before = len(logic._TABLE)
    held = [parse_formula(f"fresh{i} & !(fresh{i} -> other{i % 7})") for i in range(500)]
    assert len(logic._TABLE) == before + 500 * 4 + 7  # four nodes each, seven shared atoms
    one = held[123]
    del held
    gc.collect()
    assert len(logic._TABLE) == before + 5  # one's &, !, ->, and its two atoms
    assert parse_formula("fresh123 & !(fresh123 -> other4)") is one
    del one
    gc.collect()
    assert len(logic._TABLE) == before


# --- deep input: no walk recurses -----------------------------------------------

DEEP = 5000


def _negations():
    f = Atom("x")
    for _ in range(DEEP):
        f = Not(f)
    return f


def _parentheses():
    f = And(Atom(f"x{DEEP}"), Atom("y"))
    for i in reversed(range(DEEP)):
        f = And(Atom(f"x{i}"), f)
    return f


def _conjuncts():
    f = Atom("x0")
    for i in range(1, DEEP):
        f = And(f, Atom(f"x{i}"))
    return f


@pytest.mark.parametrize(
    "text, build, atom",
    [
        ("!" * DEEP + "x", _negations, "x"),
        ("".join(f"x{i} & (" for i in range(DEEP)) + f"x{DEEP} & y" + ")" * DEEP, _parentheses, "x0"),
        (" & ".join(f"x{i}" for i in range(DEEP)), _conjuncts, "x0"),
    ],
    ids=["negations", "parentheses", "conjuncts"],
)
def test_deep_input_parses_prints_compares_and_encodes(text, build, atom):
    # each input implies its atom, which the second axiom denies
    f = parse_formula(text)
    assert f is build() and f == build() and f != Not(f)
    assert hash(f) == hash(build()) and {f: 1}[build()] == 1
    assert format_formula(f) == text and str(f) == text
    assert repr(f).count("(") > DEEP
    dpi = Dpi.propositional([("ax1", f), ("ax2", Not(Atom(atom)))])
    reloaded, _ = loads(dumps(dpi))
    assert reloaded == dpi and reloaded.formulas[0] is f
    assert pickle.loads(pickle.dumps(f)) is f and copy.deepcopy(f) is f
    unpickled = pickle.loads(pickle.dumps(dpi))
    assert unpickled == dpi and unpickled.formulas[0] is f
    assert is_satisfiable(to_clause_set([f])) and not is_consistent([f, Not(Atom(atom))])
    reasoner = Reasoner(dpi)
    assert reasoner.is_valid(["ax1"]) and not reasoner.is_valid(["ax1", "ax2"])


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


# --- the encoder's walk against the recursion it replaced -------------------

def _recursive_atoms(f, into):
    if isinstance(f, Atom):
        into.add(f.name)
    elif isinstance(f, Not):
        _recursive_atoms(f.operand, into)
    elif isinstance(f, Binary):
        _recursive_atoms(f.lhs, into)
        _recursive_atoms(f.rhs, into)


class RecursiveEncoder(_Encoder):
    """The recursive ``_Encoder.lit``, ``add`` and atom collection that the
    explicit-stack walks replaced, kept as their reference."""

    def __init__(self, formulas):
        names = set()
        for f in formulas:
            _recursive_atoms(f, names)
        self.atom_ids = {name: i + 1 for i, name in enumerate(sorted(names))}
        self.next_var = len(self.atom_ids) + 1
        self.cache = {}
        self.clauses = {}
        self.true = None

    def add(self, lits):
        clause = frozenset(lits)
        if not any(-l in clause for l in clause):
            self.clauses.setdefault(clause)

    def lit(self, f):
        if f in self.cache:
            return self.cache[f]
        if isinstance(f, Atom):
            out = self.atom_ids[f.name]
        elif isinstance(f, Const):
            if self.true is None:
                self.true = self.fresh()
                self.add((self.true,))
            out = self.true if f.value else -self.true
        elif isinstance(f, Not):
            out = -self.lit(f.operand)
        else:
            a = self.lit(f.lhs)
            b = self.lit(f.rhs)
            out = self.fresh()
            for clause in _DEFINITION[type(f)](out, a, b):
                self.add(clause)
        self.cache[f] = out
        return out


def assert_encodes_as_the_recursion(formulas):
    # each formula asserted through a fresh selector, as the reasoner does,
    # so fresh variables interleave with the walks
    runs = []
    for encoder in (_Encoder, RecursiveEncoder):
        enc = encoder(formulas)
        for f in formulas:
            goal = enc.lit(f)
            enc.add((-enc.fresh(), goal))
        runs.append((list(enc.clauses), enc.next_var, enc.atom_ids, enc.true))
    assert runs[0] == runs[1]


@given(st.integers(0, 10_000))
def test_encoder_walk_matches_the_recursion_on_random_formulas(seed):
    # shared subformulas, constants, and double negations next to the
    # formulas they negate twice: a variable per node, never per literal
    rng = random.Random(seed)
    atoms = ["a", "b", "c", "d"]
    formulas = [random_formula(rng, atoms, depth=4) for _ in range(rng.randint(1, 4))]
    f, g = formulas[0], random_formula(rng, atoms, depth=2)
    formulas += [Or(Not(Not(f)), g), Or(f, g), And(Const(rng.random() < 0.5), Not(Not(g)))]
    assert_encodes_as_the_recursion(formulas)


def test_encoder_walk_matches_the_recursion_on_fixtures_and_adders(table1):
    dpi, _ = table1
    cases = [dpi] + [adder_dpi(bits) for bits in (1, 4, 8)]
    for d in cases:
        hard = sorted(d.background | d.positive, key=format_formula)
        assert_encodes_as_the_recursion([*hard, *d.formulas, *sorted(d.negative, key=format_formula)])


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
