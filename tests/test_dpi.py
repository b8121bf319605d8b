import itertools
import math
import random

import pytest
from hypothesis import example, given, strategies as st

from hsdiag import (
    Atom,
    Dpi,
    FaultProbabilities,
    Not,
    Reasoner,
    ValidityChecker,
    brute_force_min_conflicts,
    brute_force_min_diagnoses,
    brute_force_min_hitting_sets,
    cardinality_pr,
    cost_adjust,
    find_min_conflict,
    gen_random_dpi,
    is_diagnosis,
    is_minimal_diagnosis,
    is_valid_set,
    normalized,
    parse_formula,
    pr_of,
    quickxplain,
)
from hsdiag.dpi import antichain_reduce
from conftest import random_propositional_dpi

TABLE1_DIAGNOSES = [
    frozenset({"ax1", "ax3"}),
    frozenset({"ax1", "ax4"}),
    frozenset({"ax2", "ax3"}),
    frozenset({"ax2", "ax5"}),
]
TABLE1_CONFLICTS = [
    frozenset({"ax1", "ax2"}),
    frozenset({"ax2", "ax3", "ax4"}),
    frozenset({"ax1", "ax3", "ax5"}),
    frozenset({"ax3", "ax4", "ax5"}),
]
EX4_DIAGNOSES = [
    frozenset({"1", "4"}),
    frozenset({"1", "6"}),
    frozenset({"4", "5"}),
    frozenset({"2", "4", "6"}),
]


# --- validity ---------------------------------------------------------------

def test_table1_valid_set_examples(table1):
    dpi, _ = table1
    assert is_valid_set(dpi, {"ax2", "ax4", "ax5"})
    assert not is_valid_set(dpi, {"ax1", "ax2"})


def test_empty_assumption_set_is_valid(table1):
    dpi, _ = table1
    assert is_valid_set(dpi, set())


def test_unknown_axiom_id_rejected(table1):
    dpi, _ = table1
    with pytest.raises(ValueError, match="unknown axiom"):
        is_valid_set(dpi, {"ax9"})
    with pytest.raises(ValueError, match="unknown axiom"):
        is_diagnosis(dpi, {"ax9"})


def test_table1_diagnosis_examples(table1):
    dpi, _ = table1
    assert is_diagnosis(dpi, {"ax1", "ax3"})
    assert not is_diagnosis(dpi, set())
    assert is_diagnosis(dpi, set(dpi.k_ids))  # weak fault model


def test_table1_minimality_examples(table1):
    dpi, _ = table1
    assert is_minimal_diagnosis(dpi, {"ax1", "ax3"})
    assert not is_minimal_diagnosis(dpi, {"ax1", "ax3", "ax4"})
    assert not is_minimal_diagnosis(dpi, {"ax1"})


# --- probability model --------------------------------------------------------

def test_pr_of_example3_values(table1):
    dpi, pr = table1
    values = [pr_of(pr, dpi.k_ids, d) for d in TABLE1_DIAGNOSES]
    # .1*(1-.05)*.1*(1-.05)*(1-.15) and friends
    assert values == pytest.approx([0.00767125, 0.00363375, 0.00363375, 0.00577125])
    assert normalized(values) == pytest.approx([0.37042, 0.17546, 0.17546, 0.27866], abs=5e-5)


def test_pr_of_empty_selection():
    pr = FaultProbabilities({"a": 0.4, "b": 0.4})
    assert pr_of(pr, ["a", "b"], []) == pytest.approx(0.6 * 0.6)


def test_pr_of_example4_node(ex4):
    dpi, pr = ex4
    # direct product .26*.41*.82*.79*.82*.60*.82; the figure's edge label
    # .28 is this value scaled by ten and rounded
    assert pr_of(pr, dpi.k_ids, {"1", "4"}) == pytest.approx(0.0278597428512, abs=1e-12)


def test_pr_of_missing_entry():
    pr = FaultProbabilities({"a": 0.4})
    with pytest.raises(ValueError, match="missing probability"):
        pr_of(pr, ["a", "b"], {"b"})


def test_pr_of_sums_to_one():
    rng = random.Random(11)
    ids = [f"c{i}" for i in range(8)]
    pr = FaultProbabilities({a: rng.uniform(0.05, 0.95) for a in ids})
    total = 0.0
    for size in range(len(ids) + 1):
        for combo in itertools.combinations(ids, size):
            total += pr_of(pr, ids, combo)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_cost_adjust_scales_and_flags():
    pr = FaultProbabilities({"a": 0.8, "b": 0.4})
    adj = cost_adjust(pr, 0.25)
    assert adj.as_cost_adjusted() is adj
    assert adj["a"] == pytest.approx(0.2)
    assert adj["b"] == pytest.approx(0.1)
    assert adj["a"] / adj["b"] == pytest.approx(pr["a"] / pr["b"])


def test_cost_adjust_rejects_out_of_range_constant():
    pr = FaultProbabilities({"a": 0.8})
    for c in (0.0, 0.5, 1.0, -0.1):
        with pytest.raises(ValueError):
            cost_adjust(pr, c)


def test_probability_domain_validation():
    with pytest.raises(ValueError):
        FaultProbabilities({"a": 1.2})
    with pytest.raises(ValueError):
        FaultProbabilities({"a": 0.0})
    with pytest.raises(ValueError, match="cost-adjusted"):
        FaultProbabilities({"a": 0.6}).as_cost_adjusted()


def test_cardinality_pr_orders_by_size():
    ids = ["a", "b", "c", "d", "e"]
    pr = cardinality_pr(ids, 1 / 3)
    assert all(pr[a] == 1 / 3 for a in ids)
    assert pr_of(pr, ids, {"a"}) > pr_of(pr, ids, {"a", "b"})
    assert pr_of(pr, ids, {"a", "c"}) == pytest.approx(pr_of(pr, ids, {"b", "e"}))
    with pytest.raises(ValueError):
        cardinality_pr(ids, 0.5)


def test_cost_adjust_keeps_fixed_size_order_on_fixture_pr(table1, ex4):
    # No strictly ordered pair of equal-size subsets inverts under the
    # adjustment on the fixture vectors; exact ties are exempt (their order
    # is settled by the cardinality/id tie-break, not by probability).
    for dpi, pr in (table1, (ex4[0], FaultProbabilities(dict(ex4[1].values)))):
        adj = cost_adjust(pr, 0.25)
        for size in (1, 2, 3):
            for s, t in itertools.combinations(itertools.combinations(dpi.k_ids, size), 2):
                a, b = pr_of(pr, dpi.k_ids, s), pr_of(pr, dpi.k_ids, t)
                a2, b2 = pr_of(adj, dpi.k_ids, s), pr_of(adj, dpi.k_ids, t)
                if abs(a - b) > 1e-9 * max(a, b) and abs(a2 - b2) > 1e-9 * max(a2, b2):
                    assert (a > b) == (a2 > b2)


# --- brute-force oracles -------------------------------------------------------

def test_table1_brute_force_diagnoses(table1):
    dpi, _ = table1
    found = brute_force_min_diagnoses(dpi)
    assert {d.id_set for d in found} == set(TABLE1_DIAGNOSES)
    # pr attached: descending probability, ties by cardinality then id order
    assert [d.ids for d in found] == [
        ("ax1", "ax3"),
        ("ax2", "ax5"),
        ("ax1", "ax4"),
        ("ax2", "ax3"),
    ]
    assert found[0].pr == pytest.approx(0.00767125)


def test_table1_brute_force_conflicts(table1):
    dpi, _ = table1
    # sorted by size, then id order
    assert brute_force_min_conflicts(dpi) == [
        ("ax1", "ax2"),
        ("ax1", "ax3", "ax5"),
        ("ax2", "ax3", "ax4"),
        ("ax3", "ax4", "ax5"),
    ]


def test_ex4_brute_force_diagnoses(ex4):
    dpi, _ = ex4
    found = brute_force_min_diagnoses(dpi)
    # The walkthrough's four diagnoses are the most probable prefix; the
    # instance has six further, less probable minimal diagnoses.
    assert [d.id_set for d in found[:4]] == EX4_DIAGNOSES
    assert len(found) == 10
    assert frozenset({"1", "2"}) in {d.id_set for d in found}
    for d in found:
        assert is_minimal_diagnosis(dpi, d.id_set)


def test_ex4_brute_force_conflicts_recover_family(ex4):
    dpi, _ = ex4
    found = brute_force_min_conflicts(dpi)
    assert {frozenset(c) for c in found} == {frozenset(m) for m in dpi.conflict_family}


def test_no_conflict_instance_has_empty_diagnosis():
    dpi = Dpi.abstract(4, [])
    found = brute_force_min_diagnoses(dpi)
    assert [d.id_set for d in found] == [frozenset()]
    assert brute_force_min_conflicts(dpi) == []


def test_brute_force_size_guard():
    dpi = Dpi.abstract(21, [["1", "2"]])
    with pytest.raises(ValueError, match="brute force"):
        brute_force_min_diagnoses(dpi)


# --- structural invariants ------------------------------------------------------

def test_duality_on_small_instances():
    for seed in range(12):
        dpi = gen_random_dpi(7, 4, 4, seed)
        n = len(dpi.k_ids)
        for mask in range(2**n):
            subset = {dpi.k_ids[i] for i in range(n) if mask >> i & 1}
            rest = [a for a in dpi.k_ids if a not in subset]
            assert is_diagnosis(dpi, subset) == is_valid_set(dpi, rest)


def test_duality_on_propositional_instance(table1):
    dpi, _ = table1
    for mask in range(2 ** len(dpi.k_ids)):
        subset = {dpi.k_ids[i] for i in range(len(dpi.k_ids)) if mask >> i & 1}
        rest = [a for a in dpi.k_ids if a not in subset]
        assert is_diagnosis(dpi, subset) == is_valid_set(dpi, rest)


def test_hitting_set_property():
    for seed in range(10):
        dpi = gen_random_dpi(8, 5, 4, seed)
        diagnoses = {d.id_set for d in brute_force_min_diagnoses(dpi)}
        conflicts = brute_force_min_conflicts(dpi)
        for d in diagnoses:
            assert all(d & frozenset(c) for c in conflicts)
        hitting = {frozenset(h) for h in brute_force_min_hitting_sets(conflicts, dpi.k_ids)}
        assert hitting == diagnoses


def test_hitting_set_property_propositional(table1):
    dpi, _ = table1
    diagnoses = {d.id_set for d in brute_force_min_diagnoses(dpi)}
    conflicts = brute_force_min_conflicts(dpi)
    hitting = {frozenset(h) for h in brute_force_min_hitting_sets(conflicts, dpi.k_ids)}
    assert hitting == diagnoses


def test_monotone_fault_model():
    rng = random.Random(5)
    for seed in range(8):
        dpi = gen_random_dpi(7, 4, 3, seed)
        for d in brute_force_min_diagnoses(dpi):
            extras = [a for a in dpi.k_ids if a not in d.id_set]
            for a in rng.sample(extras, min(2, len(extras))):
                assert is_diagnosis(dpi, d.id_set | {a})


# --- random instance generator ----------------------------------------------------

def test_gen_random_dpi_deterministic():
    assert gen_random_dpi(5, 3, 3, 42) == gen_random_dpi(5, 3, 3, 42)
    assert gen_random_dpi(5, 3, 3, 42) != gen_random_dpi(5, 3, 3, 43)


def test_gen_random_dpi_members_are_conflicts():
    dpi = gen_random_dpi(7, 4, 4, 9)
    for member in dpi.conflict_family:
        assert not is_valid_set(dpi, member)


def test_gen_random_dpi_antichain():
    for seed in range(20):
        family = gen_random_dpi(9, 6, 5, seed).family_sets()
        for i, a in enumerate(family):
            for j, b in enumerate(family):
                assert i == j or not a <= b


def test_abstract_constructor_rejects_non_antichain():
    for family in (
        [["1", "2"], ["1", "2", "3"]],
        [["1", "2"], ["2", "1"]],  # the same members in another order
        [["1", "2", "3"], ["1", "2"]],  # a superset before its subset
    ):
        with pytest.raises(ValueError, match="antichain"):
            Dpi.abstract(4, family)


@example([("3", "1"), ("1", "2", "3"), ("1", "3")])
@given(st.lists(st.lists(st.sampled_from("12345"), unique=True).map(tuple), max_size=8))
def test_antichain_reduce_keeps_each_minimal_member_once_as_given(members):
    # kept: no member is a proper subset of it and no earlier member is the
    # same set; first-seen order, each as the tuple it was given
    sets = [frozenset(m) for m in members]
    expected = [
        m for i, (m, s) in enumerate(zip(members, sets))
        if not any(o < s for o in sets) and s not in sets[:i]
    ]
    assert antichain_reduce(members) == tuple(expected)


@pytest.mark.parametrize(
    "fields, message",
    [
        (dict(k_ids=("a",)), "neither formulas nor a conflict family"),
        (dict(k_ids=("a",), formulas=()), "one formula per axiom id"),
        (dict(k_ids=("a", "b"), formulas=(Atom("x"),)), "one formula per axiom id"),
        (
            dict(k_ids=("1",), formulas=(Atom("x"),), conflict_family=(("1",),)),
            "both formulas and a conflict family",
        ),
        (
            dict(k_ids=("1", "2"), conflict_family=(("1", "3"),)),
            r"conflict mentions unknown ids: \['3'\]",
        ),
    ],
)
def test_dpi_constructor_rejects_inconsistent_fields(fields, message):
    with pytest.raises(ValueError, match=message):
        Dpi(**fields)


def test_conflict_naming_an_id_twice_rejected():
    # its mask would have no single bit per member, and both searches looped
    with pytest.raises(ValueError, match="names an id twice"):
        Dpi.abstract(2, [("1", "1")])


@given(st.integers(0, 10_000), st.data())
def test_k_mask_round_trip_and_tie_break_order(seed, data):
    n = data.draw(st.integers(1, 16))
    dpi = gen_random_dpi(n, 3, 1, seed)
    size = data.draw(st.integers(0, n))
    subset = st.lists(st.sampled_from(dpi.k_ids), min_size=size, max_size=size, unique=True)
    a, b = data.draw(subset), data.draw(subset)
    for ids in (a, b):
        assert dpi.ids_of(dpi.mask_of(ids)) == tuple(x for x in dpi.k_ids if x in ids)
    # the search's -mask tie-break: of two equal-size sets, the larger mask
    # has the lexicographically smaller K-index tuple
    key_a, key_b = (sorted(map(dpi.index_of, ids)) for ids in (a, b))
    assert (dpi.mask_of(a) > dpi.mask_of(b)) == (key_a < key_b)


def test_mask_of_passes_masks_and_rejects_unknown_ids(ex4):
    dpi, _ = ex4
    assert dpi.mask_of(0b101) == 0b101
    with pytest.raises(ValueError, match="unknown axiom ids"):
        dpi.mask_of(["1", "9"])
    # a bit above K would otherwise read back as some axiom of K
    for mask in (1 << 7, -1):
        with pytest.raises(ValueError, match="outside K"):
            dpi.mask_of(mask)
        with pytest.raises(ValueError, match="outside K"):
            dpi.ids_of(mask)


@pytest.mark.parametrize("fixture", ["table1", "ex4"])
def test_every_set_taking_entry_point_rejects_what_mask_of_rejects(fixture, request):
    # the validity checks take an in-range int as is, without mask_of; a
    # bit above K, a negative int and an unknown id must still be refused
    dpi, _ = request.getfixturevalue(fixture)
    entry_points = [
        lambda s: ValidityChecker(dpi).is_valid(s),
        lambda s: is_valid_set(dpi, s),
        lambda s: is_diagnosis(dpi, s),
        lambda s: find_min_conflict(dpi, exclude=s),
        lambda s: quickxplain(dpi, s, dpi.full_mask),
        lambda s: quickxplain(dpi, 0, s),
    ]
    if dpi.kind == "reasoner":
        entry_points.append(Reasoner(dpi).is_valid)
    for bad, message in ((1 << len(dpi.k_ids), "outside K"), (-1, "outside K"), (["zz"], "unknown")):
        for call in entry_points:
            with pytest.raises(ValueError, match=message):
                call(bad)


def test_duplicate_axiom_ids_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        Dpi.propositional([("ax1", parse_formula("A")), ("ax1", parse_formula("B"))])


def test_random_propositional_dpi_duality():
    rng = random.Random(0)
    for _ in range(6):
        dpi = random_propositional_dpi(rng, max_axioms=5, max_atoms=4)
        n = len(dpi.k_ids)
        for mask in range(2**n):
            subset = {dpi.k_ids[i] for i in range(n) if mask >> i & 1}
            rest = [a for a in dpi.k_ids if a not in subset]
            assert is_diagnosis(dpi, subset) == is_valid_set(dpi, rest)
