import itertools
import math
import random

import pytest
from hypothesis import given, strategies as st

from hsdiag import (
    Dpi,
    Reasoner,
    ValidityChecker,
    brute_force_min_conflicts,
    find_min_conflict,
    is_valid_set,
    parse_formula,
    quickxplain,
)
from conftest import adder_dpi, gen_random_dpi, random_propositional_dpi


def minimality_holds(dpi, conflict):
    return not is_valid_set(dpi, conflict) and all(
        is_valid_set(dpi, set(conflict) - {e}) for e in conflict
    )


def test_table1_returns_an_oracle_verified_minimal_conflict(table1):
    dpi, _ = table1
    conflict = dpi.ids_of(find_min_conflict(dpi))
    assert frozenset(conflict) in {frozenset(c) for c in brute_force_min_conflicts(dpi)}
    assert minimality_holds(dpi, conflict)


def test_table1_conflict_is_deterministic(table1):
    dpi, _ = table1
    assert find_min_conflict(dpi) == find_min_conflict(dpi)
    # K file order with the ceil-half split lands on the two-element conflict
    assert dpi.ids_of(find_min_conflict(dpi)) == ("ax1", "ax2")


def test_invalid_background_yields_empty_conflict():
    a = parse_formula("A")
    dpi = Dpi.propositional([("ax1", parse_formula("B"))], background=[a, parse_formula("!A")])
    assert find_min_conflict(dpi) == 0


def test_consistent_instance_yields_no_conflict():
    dpi = Dpi.propositional(
        [("ax1", parse_formula("A -> B")), ("ax2", parse_formula("B -> C"))],
        negative=[parse_formula("A & !A")],
    )
    assert find_min_conflict(dpi) is None


def test_exclusion_set_restricts_candidates(ex4):
    dpi, _ = ex4
    # matches the walkthrough's sub-instance labels
    assert dpi.ids_of(find_min_conflict(dpi)) == ("1", "2", "5")
    assert dpi.ids_of(find_min_conflict(dpi, exclude={"1"})) == ("2", "4", "6")
    assert dpi.ids_of(find_min_conflict(dpi, exclude={"2"})) == ("1", "3", "4")
    assert dpi.ids_of(find_min_conflict(dpi, exclude={"2", "4"})) == ("1", "5", "6", "7")
    assert find_min_conflict(dpi, exclude={"1", "4"}) is None


@pytest.mark.parametrize("fixture", ["table1", "ex4"])
def test_exclusion_by_ids_or_k_mask_agrees(fixture, request):
    dpi, _ = request.getfixturevalue(fixture)
    for size in range(len(dpi.k_ids) + 1):
        for ids in itertools.combinations(dpi.k_ids, size):
            assert find_min_conflict(dpi, exclude=ids) == find_min_conflict(
                dpi, exclude=dpi.mask_of(ids)
            )


def test_quickxplain_whole_set_is_the_conflict():
    dpi = Dpi.abstract(2, [["1", "2"]])
    assert quickxplain(dpi, (), ["1", "2"]) == ("1", "2")


def test_quickxplain_singleton_base_case():
    dpi = Dpi.abstract(3, [["2"]])
    assert quickxplain(dpi, ("1",), ["2"]) == ("2",)


def test_quickxplain_on_table1_is_minimal(table1):
    dpi, _ = table1
    conflict = quickxplain(dpi, (), list(dpi.k_ids))
    assert minimality_holds(dpi, conflict)


def test_quickxplain_precondition_violations(table1):
    dpi, _ = table1
    with pytest.raises(ValueError, match="must be invalid"):
        quickxplain(dpi, (), ["ax2", "ax4", "ax5"])
    bad = Dpi.abstract(3, [["1"]])
    with pytest.raises(ValueError, match="must be valid"):
        quickxplain(bad, ("1",), ["2"])


def test_quickxplain_result_follows_the_candidate_order(ex4):
    # an id sequence keeps its caller's order, a K-mask gives a K-mask
    dpi, _ = ex4
    assert quickxplain(dpi, (), dpi.k_ids[::-1]) == ("6", "4", "2")
    assert quickxplain(dpi, 0, dpi.full_mask) == dpi.mask_of(("1", "3", "4"))


@given(st.integers(0, 10_000), st.data())
def test_quickxplain_on_a_k_mask_matches_its_ids_in_k_order(seed, data):
    # the mask's bits split from the highest down, which is K order: the same
    # conflict from the same checks (or the same precondition error)
    dpi = random_propositional_dpi(random.Random(seed))
    mask = data.draw(st.integers(0, dpi.full_mask))
    outcomes = []
    for background, candidates, name in ((0, mask, dpi.ids_of), ((), dpi.ids_of(mask), tuple)):
        checker = ValidityChecker(dpi)
        try:
            conflict = name(quickxplain(dpi, background, candidates, checker=checker))
        except ValueError as exc:
            conflict = str(exc)
        outcomes.append((conflict, checker.calls))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("bits", [4, 8])
def test_conflict_extraction_converts_sets_a_bounded_number_of_times(bits, monkeypatch):
    # the search passes a K-mask and keeps its checker: the only conversions
    # left are one mask_of per entry point, however large K is, and the
    # conflict comes back as a mask, never named
    dpi = adder_dpi(bits)
    calls = {"mask_of": 0, "ids_of": 0}
    for name in calls:
        original = getattr(Dpi, name)

        def counting(self, arg, original=original, name=name):
            calls[name] += 1
            return original(self, arg)

        monkeypatch.setattr(Dpi, name, counting)
    checker = ValidityChecker(dpi, Reasoner(dpi))
    exclude = dpi.mask_of(("c0",))
    calls.update(mask_of=0, ids_of=0)
    conflict = find_min_conflict(dpi, exclude=exclude, checker=checker)
    assert conflict.bit_count() >= 2
    assert calls["mask_of"] <= 3 and calls["ids_of"] == 0


def test_quickxplain_agrees_with_oracle_on_random_abstract_instances():
    for seed in range(40):
        dpi = gen_random_dpi(8, 4, 4, seed)
        if not dpi.conflict_family:
            continue
        conflict = quickxplain(dpi, (), list(dpi.k_ids))
        assert frozenset(conflict) in {frozenset(c) for c in brute_force_min_conflicts(dpi)}
        assert minimality_holds(dpi, conflict)


def test_find_min_conflict_agrees_with_oracle_on_random_propositional_instances():
    rng = random.Random(1234)
    hits = 0
    for _ in range(25):
        dpi = random_propositional_dpi(rng, max_axioms=6, max_atoms=4)
        conflict = find_min_conflict(dpi)
        if conflict:
            hits += 1
            oracle = {frozenset(c) for c in brute_force_min_conflicts(dpi)}
            assert frozenset(dpi.ids_of(conflict)) in oracle
            assert minimality_holds(dpi, dpi.ids_of(conflict))
        elif conflict is None:
            assert brute_force_min_conflicts(dpi) == []
    assert hits >= 3  # the generator produces enough conflicting instances


def test_quickxplain_call_count_bound():
    # Junker's bound: 2k*log2(n/k) + 2k validity checks, k the conflict
    # size, n the candidate count. Two extra calls cover the preconditions.
    for seed in range(60):
        dpi = gen_random_dpi(10, 3, 5, seed)
        if not dpi.conflict_family:
            continue
        checker = ValidityChecker(dpi)
        conflict = quickxplain(dpi, (), list(dpi.k_ids), checker=checker)
        k, n = len(conflict), len(dpi.k_ids)
        bound = 2 * k * math.log2(n / k) + 2 * k
        assert checker.calls - 2 <= math.ceil(bound)


def test_abstract_empty_member_means_empty_conflict():
    dpi = Dpi.abstract(2, [[]])
    assert find_min_conflict(dpi) == 0


def _check_find_min_conflict_contract(dpi, exclude):
    full = dpi.full_mask
    conflict = find_min_conflict(dpi, exclude=exclude)
    assert (conflict is None) == is_valid_set(dpi, full & ~exclude)
    assert (conflict == 0) == (not is_valid_set(dpi, 0))
    if conflict is None:
        return
    assert conflict & ~(full & ~exclude) == 0
    assert not is_valid_set(dpi, conflict)
    for i in range(conflict.bit_length()):
        if conflict >> i & 1:
            assert is_valid_set(dpi, conflict ^ 1 << i)
    if dpi.family_masks is not None:
        assert conflict == next(m for m in dpi.family_masks if not m & exclude)


@given(st.integers(0, 10_000), st.integers(1, 9), st.integers(0, 6), st.data())
def test_find_min_conflict_contract_on_random_abstract_instances(seed, components, conflicts, data):
    # a K-mask inside K minus the exclusion: None iff that is valid, 0 iff
    # the empty set is invalid, else an invalid set that is minimal; the
    # abstract backend returns the first family member avoiding the exclusion
    dpi = gen_random_dpi(components, conflicts, data.draw(st.integers(1, components)), seed)
    _check_find_min_conflict_contract(dpi, data.draw(st.integers(0, dpi.full_mask)))


@given(st.integers(0, 10_000), st.data())
def test_find_min_conflict_contract_on_random_propositional_instances(seed, data):
    dpi = random_propositional_dpi(random.Random(seed), max_axioms=6, max_atoms=4)
    _check_find_min_conflict_contract(dpi, data.draw(st.integers(0, dpi.full_mask)))


@given(st.integers(0, 10_000), st.data())
def test_find_min_conflict_lies_inside_the_stored_core(seed, data):
    # QuickXplain starts from the first stored core inside K minus the
    # exclusion, so the conflict is a minimal conflict of the DPI, avoids the
    # exclusion and lies inside that core
    dpi = random_propositional_dpi(random.Random(seed), max_axioms=10)
    exclude = data.draw(st.integers(0, dpi.full_mask))
    rest = dpi.full_mask & ~exclude
    checker = ValidityChecker(dpi)
    valid = checker.is_valid(rest)
    core = checker.reasoner.core_within(rest)
    assert (core is None) == valid
    conflict = find_min_conflict(dpi, exclude, checker=checker)
    assert (conflict is None) == valid
    assert (conflict == 0) == (not is_valid_set(dpi, 0))
    if conflict is not None:
        assert conflict & ~core == 0
        assert conflict & exclude == 0
        assert dpi.ids_of(conflict) in brute_force_min_conflicts(dpi)
