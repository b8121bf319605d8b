import gc
import math
import random
import sys
import time
import weakref

import pytest
from hypothesis import given, strategies as st

from hsdiag import (
    Dpi,
    FaultProbabilities,
    Reasoner,
    brute_force_min_diagnoses,
    cardinality_pr,
    cost_adjust,
    hs_tree,
    is_minimal_diagnosis,
    parse_formula,
    pr_of,
    rbf_hs,
)
from hsdiag.dpi import antichain_reduce
from conftest import gen_random_dpi, random_propositional_dpi, time_limit
from test_reasoner import counting_solves

EX4_ORDER = [("1", "4"), ("1", "6"), ("4", "5"), ("2", "4", "6")]


def run_both(dpi, pr, ld, **kw):
    return rbf_hs(dpi, pr, ld, **kw), hs_tree(dpi, pr, ld, **kw)


# --- golden walkthrough (abstract fixture) ------------------------------------

def test_ex4_rbf_hs_golden_order(ex4):
    dpi, pr = ex4
    result = rbf_hs(dpi, pr, 4, debug=True)
    assert [d.ids for d in result.diagnoses] == EX4_ORDER
    assert [d.pr for d in result.diagnoses] == pytest.approx(
        [0.0278597428512, 0.0267272329792, 0.0174058055712, 0.0116038703808], rel=1e-9
    )


def test_ex4_trace_backtracks_and_reuse(ex4):
    dpi, pr = ex4
    trace = []
    rbf_hs(dpi, pr, 4, trace=trace, debug=True, ordered=False)
    backtracks = [e for e in trace if e.kind == "BACKTRACK"]
    assert len(backtracks) == 7
    # first backtrack discards the subtree under {1}: best remaining child
    # cost 0.0088 lies below the bound 0.025 set by the best sibling
    assert backtracks[0].ids == ("1",)
    assert "F=0.00880043" in backtracks[0].detail
    assert "bound=0.0250473" in backtracks[0].detail
    labels = [e for e in trace if e.kind == "LABEL"]
    # the root reuses the conflict seeded by the main procedure
    assert labels[0].ids == () and "conflict-reuse {1,2,5}" in labels[0].detail
    # {5} is labeled by reusing the stored conflict {2,4,6}
    assert any(e.ids == ("5",) and "conflict-reuse {2,4,6}" in e.detail for e in labels)
    # regenerated {4,5} closes against the recorded diagnosis, {4,5,6} as superset
    assert any(e.ids == ("4", "5") and "closed" in e.detail for e in labels)
    assert any(e.ids == ("4", "5", "6") and "closed" in e.detail for e in labels)
    # third regeneration of {2,4} inherits the parent's learned cost
    assert any(e.kind == "INHERIT" and e.ids == ("2", "4") for e in trace)


def test_ex4_instrumentation_golden(ex4):
    dpi, pr = ex4
    result = rbf_hs(dpi, pr, 4, debug=True, ordered=False)
    s = result.stats
    assert s.peak_live_nodes == 11  # first verified run, frozen
    assert s.peak_live_nodes <= (4 + 1) * (len(dpi.k_ids) + 1)
    assert s.nodes_generated == 33
    assert s.conflict_computations == 8
    assert s.conflict_reuses == 7
    assert s.label_calls == 16


def test_ex4_ordered_instrumentation_golden(ex4):
    # the default tree: one path to each node set, same list and backtracks
    dpi, pr = ex4
    trace = []
    result = rbf_hs(dpi, pr, 4, trace=trace, debug=True)
    assert [d.ids for d in result.diagnoses] == EX4_ORDER
    assert sum(1 for e in trace if e.kind == "BACKTRACK") == 7
    s = result.stats
    assert s.peak_live_nodes == 9  # first verified run, frozen
    assert s.nodes_generated == 25
    assert s.conflict_computations == 8
    assert s.conflict_reuses == 7
    assert s.label_calls == 15


def test_ex4_hs_tree_same_ordered_list(ex4):
    dpi, pr = ex4
    result = hs_tree(dpi, pr, 4, debug=True)
    assert [d.ids for d in result.diagnoses] == EX4_ORDER


def test_ex4_hs_tree_ordered_instrumentation_golden(ex4):
    # the ordered tree builds no forbidden child and queues no duplicate
    dpi, pr = ex4
    result = hs_tree(dpi, pr, 4, debug=True)
    assert [d.ids for d in result.diagnoses] == EX4_ORDER
    s = result.stats
    assert s.peak_live_nodes == 12  # first verified run, frozen
    assert s.nodes_generated == 15
    assert s.label_calls == 10
    assert s.conflict_computations == 8
    assert s.conflict_reuses == 3


def test_ex4_memory_direction(ex4):
    dpi, pr = ex4
    rbf, hst = run_both(dpi, pr, 4, debug=True)
    assert rbf.stats.peak_live_nodes <= hst.stats.peak_live_nodes


def test_ex4_ld_prefix_property(ex4):
    dpi, pr = ex4
    full = [d.ids for d in rbf_hs(dpi, pr, None).diagnoses]
    assert len(full) == 10
    for ld in (1, 2, 3, 4, 7, 10, 25):
        assert [d.ids for d in rbf_hs(dpi, pr, ld).diagnoses] == full[:ld]


# --- golden Table 1 (propositional fixture) ------------------------------------

def test_table1_cardinality_mode_both_algorithms(table1, table1_card):
    dpi, _ = table1
    rbf, hst = run_both(dpi, table1_card, 10, debug=True)
    expected = {
        frozenset({"ax1", "ax3"}),
        frozenset({"ax1", "ax4"}),
        frozenset({"ax2", "ax3"}),
        frozenset({"ax2", "ax5"}),
    }
    assert set(rbf.diagnosis_sets()) == expected
    assert set(hst.diagnosis_sets()) == expected
    assert all(len(d.ids) == 2 for d in rbf.diagnoses + hst.diagnoses)


def test_table1_probability_mode(table1):
    dpi, pr = table1
    adjusted = cost_adjust(pr, 0.25)
    rbf, hst = run_both(dpi, adjusted, None, debug=True)
    # adjusted products keep the fixture's strict order: D1 > D4 > D2 = D3
    assert rbf.diagnoses[0].ids == ("ax1", "ax3")
    assert rbf.diagnoses[1].ids == ("ax2", "ax5")
    assert set(rbf.diagnosis_sets()) == set(hst.diagnosis_sets())


# --- trivial cases --------------------------------------------------------------

def test_invalid_background_returns_no_diagnoses():
    dpi = Dpi.propositional(
        [("ax1", parse_formula("B"))],
        background=[parse_formula("A"), parse_formula("!A")],
    )
    pr = cardinality_pr(dpi.k_ids)
    for result in run_both(dpi, pr, 5, debug=True):
        assert result.diagnoses == []
        assert result.stats.peak_live_nodes == 0


def test_conflict_free_instance_returns_empty_diagnosis():
    dpi = Dpi.abstract(3, [])
    pr = cardinality_pr(dpi.k_ids)
    for result in run_both(dpi, pr, 5, debug=True):
        assert [d.ids for d in result.diagnoses] == [()]
        assert result.diagnoses[0].pr == pytest.approx((2 / 3) ** 3)
        assert result.stats.peak_live_nodes == 0


def test_ld_validation(ex4):
    dpi, pr = ex4
    with pytest.raises(ValueError, match="ld"):
        rbf_hs(dpi, pr, 0)
    with pytest.raises(ValueError, match="cost-adjusted"):
        rbf_hs(dpi, FaultProbabilities({a: 0.6 for a in dpi.k_ids}), 2)


@pytest.mark.parametrize("search", [rbf_hs, hs_tree])
def test_probabilities_below_half_need_no_flag(ex4, search):
    # the values themselves make probabilities fit for the search
    dpi, _ = ex4
    result = search(dpi, FaultProbabilities({a: 0.1 for a in dpi.k_ids}), 2)
    assert len(result.diagnoses) == 2


@pytest.mark.parametrize("search", [rbf_hs, hs_tree])
@pytest.mark.parametrize("high", [0.5, 0.9])
def test_probability_of_half_or_above_refused(ex4, search, high):
    dpi, _ = ex4
    values = {a: 0.1 for a in dpi.k_ids}
    values[dpi.k_ids[-1]] = high
    with pytest.raises(ValueError, match="cost-adjusted"):
        search(dpi, FaultProbabilities(values), 2)


@pytest.mark.parametrize("search", [rbf_hs, hs_tree])
def test_conflict_listed_out_of_k_order_is_named_in_k_order(search):
    dpi = Dpi.abstract(4, [("4", "2"), ("3", "1")])
    trace = []
    result = search(dpi, cardinality_pr(dpi.k_ids), None, trace=trace, debug=True)
    assert result.conflicts == (("2", "4"), ("1", "3"))
    assert sorted(d.ids for d in result.diagnoses) == [("1", "2"), ("1", "4"), ("2", "3"), ("3", "4")]
    lines = [e.line() for e in trace]
    assert lines[0].startswith("LABEL [] conflict-reuse {2,4}")
    assert lines[1].startswith("EXPAND [] conflict={2,4}")
    assert any(line.startswith("LABEL [2] conflict-new {1,3}") for line in lines)


@pytest.mark.parametrize("search", [rbf_hs, hs_tree])
def test_empty_diagnosis_gets_its_diag_line(search):
    dpi = Dpi.abstract(3, [])  # K is valid: the empty set is the one diagnosis
    trace = []
    result = search(dpi, cardinality_pr(dpi.k_ids), None, trace=trace, debug=True)
    assert [d.ids for d in result.diagnoses] == [()]
    assert [e.line() for e in trace] == ["DIAG [] pr=0.296296296"]


@pytest.mark.parametrize("search", [rbf_hs, hs_tree])
def test_kept_trace_holds_no_reference_to_the_search(search):
    dpi = Dpi.abstract(4, [("1", "2"), ("2", "3", "4")])
    trace = []
    search(dpi, cardinality_pr(dpi.k_ids), None, trace=trace)
    dpi_ref = weakref.ref(dpi)
    del dpi
    gc.collect()
    assert dpi_ref() is None
    assert trace[0].line() == "LABEL [] conflict-reuse {1,2} f=0.197530864"


def test_singleton_conflict_gets_dummy_sibling():
    # single-element conflicts produce one child; the dummy keeps the
    # two-children invariant of the recursion
    dpi = Dpi.abstract(3, [["1"], ["2", "3"]])
    pr = cardinality_pr(dpi.k_ids)
    rbf, hst = run_both(dpi, pr, None, debug=True)
    expected = {frozenset({"1", "2"}), frozenset({"1", "3"})}
    assert set(rbf.diagnosis_sets()) == expected
    assert set(hst.diagnosis_sets()) == expected


# --- randomized agreement with the oracle ----------------------------------------

def agreement_case(dpi, pr):
    oracle = brute_force_min_diagnoses(dpi)
    oracle_sets = {d.id_set for d in oracle}
    rbf, hst = run_both(dpi, pr, None, debug=True)
    assert set(rbf.diagnosis_sets()) == oracle_sets
    assert set(hst.diagnosis_sets()) == oracle_sets
    assert len(rbf.diagnoses) == len(oracle)
    for result in (rbf, hst):
        prs = [d.pr for d in result.diagnoses]
        assert all(a >= b - 1e-12 for a, b in zip(prs, prs[1:]))  # best-first order
    return rbf, hst


def test_random_abstract_agreement():
    for seed in range(80):
        dpi = gen_random_dpi(9, 5, 4, seed)
        agreement_case(dpi, cardinality_pr(dpi.k_ids))


def test_random_abstract_agreement_with_random_pr():
    rng = random.Random(99)
    for seed in range(40):
        dpi = gen_random_dpi(8, 4, 4, seed)
        pr = FaultProbabilities(
            {a: rng.uniform(0.02, 0.49) for a in dpi.k_ids}
        )
        rbf, hst = agreement_case(dpi, pr)
        # with strictly separated probabilities the two emission orders match
        prs = [d.pr for d in rbf.diagnoses]
        if all(abs(a - b) > 1e-9 * max(a, b) for a, b in zip(prs, prs[1:])):
            assert [d.ids for d in rbf.diagnoses] == [d.ids for d in hst.diagnoses]


@pytest.mark.parametrize("ordered", [True, False])
def test_random_instances_ordered_and_paper_tree(ordered):
    # with debug=True an ordered run also asserts that every node set keeps
    # one parent set for the whole run
    rng = random.Random(13)
    for seed in range(120):
        comps = rng.randint(3, 12)
        dpi = gen_random_dpi(comps, rng.randint(1, 8), rng.randint(1, min(5, comps)), seed)
        prob = FaultProbabilities({a: rng.uniform(0.01, 0.3) for a in dpi.k_ids})
        card = cardinality_pr(dpi.k_ids)
        rbf = rbf_hs(dpi, prob, None, debug=True, ordered=ordered)
        assert [d.ids for d in rbf.diagnoses] == [d.ids for d in hs_tree(dpi, prob, None).diagnoses]
        oracle = {d.id_set for d in brute_force_min_diagnoses(dpi)}
        full = rbf_hs(dpi, card, None, debug=True, ordered=ordered)
        assert len(full.diagnoses) == len(oracle) and set(full.diagnosis_sets()) == oracle
        for pr, result in ((prob, rbf), (card, full)):
            ids = [d.ids for d in result.diagnoses]
            for ld in (1, 2, 5):
                assert [d.ids for d in rbf_hs(dpi, pr, ld, debug=True, ordered=ordered).diagnoses] == ids[:ld]
            if result.conflicts:
                c_max = max(len(c) for c in result.conflicts)
                assert result.stats.peak_live_nodes <= (c_max + 1) * (len(dpi.k_ids) + 1)


def test_ordered_hs_tree_keeps_the_paper_list():
    # with debug=True a run also asserts that no node set is built twice;
    # the heap pops in the full sort order: in card mode that is the
    # minimal diagnoses by cardinality, then K order, and in prob mode
    # ordered RBF-HS's list, bitwise
    rng = random.Random(16)
    for seed in range(150):
        comps = rng.randint(3, 12)
        dpi = gen_random_dpi(comps, rng.randint(1, 8), rng.randint(1, min(5, comps)), seed)
        prob = FaultProbabilities({a: rng.uniform(0.01, 0.3) for a in dpi.k_ids})
        position = {a: i for i, a in enumerate(dpi.k_ids)}
        oracle = sorted(
            (d.ids for d in brute_force_min_diagnoses(dpi)),
            key=lambda ids: (len(ids), [position[a] for a in ids]),
        )
        for ld in (None, 1, 3, 10):
            card = hs_tree(dpi, cardinality_pr(dpi.k_ids), ld, debug=True)
            assert [d.ids for d in card.diagnoses] == oracle[:ld]
            ordered = hs_tree(dpi, prob, ld, debug=True)
            rbf = rbf_hs(dpi, prob, ld, debug=True)
            assert [(d.ids, d.pr) for d in ordered.diagnoses] == [(d.ids, d.pr) for d in rbf.diagnoses]


def test_relaxed_levels_keep_the_list_and_its_prefixes():
    # Prob mode on |K| = 20 with 12 sampled conflicts, where relaxed levels
    # nest deep: with debug=True every found diagnosis is also checked
    # against the F given to each node on its path, and no held set may
    # contain another
    rng = random.Random(20)
    for seed in range(60):
        dpi = gen_random_dpi(20, 12, 4, seed)
        pr = FaultProbabilities({a: rng.uniform(0.01, 0.3) for a in dpi.k_ids})
        result = rbf_hs(dpi, pr, None, debug=True)
        ids = [d.ids for d in result.diagnoses]
        assert ids == [d.ids for d in hs_tree(dpi, pr, None).diagnoses]
        for ld in (1, 2, 5, 20):
            assert [d.ids for d in rbf_hs(dpi, pr, ld, debug=True).diagnoses] == ids[:ld]


def sampled_prob_dpi(seed: int, n: int, conflicts: int, sizes: tuple[int, int]):
    """An abstract DPI over n axioms with the given number of sampled
    conflicts of sizes[0] to sizes[1] members, supersets dropped, and fault
    probabilities uniform in [0.01, 0.3], all drawn from Random(seed)."""
    rng = random.Random(seed)
    ids = [str(i + 1) for i in range(n)]
    raw = [[ids[i] for i in sorted(rng.sample(range(n), rng.randint(*sizes)))] for _ in range(conflicts)]
    dpi = Dpi.abstract(ids, antichain_reduce(raw))
    return dpi, FaultProbabilities({a: rng.uniform(0.01, 0.3) for a in dpi.k_ids})


def test_rbf_hs_labels_stay_near_hs_tree_in_prob_mode():
    # |K| = 35, 23 sampled conflicts of 3 to 5 members: with exact levels
    # RBFS re-entered subtrees for every tiny backed-up decrement and made 4
    # to 46 times HS-Tree's labels here at ld 20; relaxed levels make 1.2 to
    # 3.6 times at ld 3 to 20. A held diagnosis past the best ld - |D| can never enter D,
    # so the held list keeps at most ld entries; without that cap these
    # instances hold up to 25 at ld 3 and at ld 5.
    for seed in range(6):
        dpi, pr = sampled_prob_dpi(seed, 35, 23, (3, 5))
        for ld in (3, 5, 20):
            rbf, hst = run_both(dpi, pr, ld)
            assert [d.ids for d in rbf.diagnoses] == [d.ids for d in hst.diagnoses]
            assert rbf.stats.label_calls <= 5 * hst.stats.label_calls, (seed, ld)
            assert rbf.stats.peak_held_diagnoses <= ld, (seed, ld)


def test_relaxed_levels_end():
    # Instances shaped like perfbench's `abstract` (|K| = 14, 9 sampled
    # conflicts of 3 or 4 members), where levels re-entered below their bound
    # nest. A level below a relaxed one must keep its margin: a child level
    # that dropped it would be left at once, re-entered by its parent within
    # the parent's margin, and so on for ever.
    with time_limit(20):
        for seed in range(12):
            dpi, pr = sampled_prob_dpi(seed, 14, 9, (3, 4))
            rbf = rbf_hs(dpi, pr, 20, debug=True)
            assert [d.ids for d in rbf.diagnoses] == [d.ids for d in hs_tree(dpi, pr, 20).diagnoses]


def test_diagnoses_are_held_only_below_relaxed_levels():
    # HS-Tree, card mode and the paper tree release every diagnosis as it
    # is found; the ordered prob-mode tree holds some until no open node
    # may beat them
    held = 0
    for seed in range(12):
        dpi, prob = sampled_prob_dpi(seed, 14, 9, (3, 4))
        for result in (
            rbf_hs(dpi, cardinality_pr(dpi.k_ids), 20),
            rbf_hs(dpi, prob, 20, ordered=False),
            hs_tree(dpi, prob, 20),
        ):
            assert result.stats.peak_held_diagnoses == 0
        held += rbf_hs(dpi, prob, 20).stats.peak_held_diagnoses
    assert held


def test_random_propositional_agreement():
    rng = random.Random(4242)
    for _ in range(12):
        dpi = random_propositional_dpi(rng, max_axioms=6, max_atoms=4)
        agreement_case(dpi, cardinality_pr(dpi.k_ids))


@given(
    components=st.integers(2, 12),
    conflicts=st.integers(1, 12),
    max_size=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
    ld=st.sampled_from([None, 1, 2, 3, 5]),
    mode=st.sampled_from(["prob", "card"]),
    seeded=st.booleans(),
)
def test_resumed_labels_agree_with_labels_from_scratch(components, conflicts, max_size, seed, ld, mode, seeded):
    # with debug=True every label that resumes its parent's scans is checked
    # against a full scan of D and a conflict scan from index 0, and every
    # bound packed from a conflict's list of later disjoint conflicts
    # against a packing over every conflict past it; seeds fill the lists
    # before the search starts
    dpi = gen_random_dpi(components, conflicts, min(max_size, components), seed)
    rng = random.Random(seed)
    if mode == "card":
        pr = cardinality_pr(dpi.k_ids)
    else:
        pr = FaultProbabilities({a: rng.uniform(0.01, 0.3) for a in dpi.k_ids})
    seeds = ()
    if seeded:  # the DPI's minimal conflicts in random order, some marked unknown
        family = list(dpi.family_masks)
        rng.shuffle(family)
        seeds = [(m, rng.random() < 0.5) for m in family]
    oracle = {d.id_set: pr_of(pr, dpi.k_ids, d.ids) for d in brute_force_min_diagnoses(dpi)}
    expected = len(oracle) if ld is None else min(ld, len(oracle))
    for search in (rbf_hs, hs_tree):
        result = search(dpi, pr, ld, debug=True, seeds=seeds)
        found = result.diagnosis_sets()
        assert len(found) == len(set(found)) == expected
        assert set(found) <= set(oracle)
        prs = [d.pr for d in result.diagnoses]
        assert all(a >= b for a, b in zip(prs, prs[1:]))  # best-first order
        left_out = [p for d, p in oracle.items() if d not in found]
        if found and left_out:  # none left out is more probable than one found
            assert max(left_out) <= prs[-1] * (1 + 1e-9)


def test_truncated_ld_yields_equal_probability_multisets(ex4):
    dpi, pr = ex4
    for ld in (1, 2, 3, 5, 8):
        rbf, hst = run_both(dpi, pr, ld)
        assert [d.pr for d in rbf.diagnoses] == pytest.approx(
            [d.pr for d in hst.diagnoses], rel=1e-9
        )


# --- structural properties --------------------------------------------------------

def test_emitted_diagnoses_are_sound_and_hit_stored_conflicts():
    for seed in range(30):
        dpi = gen_random_dpi(8, 5, 4, seed)
        pr = cardinality_pr(dpi.k_ids)
        for result in run_both(dpi, pr, 3, debug=True):
            for diag in result.diagnoses:
                assert is_minimal_diagnosis(dpi, diag.id_set)
                assert all(diag.id_set & frozenset(c) for c in result.conflicts)


def test_disjoint_conflict_bound_prunes():
    # {1,2}, {3,4} and {5,6} are disjoint: once they are stored, a node
    # that hits few of them gets F = f + one largest step per conflict it
    # misses, and both searches stop before labeling it. The label calls
    # with h = 0, frozen from the searches before the bound, are the ones
    # to beat.
    ids = [str(i) for i in range(1, 9)]
    dpi = Dpi.abstract(ids, [["6", "7", "8"], ["2", "7"], ["3", "4"], ["5", "6"], ["1", "2"]])
    position = {a: i for i, a in enumerate(ids)}
    modes = {
        "prob": FaultProbabilities({a: 0.05 + 0.03 * i for i, a in enumerate(ids)}),
        "card": cardinality_pr(ids),
    }
    unbounded_labels = {("prob", rbf_hs): 31, ("prob", hs_tree): 17, ("card", rbf_hs): 18, ("card", hs_tree): 12}
    oracle = [d.ids for d in brute_force_min_diagnoses(dpi)]
    ld = 2
    for (mode, search), labels in unbounded_labels.items():
        pr = modes[mode]
        expected = sorted(oracle, key=lambda d: (-pr_of(pr, ids, d), len(d), [position[a] for a in d]))[:ld]
        result = search(dpi, pr, ld, debug=True)
        found = [d.ids for d in result.diagnoses]
        if mode == "card" and search is rbf_hs:  # equal costs may come in any order
            assert list(map(len, found)) == list(map(len, expected)) and set(found) <= set(oracle)
        else:
            assert found == expected
        assert result.stats.label_calls < labels


def test_linear_space_bound_random():
    for seed in range(40):
        dpi = gen_random_dpi(10, 6, 4, seed)
        pr = cardinality_pr(dpi.k_ids)
        result = rbf_hs(dpi, pr, None, debug=True)
        if not result.conflicts:
            continue
        c_max = max(len(c) for c in result.conflicts)
        assert result.stats.peak_live_nodes <= (c_max + 1) * (len(dpi.k_ids) + 1)


def test_cost_decreases_strictly_with_depth(ex4):
    dpi, pr = ex4
    # cost-adjusted probabilities force f(child) < f(parent) on every edge
    for axiom in dpi.k_ids:
        assert pr_of(pr, dpi.k_ids, {axiom}) < pr_of(pr, dpi.k_ids, [])
    trace = []
    rbf_hs(dpi, pr, None, trace=trace)
    for event in trace:
        if event.kind == "DIAG":
            assert float(event.detail.split("pr=")[1]) < pr_of(pr, dpi.k_ids, [])


def test_search_results_are_reproducible(ex4):
    dpi, pr = ex4
    a = rbf_hs(dpi, pr, 4)
    b = rbf_hs(dpi, pr, 4)
    assert [d.ids for d in a.diagnoses] == [d.ids for d in b.diagnoses]
    assert (
        a.stats.nodes_generated,
        a.stats.peak_live_nodes,
        a.stats.label_calls,
        a.stats.conflict_computations,
        a.stats.conflict_reuses,
    ) == (
        b.stats.nodes_generated,
        b.stats.peak_live_nodes,
        b.stats.label_calls,
        b.stats.conflict_computations,
        b.stats.conflict_reuses,
    )


@pytest.mark.parametrize("search", [rbf_hs, hs_tree])
def test_wall_time_excludes_encoding(table1, table1_card, monkeypatch, search):
    # a search that builds its own reasoner encodes before its timer starts,
    # as a session does, so diag and session step times compare
    dpi, _ = table1
    init = Reasoner.__init__

    def slow_init(self, dpi):
        time.sleep(0.2)
        init(self, dpi)

    monkeypatch.setattr(Reasoner, "__init__", slow_init)
    result = search(dpi, table1_card, 4)
    assert len(result.diagnoses) == 4
    assert result.stats.wall_time < 0.2


@pytest.mark.parametrize("search", [rbf_hs, hs_tree])
def test_encode_s_times_the_searchs_own_reasoner(table1, table1_card, ex4, search):
    dpi, _ = table1
    assert search(dpi, table1_card, 4).stats.encode_s > 0
    assert search(dpi, table1_card, 4, reasoner=Reasoner(dpi)).stats.encode_s == 0.0
    abstract, pr = ex4
    assert search(abstract, pr, 4).stats.encode_s == 0.0


def singleton_conflicts(n: int) -> Dpi:
    """n components, each a conflict of its own: the one diagnosis holds
    all of them and lies n levels below the root."""
    ids = [str(i + 1) for i in range(n)]
    return Dpi.abstract(ids, [[a] for a in ids])


@pytest.mark.parametrize("search", [rbf_hs, hs_tree])
def test_diagnosis_deeper_than_the_recursion_limit(search):
    dpi = singleton_conflicts(1500)
    assert len(dpi.k_ids) > sys.getrecursionlimit()
    result = search(dpi, cardinality_pr(dpi.k_ids), 1)
    assert result.diagnosis_sets() == [frozenset(dpi.k_ids)]
    if search is rbf_hs:  # max conflict size 1
        assert result.stats.peak_live_nodes <= (1 + 1) * (len(dpi.k_ids) + 1)


def test_solver_calls_count_the_searchs_solves(table1, table1_card, ex4, monkeypatch):
    dpi, _ = table1
    solves = counting_solves(monkeypatch)
    for search in (rbf_hs, hs_tree):
        reasoner = Reasoner(dpi)
        reasoner.is_valid(frozenset(dpi.k_ids))  # before the search: not counted
        del solves[:]
        result = search(dpi, table1_card, 4, reasoner=reasoner)
        assert result.stats.solver_calls == len(solves) > 0
    abstract, pr = ex4
    assert rbf_hs(abstract, pr, 4).stats.solver_calls == 0
    assert hs_tree(abstract, pr, 4).stats.solver_calls == 0
