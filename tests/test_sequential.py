import gc
import random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from hsdiag import (
    Diagnosis,
    Dpi,
    FaultProbabilities,
    Reasoner,
    brute_force_min_diagnoses,
    cardinality_pr,
    carry_conflicts,
    ent_select,
    is_diagnosis,
    make_query,
    normalized_logs,
    oracle_answer,
    parse_formula,
    rbf_hs,
    run_session,
    update_dpi,
)
from hsdiag.dpi import bits_of, log_prs, reasoner_for
from hsdiag.search import SEARCHES
from hsdiag.sequential import partition
from conftest import gen_random_dpi, random_propositional_dpi


def table1_diagnoses(dpi):
    return brute_force_min_diagnoses(dpi)


def by_ids(diagnoses, *ids):
    wanted = frozenset(ids)
    return next(d for d in diagnoses if d.id_set == wanted)


# --- partition -----------------------------------------------------------------

def test_partition_table1_ax1(table1):
    dpi, _ = table1
    diagnoses = table1_diagnoses(dpi)
    cells = partition(dpi, diagnoses, make_query(dpi, "ax1"))
    # removing ax1 recreates conflict {ax1,ax2} for the diagnoses containing
    # ax1; the others keep ax1 in place, entailment by membership
    assert {d.id_set for d in cells.dplus} == {
        frozenset({"ax2", "ax3"}),
        frozenset({"ax2", "ax5"}),
    }
    assert {d.id_set for d in cells.dminus} == {
        frozenset({"ax1", "ax3"}),
        frozenset({"ax1", "ax4"}),
    }
    assert cells.dzero == ()


def test_partition_cells_are_a_disjoint_cover(table1):
    dpi, _ = table1
    diagnoses = table1_diagnoses(dpi)
    for axiom in dpi.k_ids:
        cells = partition(dpi, diagnoses, make_query(dpi, axiom))
        combined = list(cells.dplus) + list(cells.dminus) + list(cells.dzero)
        assert sorted(d.ids for d in combined) == sorted(d.ids for d in diagnoses)


def test_partition_axiom_in_no_diagnosis_is_inadmissible(ex4):
    dpi, _ = ex4
    diagnoses = brute_force_min_diagnoses(dpi)[:4]
    cells = partition(dpi, diagnoses, make_query(dpi, "7"))
    assert len(cells.dplus) == 4 and not cells.dminus


def test_partition_single_diagnosis(table1):
    dpi, _ = table1
    only = [by_ids(table1_diagnoses(dpi), "ax1", "ax3")]
    cells = partition(dpi, only, make_query(dpi, "ax2"))
    assert len(cells.dplus) + len(cells.dminus) + len(cells.dzero) == 1


# --- measurement selection --------------------------------------------------------

def test_ent_select_table1_perfect_split(table1, table1_card):
    dpi, _ = table1
    diagnoses = table1_diagnoses(dpi)
    query = ent_select(dpi, diagnoses, table1_card)
    # ax1 and ax3 both split the mass perfectly; the K-order tie-break picks ax1
    assert query.axiom_id == "ax1"
    cells = partition(dpi, diagnoses, query)
    mass = len(cells.dplus) / len(diagnoses)
    assert mass == pytest.approx(0.5)


def test_ent_select_requires_two_diagnoses(table1, table1_card):
    dpi, _ = table1
    with pytest.raises(ValueError):
        ent_select(dpi, table1_diagnoses(dpi)[:1], table1_card)


def test_ent_select_prefers_balanced_query():
    # one axiom splits 2/2, another 1/3: the balanced one wins
    dpi = Dpi.abstract(4, [["1", "2"], ["3", "4"]])
    pr = cardinality_pr(dpi.k_ids)
    diagnoses = brute_force_min_diagnoses(dpi)
    assert len(diagnoses) == 4
    query = ent_select(dpi, diagnoses, pr)
    cells = partition(dpi, diagnoses, query)
    assert len(cells.dplus) == 2 and len(cells.dminus) == 2
    assert query.axiom_id == "1"  # tie among all four axioms, the first in K wins


def test_ent_select_breaks_ties_in_k_order_not_id_order():
    # K lists "b" before "a"; both split the two diagnoses evenly
    dpi = Dpi.abstract(["b", "a"], [("b", "a")])
    pr = cardinality_pr(dpi.k_ids)
    diagnoses = brute_force_min_diagnoses(dpi)
    assert {d.ids for d in diagnoses} == {("b",), ("a",)}
    assert ent_select(dpi, diagnoses, pr).axiom_id == "b"


def test_ent_select_rejects_diagnoses_that_name_the_same_set(table1, table1_card):
    # every axiom is held by both or by neither: no query discriminates them
    dpi, _ = table1
    same = [Diagnosis(("ax1", "ax3")), Diagnosis(("ax1", "ax3"))]
    with pytest.raises(ValueError, match="discriminates"):
        ent_select(dpi, same, table1_card)


def partition_select(dpi, diagnoses, pr):
    """Measurement selection scored on the logical partition: the positive
    mass plus half the unaffected mass, ties to the smaller unaffected cell,
    then the lowest axiom id; only axioms with both dplus and dminus
    nonempty qualify."""
    weights = normalized_logs(log_prs(dpi, pr, [dpi.mask_of(d.ids) for d in diagnoses]))
    best = None
    for idx, axiom in enumerate(dpi.k_ids):
        cells = partition(dpi, diagnoses, make_query(dpi, axiom))
        if not cells.dplus or not cells.dminus:
            continue
        mass = sum(w for d, w in zip(diagnoses, weights) if d in cells.dplus) + 0.5 * sum(
            w for d, w in zip(diagnoses, weights) if d in cells.dzero
        )
        score = (round(abs(mass - 0.5), 9), len(cells.dzero), idx)
        if best is None or score < best[0]:
            best = (score, axiom)
    return best[1] if best else None


@pytest.mark.parametrize("backend", ["reasoner", "abstract"])
def test_membership_selection_matches_the_logical_partition(backend):
    # for minimal diagnoses an axiom held by some but not all of them splits
    # them by membership: dplus without it, dminus with it, dzero empty; and
    # ent_select picks what a scoring on partition picks. Sessions take
    # ent_select's query or a random axiom, answered at random, so abstract
    # DPIs also meet axioms answered positive and contradicting answers.
    rng = random.Random(1515)
    partitions = selections = 0
    for seed in range(300):
        if backend == "reasoner":
            dpi = random_propositional_dpi(rng, max_axioms=8, max_atoms=4)
        else:
            dpi = gen_random_dpi(9, 5, 3, seed)
        if rng.random() < 0.5:
            pr = cardinality_pr(dpi.k_ids)
        else:
            values = {a: rng.uniform(0.01, 0.45) for a in dpi.k_ids}
            pr = FaultProbabilities(values)
        ld = rng.randint(2, 8)
        for _ in range(4):
            diagnoses = rbf_hs(dpi, pr, ld).diagnoses
            if len(diagnoses) < 2:
                break
            for axiom in dpi.k_ids:
                holders = tuple(d for d in diagnoses if axiom in d.id_set)
                if not holders or len(holders) == len(diagnoses):
                    continue
                cells = partition(dpi, diagnoses, make_query(dpi, axiom))
                assert cells.dplus == tuple(d for d in diagnoses if axiom not in d.id_set)
                assert cells.dminus == holders
                assert cells.dzero == ()
                partitions += 1
            query = ent_select(dpi, diagnoses, pr)
            assert query.axiom_id == partition_select(dpi, diagnoses, pr)
            selections += 1
            if rng.random() < 0.3:
                query = make_query(dpi, rng.choice(dpi.k_ids))
            dpi = update_dpi(dpi, query, rng.random() < 0.5)
    assert partitions >= 300 and selections >= 100


def test_ent_select_weighs_diagnoses_whose_probability_underflows():
    # {1}, {2}, {3} split as one against two by every query; {3} alone holds
    # about half the mass, which only shows when the weights do not all
    # underflow to zero on 2,000 components
    ids = [str(i + 1) for i in range(2000)]
    dpi = Dpi.abstract(ids, [("1", "2", "3")])
    pr = FaultProbabilities({a: 0.4 for a in ids} | {"1": 0.1, "2": 0.1, "3": 0.2})
    diagnoses = [Diagnosis((a,)) for a in ("1", "2", "3")]
    assert ent_select(dpi, diagnoses, pr).axiom_id == "3"


# --- oracle and update ---------------------------------------------------------------

def test_oracle_answer_definitional(table1):
    dpi, _ = table1
    actual = by_ids(table1_diagnoses(dpi), "ax1", "ax3")
    assert oracle_answer(make_query(dpi, "ax1"), actual) is False
    assert oracle_answer(make_query(dpi, "ax2"), actual) is True


def test_oracle_never_eliminates_actual(table1, table1_card):
    dpi, _ = table1
    diagnoses = table1_diagnoses(dpi)
    for actual in diagnoses:
        for axiom in dpi.k_ids:
            query = make_query(dpi, axiom)
            cells = partition(dpi, diagnoses, query)
            answer = oracle_answer(query, actual)
            eliminated = cells.dminus if answer else cells.dplus
            assert actual.id_set not in {d.id_set for d in eliminated}


def test_update_dpi_moves_sentence(table1):
    dpi, _ = table1
    query = make_query(dpi, "ax1")
    negative = update_dpi(dpi, query, False)
    assert parse_formula("A -> !B") in negative.negative
    assert negative.positive == dpi.positive
    positive = update_dpi(dpi, query, True)
    assert parse_formula("A -> !B") in positive.positive
    # set union: repeating the measurement changes nothing
    assert update_dpi(positive, query, True) == positive


def test_update_eliminates_refuted_diagnoses(table1):
    dpi, _ = table1
    diagnoses = table1_diagnoses(dpi)
    query = make_query(dpi, "ax1")
    cells = partition(dpi, diagnoses, query)
    updated = update_dpi(dpi, query, False)
    for d in cells.dplus:
        assert not is_diagnosis(updated, d.id_set)
    for d in cells.dminus:
        assert is_diagnosis(updated, d.id_set)


def test_update_abstract_backend(ex4):
    dpi, _ = ex4
    positive = update_dpi(dpi, make_query(dpi, "6"), True)
    assert positive.family_sets() == (
        frozenset({"1", "2", "5"}),
        frozenset({"2", "4"}),
        frozenset({"1", "3", "4"}),
        frozenset({"1", "5", "7"}),
    )
    negative = update_dpi(dpi, make_query(dpi, "1"), False)
    assert frozenset({"1"}) in negative.family_sets()
    assert all("1" not in m or m == frozenset({"1"}) for m in negative.family_sets())


# --- full sessions ---------------------------------------------------------------------

def test_session_table1_isolates_actual(table1, table1_card):
    dpi, _ = table1
    trace = run_session(dpi, table1_card, 4, {"ax1", "ax3"})
    assert trace.final.id_set == frozenset({"ax1", "ax3"})
    assert trace.query_count == 2  # ax1 then ax3, derived by hand
    assert [it.query.axiom_id for it in trace.iterations if it.query] == ["ax1", "ax3"]


@pytest.mark.parametrize("check_actual", [False, True])
@pytest.mark.parametrize("algo", ["rbfhs", "hstree"])
def test_session_encodes_once(table1, table1_card, monkeypatch, algo, check_actual):
    # one reasoner serves every search and every measurement selection,
    # and absorbs each answer, so the session encodes its DPI once for them
    # however many iterations it runs; the actual's check encodes it once
    # more, on a reasoner of its own that the searches never read
    dpi, _ = table1
    encoded = []
    init = Reasoner.__init__

    def counting_init(self, dpi):
        encoded.append(dpi)
        init(self, dpi)

    monkeypatch.setattr(Reasoner, "__init__", counting_init)
    trace = run_session(dpi, table1_card, 4, {"ax1", "ax3"}, algo, check_actual=check_actual)
    assert trace.query_count == 2
    assert len(trace.iterations) == 3
    assert encoded == [dpi] * (1 + check_actual)


@pytest.mark.parametrize("algo", ["rbfhs", "hstree"])
def test_session_searches_spend_no_time_encoding(table1, table1_card, algo):
    # the session's reasoner is built before its first search, and every
    # search is handed it
    dpi, _ = table1
    trace = run_session(dpi, table1_card, 4, {"ax1", "ax3"}, algo)
    assert [it.stats.encode_s for it in trace.iterations] == [0.0] * 3


@pytest.mark.parametrize("algo", ["rbfhs", "hstree"])
def test_session_leaves_no_cyclic_garbage(table1, table1_card, algo):
    # the session's reasoner, with its memo, is freed when the session
    # returns, not whenever the cyclic garbage collector next runs
    dpi, _ = table1
    gc.collect()
    gc.disable()
    try:
        run_session(dpi, table1_card, 4, {"ax1", "ax3"}, algo)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_session_every_actual_is_recovered(table1, table1_card):
    dpi, _ = table1
    for actual in table1_diagnoses(dpi):
        for algo in ("rbfhs", "hstree"):
            trace = run_session(dpi, table1_card, 4, actual, algo)
            assert trace.final.id_set == actual.id_set


def test_session_unique_diagnosis_needs_no_query():
    dpi = Dpi.abstract(3, [["1"]])
    pr = cardinality_pr(dpi.k_ids)
    trace = run_session(dpi, pr, 4, {"1"})
    assert trace.query_count == 0
    assert trace.final.id_set == frozenset({"1"})


def test_session_rejects_bad_actual(table1, table1_card):
    dpi, _ = table1
    with pytest.raises(ValueError, match="not a minimal diagnosis"):
        run_session(dpi, table1_card, 4, {"ax1"})
    with pytest.raises(ValueError, match="ld"):
        run_session(dpi, table1_card, 1, {"ax1", "ax3"})


def test_session_candidate_set_shrinks_strictly(table1, table1_card):
    dpi, _ = table1
    current = dpi
    sizes = [len(brute_force_min_diagnoses(current))]
    trace = run_session(dpi, table1_card, 4, {"ax2", "ax5"})
    for it in trace.iterations:
        if it.query is None:
            continue
        current = update_dpi(current, it.query, it.answer)
        remaining = brute_force_min_diagnoses(current)
        assert frozenset({"ax2", "ax5"}) in {d.id_set for d in remaining}
        sizes.append(len(remaining))
    assert all(a > b for a, b in zip(sizes, sizes[1:]))
    assert sizes[-1] == 1


def test_session_abstract_instance(ex4):
    dpi, pr = ex4
    trace = run_session(dpi, pr, 4, {"1", "4"})
    assert trace.final.id_set == frozenset({"1", "4"})
    for it in trace.iterations:
        assert it.stats.label_calls > 0


def test_session_random_instances_recover_actuals():
    rng = random.Random(31)
    count = 0
    for seed in range(25):
        dpi = gen_random_dpi(8, 4, 3, seed)
        pool = brute_force_min_diagnoses(dpi)
        if len(pool) < 2:
            continue
        pr = cardinality_pr(dpi.k_ids)
        actual = rng.choice(pool)
        for algo in ("rbfhs", "hstree"):
            trace = run_session(dpi, pr, 4, actual, algo)
            assert trace.final.id_set == actual.id_set
            assert trace.query_count <= len(pool)
        count += 1
    assert count >= 10


def test_ent_score_for_one_versus_three_split():
    # four equal-mass diagnoses, one axiom refuted by a single diagnosis:
    # its positive mass is 0.75, so its score is |0.75 - 0.5| = 0.25
    dpi = Dpi.abstract(5, [["1", "3"], ["2", "4", "5"]])
    pr = cardinality_pr(dpi.k_ids)
    pool = {d.id_set: d for d in brute_force_min_diagnoses(dpi)}
    chosen = [
        pool[frozenset({"1", "2"})],
        pool[frozenset({"1", "4"})],
        pool[frozenset({"1", "5"})],
        pool[frozenset({"3", "2"})],
    ]
    cells = partition(dpi, chosen, make_query(dpi, "3"))
    assert (len(cells.dplus), len(cells.dminus)) == (3, 1)
    weights = [0.25] * 4
    mass = sum(w for d, w in zip(chosen, weights) if d in cells.dplus)
    assert abs(mass - 0.5) == pytest.approx(0.25)
    # the selector still prefers the perfectly balanced axiom
    assert ent_select(dpi, chosen, pr).axiom_id == "2"


def test_selected_queries_are_admissible():
    # every chosen query must be refutable and confirmable: both cells
    # nonempty, so any answer eliminates at least one candidate
    for seed in range(20):
        dpi = gen_random_dpi(8, 4, 3, seed)
        diagnoses = brute_force_min_diagnoses(dpi)
        if len(diagnoses) < 2:
            continue
        pr = cardinality_pr(dpi.k_ids)
        query = ent_select(dpi, diagnoses, pr)
        cells = partition(dpi, diagnoses, query)
        assert cells.dplus and cells.dminus


def test_session_random_propositional_instances_recover_actuals():
    rng = random.Random(616)
    recovered = 0
    for _ in range(30):
        dpi = random_propositional_dpi(rng, max_axioms=6, max_atoms=4)
        pool = brute_force_min_diagnoses(dpi)
        if len(pool) < 2 or not pool[0].ids:
            continue
        actual = rng.choice(pool)
        trace = run_session(dpi, cardinality_pr(dpi.k_ids), 4, actual)
        assert trace.final.id_set == actual.id_set
        recovered += 1
    assert recovered >= 5


def test_answer_fn_override_reproduces_simulated_run(table1, table1_card):
    dpi, _ = table1
    simulated = run_session(dpi, table1_card, 4, {"ax1", "ax3"})
    answers = [it.answer for it in simulated.iterations if it.query is not None]
    scripted = iter(answers)
    replayed = run_session(
        dpi, table1_card, 4, {"ax1", "ax3"}, answer_fn=lambda q: next(scripted)
    )
    assert replayed.final.id_set == simulated.final.id_set
    assert replayed.query_count == simulated.query_count


@given(
    kind=st.sampled_from(["abstract", "propositional"]),
    seed=st.integers(0, 10**6),
    algo=st.sampled_from(sorted(SEARCHES)),
    ld=st.integers(2, 5),
    prob=st.booleans(),
    answers=st.lists(st.booleans(), min_size=9, max_size=9),  # |K| <= 9 below
)
@example(kind="propositional", seed=7, algo="rbfhs", ld=2, prob=False, answers=[True] * 9)
def test_session_ends_within_k_queries_whatever_the_answers(kind, seed, algo, ld, prob, answers):
    # A positive answer on an axiom drops it from every minimal diagnosis
    # and a negative one puts it in all of them, so no axiom is queried
    # twice, and each answer keeps at least one diagnosis. A session thus
    # ends within |K| queries with one diagnosis, or finds none at the start
    # when no diagnosis exists.
    rng = random.Random(seed)
    if kind == "abstract":
        components = rng.randint(1, 9)
        dpi = gen_random_dpi(components, rng.randint(0, 7), rng.randint(1, components), seed)
    else:
        dpi = random_propositional_dpi(rng, max_axioms=7, max_atoms=4)
    if prob:
        pr = FaultProbabilities({a: rng.uniform(0.01, 0.45) for a in dpi.k_ids})
    else:
        pr = cardinality_pr(dpi.k_ids)
    queried = []

    def answer_fn(query):
        queried.append(query.axiom_id)
        return answers[len(queried) - 1]

    try:
        trace = run_session(dpi, pr, ld, (), algo, answer_fn=answer_fn, check_actual=False)
    except RuntimeError as exc:
        assert str(exc) == "every diagnosis candidate was eliminated"
        assert queried == [] and not is_diagnosis(dpi, dpi.k_ids)
        return
    assert len(trace.iterations[-1].diagnoses) == 1
    assert trace.query_count == len(queried) <= len(dpi.k_ids)
    assert len(set(queried)) == len(queried)


# --- conflicts carried across a session ------------------------------------------

def _session_from_empty_stores(dpi, pr, ld, algo, answer_fn):
    """``run_session`` with every search starting from an empty conflict
    store: (diagnoses, queried axiom, answer) per iteration."""
    reasoner = reasoner_for(dpi)
    iterations, current = [], dpi
    while True:
        found = SEARCHES[algo](current, pr, ld, reasoner=reasoner, debug=True).diagnoses
        if not found:
            raise RuntimeError("every diagnosis candidate was eliminated")
        if len(found) == 1:
            return iterations + [(found, None, None)]
        query = ent_select(current, found, pr)
        answer = answer_fn(query)
        iterations.append((found, query.axiom_id, answer))
        current = update_dpi(current, query, answer, reasoner=reasoner)


@given(
    seed=st.integers(0, 10**6),
    algo=st.sampled_from(sorted(SEARCHES)),
    ld=st.integers(2, 8),
    prob=st.booleans(),
    answers=st.lists(st.booleans(), min_size=9, max_size=9),  # |K| <= 9 below
)
@settings(max_examples=100)
def test_carried_conflicts_leave_every_session_as_it_was(seed, algo, ld, prob, answers):
    # run_session under debug, which checks every seed a search keeps on a
    # fresh reasoner, against searches that each start from an empty store
    rng = random.Random(seed)
    dpi = random_propositional_dpi(rng, max_axioms=9, max_atoms=5)
    if prob:
        pr = FaultProbabilities({a: rng.uniform(0.01, 0.45) for a in dpi.k_ids})
    else:
        pr = cardinality_pr(dpi.k_ids)

    def scripted():
        replies = iter(answers)
        return lambda query: next(replies)

    def session():
        return run_session(
            dpi, pr, ld, (), algo, answer_fn=scripted(), check_actual=False, debug=True
        )

    try:
        expected = _session_from_empty_stores(dpi, pr, ld, algo, scripted())
    except RuntimeError:  # no diagnosis
        expected = []
    assume(len(expected) > 1)  # a query, so a search with seeds
    trace = session()
    got = [(it.diagnoses, it.query and it.query.axiom_id, it.answer) for it in trace.iterations]
    assert [it[1:] for it in got] == [it[1:] for it in expected]
    assert trace.final.ids == expected[-1][0][0].ids
    for (old, _, _), (new, _, _) in zip(expected, got):
        if prob or algo == "hstree":
            assert [d.ids for d in new] == [d.ids for d in old]
        else:  # card-mode RBF-HS orders diagnoses of equal cost by its tree
            assert sorted(d.ids for d in new) == sorted(d.ids for d in old)
        assert [d.pr for d in new] == pytest.approx([d.pr for d in old], rel=1e-12, abs=0)


def test_searches_keep_exactly_the_carried_conflicts_that_stay_minimal():
    # a fresh reasoner on each updated DPI decides which seeds are minimal
    # conflicts: each seed marked minimal is one, and a search stores every
    # one of them first, in seed order, and no other seed
    rng = random.Random(27)
    checked = {True: 0, False: 0}  # seeds not marked minimal, by verdict
    for _ in range(40):
        dpi = random_propositional_dpi(rng, max_axioms=9, max_atoms=5)
        pr = FaultProbabilities({a: rng.uniform(0.01, 0.45) for a in dpi.k_ids})
        for search in SEARCHES.values():
            reasoner = reasoner_for(dpi)
            current = dpi
            result = search(current, pr, 6, reasoner=reasoner)
            while len(result.diagnoses) > 1:
                query = ent_select(current, result.diagnoses, pr)
                answer = rng.random() < 0.5
                current = update_dpi(current, query, answer, reasoner=reasoner)
                bit = current.mask_of((query.axiom_id,))
                seeds = carry_conflicts(result.conflict_masks, bit, answer)
                result = search(current, pr, 6, reasoner=reasoner, seeds=seeds)
                fresh = reasoner_for(current)

                def minimal(c):
                    return not fresh.is_valid(c) and all(fresh.is_valid(c ^ b) for b in bits_of(c))

                verdicts = [minimal(c) for c, _ in seeds]
                assert all(v for v, (_, known) in zip(verdicts, seeds) if known)
                for v, (_, known) in zip(verdicts, seeds):
                    if not known:
                        checked[v] += 1
                kept = [c for (c, _), v in zip(seeds, verdicts) if v]
                assert result.conflict_masks[: len(kept)] == tuple(kept)
                assert not set(result.conflict_masks) & {c for c, _ in seeds} - set(kept)
    assert checked[True] and checked[False]
