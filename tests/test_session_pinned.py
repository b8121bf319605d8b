"""Pinned sequential-session outputs.

``session_pinned.json`` holds, for every case and both algorithms, each
session iteration's diagnosis ids, their probabilities (compared bitwise),
the query, the answer and six search counters (the five of
``test_search_pinned`` plus ``solver_calls``), plus the final diagnosis.
Cases: both fixtures in card and prob mode with every diagnosis of a first
HS-Tree list as the actual, and 20 random propositional DPIs
(``conftest.random_propositional_dpi``, up to 10 axioms) in both modes with
one actual drawn from their HS-Tree list. The file was recorded from the
sessions that encoded a fresh reasoner for every iteration's DPI, before one
reasoner began to serve a whole session; a check verdict that differs from a
fresh encoding's changes a query, a list or a counter here. Its counters,
and the order of equal-cost diagnoses in card-mode RBF-HS lists, were
recorded again when both searches began to rank children by the
disjoint-conflict bound; every query and answer stayed. The prob-mode
RBF-HS counters were recorded again when RBF-HS began to relax the levels
it re-enters and to hold diagnoses until no open node may beat them; four
``table1`` prob sessions now list their equal-cost pair in HS-Tree's
order, and every query and answer stayed. The counters of 19 prob-mode
RBF-HS sessions were recorded again when RBF-HS dropped its table of
learned costs and widened its margin to 0.9 of a step; every list, query
and answer stayed. The counters of 83 sessions were recorded again when
conflict extraction began to run QuickXplain over the stored core of the
failing check: 26 of them also moved ``pr`` by less than 1e-12 relative and
17 list equal-cost diagnoses in another order; no list member, query or
answer changed. 8 sessions were recorded again when each measurement
began to strengthen the reasoner's verdict store (a positive answer drops
its axiom from the stored cores, a negative one extends the witnesses whose
model falsifies it): 2 of them moved in counters and 7 in ``pr`` by less
than 1e-12 relative; no list, order, query or answer changed.
``solver_calls`` joined the counters in a recording that changed nothing
else. 96 sessions were recorded again when each search of a session began
to start from the minimal conflicts of the search before it: all 96 moved
in counters (solver calls 349 → 308 under each algorithm), 6 in ``pr`` by
less than 1e-12 relative, and 9 card-mode RBF-HS sessions list equal-cost
diagnoses in another order; no list member, query, answer or final
diagnosis changed, and the abstract (``ex4``) sessions did not move. 96
sessions were recorded again when ``run_session`` began to check the
actual on a reasoner of its own, whose witnesses and cores the searches
no longer read: ``solver_calls`` moved in all 96 (308 → 488 under HS-Tree,
308 → 489 under RBF-HS, summed), ``label_calls`` in 62,
``nodes_generated`` in 60, ``conflict_reuses`` in 59 and
``peak_live_nodes`` in 42, ``conflict_computations`` in none; 18 moved
``pr`` by less than 1e-12 relative, and 11 card-mode and 2 ``table1``
prob-mode RBF-HS sessions list diagnoses of equal cost in another order.
No list member, query, answer or final diagnosis changed, and the ``ex4``
sessions did not move.

Regenerate (only for a deliberate behaviour change) with
``PYTHONPATH=src python tests/test_session_pinned.py > tests/session_pinned.json``.
Before that, ``PYTHONPATH=src python tests/test_session_pinned.py --compare``
prints, rewriting nothing, each session that differs from the file with the
kinds of difference, and how many sessions show each kind.
"""

import json
import math
import random
import sys
from pathlib import Path

import pytest

from conftest import FIXTURES, random_propositional_dpi
from hsdiag import FaultProbabilities, cardinality_pr, hs_tree, load_dpi_file, run_session

PINNED = Path(__file__).resolve().parent / "session_pinned.json"
ALGOS = ("rbfhs", "hstree")
MODES = ("prob", "card")
COUNTERS = (
    "peak_live_nodes",
    "nodes_generated",
    "label_calls",
    "conflict_computations",
    "conflict_reuses",
    "solver_calls",
)
FIXTURE_LD = 6
RANDOM_LD = 8
# The first 20 seeds whose instance has at least three diagnoses in an
# HS-Tree list of RANDOM_LD, so every session asks at least one query.
RANDOM_SEEDS = (0, 6, 8, 13, 16, 27, 29, 38, 40, 44, 49, 68, 71, 73, 75, 80, 82, 92, 110, 111)


def _with_mode(dpi, file_pr, mode):
    return cardinality_pr(dpi.k_ids) if mode == "card" else file_pr


def fixture_cases():
    for name in ("table1", "ex4"):
        dpi, file_pr = load_dpi_file(FIXTURES / f"{name}.dpi")
        for mode in MODES:
            pr = _with_mode(dpi, file_pr.as_cost_adjusted(), mode)
            for i, actual in enumerate(hs_tree(dpi, pr, FIXTURE_LD).diagnoses):
                yield f"{name}-{mode}-{i}", dpi, pr, FIXTURE_LD, actual


def random_cases():
    for seed in RANDOM_SEEDS:
        dpi = random_propositional_dpi(random.Random(seed), max_axioms=10)
        rng = random.Random(1000 + seed)
        file_pr = FaultProbabilities(
            {a: rng.uniform(0.01, 0.3) for a in dpi.k_ids}
        )
        actual = random.Random(2000 + seed).choice(hs_tree(dpi, file_pr, RANDOM_LD).diagnoses)
        for mode in MODES:
            yield f"rand{seed}-{mode}", dpi, _with_mode(dpi, file_pr, mode), RANDOM_LD, actual


CASES = {
    f"{name}-{algo}": (dpi, pr, ld, actual, algo)
    for name, dpi, pr, ld, actual in (*fixture_cases(), *random_cases())
    for algo in ALGOS
}


def record(dpi, pr, ld, actual, algo) -> dict:
    trace = run_session(dpi, pr, ld, actual, algo)
    return {
        "iterations": [
            {
                "diagnoses": [list(d.ids) for d in it.diagnoses],
                "pr": [d.pr for d in it.diagnoses],
                "query": it.query and it.query.axiom_id,
                "answer": it.answer,
                "stats": {name: getattr(it.stats, name) for name in COUNTERS},
            }
            for it in trace.iterations
        ],
        "final": list(trace.final.ids),
    }


# Each kind of difference between a pinned and a live session, gravest first.
KINDS = {
    "final": "final diagnoses changed",
    "query": "queries or answers changed",
    "membership": "lists with other members",
    "pr": "pr beyond 1e-12 relative",
    "order": "lists reordered, same members",
    "pr-bits": "pr within 1e-12 relative",
    "counters": "counters",
}


def differences(old: dict, new: dict) -> set[str]:
    """The kinds of difference between two records of one session; ``pr``
    values are matched by diagnosis, so a reordered list compares them too."""
    kinds = set()
    if old["final"] != new["final"]:
        kinds.add("final")
    if len(old["iterations"]) != len(new["iterations"]):
        kinds.add("query")
    for a, b in zip(old["iterations"], new["iterations"]):
        if (a["query"], a["answer"]) != (b["query"], b["answer"]):
            kinds.add("query")
        if a["stats"] != b["stats"]:
            kinds.add("counters")
        ids_a, ids_b = list(map(tuple, a["diagnoses"])), list(map(tuple, b["diagnoses"]))
        if sorted(ids_a) != sorted(ids_b):
            kinds.add("membership")
            continue
        if ids_a != ids_b:
            kinds.add("order")
        pr_b = dict(zip(ids_b, b["pr"]))
        for ids, p in zip(ids_a, a["pr"]):
            if p != pr_b[ids]:
                kinds.add("pr-bits" if math.isclose(p, pr_b[ids], rel_tol=1e-12) else "pr")
    return kinds


def compare(pinned: dict) -> list[str]:
    """Report lines: one per session that differs from its pinned record,
    naming the kinds of difference, then how many sessions show each kind
    (and how many show nothing but counters)."""
    lines, found = [], []
    for case, args in CASES.items():
        if case not in pinned:
            lines.append(f"{case}: not pinned")
            continue
        kinds = differences(pinned[case], record(*args))
        if kinds:
            found.append(kinds)
            lines.append(f"{case}: " + ", ".join(k for k in KINDS if k in kinds))
    lines.extend(f"{case}: pinned, no longer a case" for case in pinned if case not in CASES)
    lines.append(f"{len(found)} of {len(CASES)} sessions differ from {PINNED.name}")
    lines.append(f"  counters only: {sum(kinds == {'counters'} for kinds in found)}")
    lines.extend(f"  {label}: {sum(kind in kinds for kinds in found)}" for kind, label in KINDS.items())
    return lines


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PINNED.read_text())


def test_corpus_covers_every_case(pinned):
    assert sorted(pinned) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_session_matches_pinned(pinned, case):
    # json keeps floats by repr, so equal lists mean bitwise-equal pr values
    assert record(*CASES[case]) == pinned[case]


def test_compare_names_each_kind_of_difference():
    def session(diagnoses, pr, query="ax1", answer=True, label_calls=3, final=("ax1",)):
        return {
            "iterations": [{"diagnoses": diagnoses, "pr": pr, "query": query, "answer": answer,
                            "stats": {"label_calls": label_calls}}],
            "final": list(final),
        }

    old = session([["ax1"], ["ax2"]], [0.2, 0.2])
    assert differences(old, old) == set()
    assert differences(old, session([["ax1"], ["ax2"]], [0.2, 0.2], label_calls=4)) == {"counters"}
    assert differences(old, session([["ax2"], ["ax1"]], [0.2, 0.2 * (1 + 1e-15)])) == {"order", "pr-bits"}
    assert differences(old, session([["ax1"], ["ax2"]], [0.2, 0.21])) == {"pr"}
    assert differences(old, session([["ax1"], ["ax3"]], [0.2, 0.2])) == {"membership"}
    assert differences(old, session([["ax1"], ["ax2"]], [0.2, 0.2], answer=False)) == {"query"}
    assert differences(old, session([["ax1"], ["ax2"]], [0.2, 0.2], final=("ax2",))) == {"final"}


if __name__ == "__main__":
    if sys.argv[1:] == ["--compare"]:
        print("\n".join(compare(json.loads(PINNED.read_text()))))
    elif sys.argv[1:]:
        sys.exit(f"usage: {sys.argv[0]} [--compare]")
    else:
        lines = [f"{json.dumps(case)}: {json.dumps(record(*args))}" for case, args in CASES.items()]
        print("{\n" + ",\n".join(lines) + "\n}")
