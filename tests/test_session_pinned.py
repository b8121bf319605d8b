"""Pinned sequential-session outputs.

``session_pinned.json`` holds, for every case and both algorithms, each
session iteration's diagnosis ids, their probabilities (compared bitwise),
the query, the answer and the five search counters, plus the final
diagnosis. Cases: both fixtures in card and prob mode with every diagnosis
of a first HS-Tree list as the actual, and 20 random propositional DPIs
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
and answer stayed.

Regenerate (only for a deliberate behaviour change) with
``PYTHONPATH=src python tests/test_session_pinned.py > tests/session_pinned.json``.
"""

import json
import random
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


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PINNED.read_text())


def test_corpus_covers_every_case(pinned):
    assert sorted(pinned) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_session_matches_pinned(pinned, case):
    # json keeps floats by repr, so equal lists mean bitwise-equal pr values
    assert record(*CASES[case]) == pinned[case]


if __name__ == "__main__":
    lines = [f"{json.dumps(case)}: {json.dumps(record(*args))}" for case, args in CASES.items()]
    print("{\n" + ",\n".join(lines) + "\n}")
