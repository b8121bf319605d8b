"""Pinned search outputs on a fixed corpus of random abstract instances.

``search_pinned.json`` holds, for every instance, mode and algorithm, the
diagnosis id lists in emission order, their probabilities (compared
bitwise), every ``SearchStats`` counter, the stored conflicts and a digest
of the enabled trace. The values were recorded from the search before its
node sets became int masks; any change to node order, tie-break, conflict
reuse or trace text shows up here.

Regenerate (only for a deliberate behaviour change) with
``PYTHONPATH=src python tests/test_search_pinned.py > tests/search_pinned.json``.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from hsdiag import FaultProbabilities, cardinality_pr, gen_random_dpi, hs_tree, rbf_hs

PINNED = Path(__file__).resolve().parent / "search_pinned.json"
SEARCHES = {"rbfhs": rbf_hs, "hstree": hs_tree}
MODES = ("prob", "card")
SEEDS = range(20)
COUNTERS = (
    "peak_live_nodes",
    "nodes_generated",
    "label_calls",
    "conflict_computations",
    "conflict_reuses",
)


def instance(mode: str, seed: int):
    """|K| of 10 to 12, 12 to 15 sampled conflicts of size up to 5."""
    dpi = gen_random_dpi(10 + seed % 3, 12 + seed % 4, 5, seed)
    if mode == "card":
        return dpi, cardinality_pr(dpi.k_ids), 12
    rng = random.Random(1000 + seed)
    pr = FaultProbabilities({a: rng.uniform(0.01, 0.3) for a in dpi.k_ids}, cost_adjusted=True)
    return dpi, pr, 12


def outcome(result) -> dict:
    return {
        "diagnoses": [list(d.ids) for d in result.diagnoses],
        "pr": [d.pr for d in result.diagnoses],
        "stats": {name: getattr(result.stats, name) for name in COUNTERS},
        "conflicts": [list(c) for c in result.conflicts],
    }


def trace_digest(trace) -> str:
    return hashlib.sha256("\n".join(e.line() for e in trace).encode()).hexdigest()


def record(mode: str, seed: int, algo: str) -> dict:
    dpi, pr, ld = instance(mode, seed)
    trace = []
    SEARCHES[algo](dpi, pr, ld, trace=trace)
    return dict(outcome(SEARCHES[algo](dpi, pr, ld)), trace=trace_digest(trace))


CASES = [(mode, seed, algo) for mode in MODES for seed in SEEDS for algo in SEARCHES]


def case_id(mode: str, seed: int, algo: str) -> str:
    return f"{mode}-{seed}-{algo}"


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PINNED.read_text())


@pytest.mark.parametrize("mode,seed,algo", CASES, ids=[case_id(*c) for c in CASES])
def test_search_matches_pinned(pinned, mode, seed, algo):
    expected = pinned[case_id(mode, seed, algo)]
    got = record(mode, seed, algo)
    assert got["diagnoses"] == expected["diagnoses"]
    assert got["pr"] == expected["pr"]  # exact: same float arithmetic
    assert got["stats"] == expected["stats"]
    assert got["conflicts"] == expected["conflicts"]
    assert got["trace"] == expected["trace"]


@pytest.mark.parametrize("mode,seed,algo", CASES, ids=[case_id(*c) for c in CASES])
def test_trace_on_and_off_agree(mode, seed, algo):
    dpi, pr, ld = instance(mode, seed)
    trace = []
    on = SEARCHES[algo](dpi, pr, ld, trace=trace, debug=True)
    off = SEARCHES[algo](dpi, pr, ld, trace=None, debug=True)
    assert trace
    assert outcome(on) == outcome(off)


if __name__ == "__main__":
    lines = [f"{json.dumps(case_id(*c))}: {json.dumps(record(*c))}" for c in CASES]
    print("{\n" + ",\n".join(lines) + "\n}")
