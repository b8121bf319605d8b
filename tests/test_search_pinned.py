"""Pinned search outputs on two fixed corpora of random abstract instances.

Each corpus file holds, for every instance, mode and algorithm, the
diagnosis id lists in emission order, their probabilities (compared
bitwise), every ``SearchStats`` counter, the stored conflicts and a digest
of the enabled trace. ``search_pinned.json`` (|K| 10 to 12) was recorded
from the search before its node sets became int masks,
``search_pinned_large.json`` (|K| 20 to 24, where HS-Tree's heap holds
hundreds of nodes with many ties in card mode) before nodes became sort-key
lists; any change to node order, tie-break, conflict reuse or trace text
shows up here. Their ``rbfhs`` entries run RBF-HS's paper expansion
(``ordered=False``); the ``rbfhs-ordered`` and, added after them,
``hstree-ordered`` entries run the ordered tree, which is HS-Tree's only
expansion. The ``hstree`` entries were recorded from HS-Tree's paper
expansion, which the package no longer has: they pin the list that the
ordered HS-Tree must still return, the ids exactly and the probabilities up
to the rounding of sums taken along other paths. The ordered entries were
recorded again when both searches began to rank children by the
disjoint-conflict bound: their counters, conflicts and trace digests moved,
their lists did not, except that card-mode RBF-HS lists may order
diagnoses of equal cost differently. The prob-mode ``rbfhs-ordered``
entries were recorded again when RBF-HS began to relax the levels it
re-enters and to hold diagnoses until no open node may beat them: their
counters, conflicts and trace digests moved, and one entry's ``pr`` in the
last bits (a set reached by adding its axioms in another order); their ids
and order did not. Every card-mode, ``rbfhs`` and ``hstree*`` entry stayed
byte for byte. They were recorded once more when RBF-HS dropped its table
of learned costs, widened its margin to 0.9 of a step and capped its held
list at ld - |D|: 25 of the 28 prob-mode ``rbfhs-ordered`` entries moved in
counters and trace digests, some in conflicts, and prob-17 in ``pr`` by at
most 2e-15 relative; ids and order did not, and every other entry stayed
byte for byte. 7 prob-mode ``rbfhs-ordered`` entries (3 small, 4 large)
were recorded again when RBF-HS stopped entering levels whose best F lies
below the last held cost once ld diagnoses are held or in D: they moved in
counters and trace digests only.

Regenerate a corpus (only for a deliberate behaviour change) with
``PYTHONPATH=src python tests/test_search_pinned.py small`` (or ``large``),
which rewrites its file and copies the ``hstree`` entries as they are.
"""

import hashlib
import json
import random
import sys
from functools import partial
from pathlib import Path

import pytest

from hsdiag import FaultProbabilities, cardinality_pr, gen_random_dpi, hs_tree, rbf_hs

HERE = Path(__file__).resolve().parent
CORPORA = {
    "small": (HERE / "search_pinned.json", range(20)),
    "large": (HERE / "search_pinned_large.json", range(20, 28)),
}
SEARCHES = {
    "rbfhs": partial(rbf_hs, ordered=False),
    "hstree": hs_tree,
    "rbfhs-ordered": rbf_hs,
    "hstree-ordered": hs_tree,
}
PAPER_LIST_ONLY = "hstree"  # recorded from a search that cannot run again
MODES = ("prob", "card")
COUNTERS = (
    "peak_live_nodes",
    "nodes_generated",
    "label_calls",
    "conflict_computations",
    "conflict_reuses",
)


def instance(mode: str, seed: int):
    """Small corpus: |K| of 10 to 12, 12 to 15 sampled conflicts of size up
    to 5, ld 12. Large corpus: |K| of 20 to 24, 14 sampled conflicts of size
    up to 4, ld 20."""
    if seed in CORPORA["large"][1]:
        dpi, ld = gen_random_dpi(20 + seed % 5, 14, 4, seed), 20
    else:
        dpi, ld = gen_random_dpi(10 + seed % 3, 12 + seed % 4, 5, seed), 12
    if mode == "card":
        return dpi, cardinality_pr(dpi.k_ids), ld
    rng = random.Random(1000 + seed)
    pr = FaultProbabilities({a: rng.uniform(0.01, 0.3) for a in dpi.k_ids})
    return dpi, pr, ld


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


def cases(seeds) -> list[tuple[str, int, str]]:
    return [(mode, seed, algo) for mode in MODES for seed in seeds for algo in SEARCHES]


CASES = [case for _, seeds in CORPORA.values() for case in cases(seeds)]


def case_id(mode: str, seed: int, algo: str) -> str:
    return f"{mode}-{seed}-{algo}"


@pytest.fixture(scope="module")
def pinned():
    return {k: v for path, _ in CORPORA.values() for k, v in json.loads(path.read_text()).items()}


def test_corpus_covers_every_case(pinned):
    assert sorted(pinned) == sorted(case_id(*c) for c in CASES)


@pytest.mark.parametrize("mode,seed,algo", CASES, ids=[case_id(*c) for c in CASES])
def test_search_matches_pinned(pinned, mode, seed, algo):
    expected = pinned[case_id(mode, seed, algo)]
    got = record(mode, seed, algo)
    assert got["diagnoses"] == expected["diagnoses"]
    if algo == PAPER_LIST_ONLY:
        assert got["pr"] == pytest.approx(expected["pr"], rel=1e-12, abs=0)
        return
    assert got["pr"] == expected["pr"]  # exact: same float arithmetic
    assert got["stats"] == expected["stats"]
    assert got["conflicts"] == expected["conflicts"]
    assert got["trace"] == expected["trace"]


@pytest.mark.parametrize("mode,seed,algo", CASES, ids=[case_id(*c) for c in CASES])
def test_trace_on_and_off_agree(mode, seed, algo):
    # the hstree cases run the search of the hstree-ordered ones, so they
    # check it without debug, as perfbench runs it
    debug = algo != PAPER_LIST_ONLY
    dpi, pr, ld = instance(mode, seed)
    trace = []
    on = SEARCHES[algo](dpi, pr, ld, trace=trace, debug=debug)
    off = SEARCHES[algo](dpi, pr, ld, trace=None, debug=debug)
    assert trace
    assert outcome(on) == outcome(off)


if __name__ == "__main__":
    path, seeds = CORPORA[sys.argv[1]]
    kept = json.loads(path.read_text())
    lines = [
        f"{json.dumps(case_id(*c))}: "
        + json.dumps(kept[case_id(*c)] if c[2] == PAPER_LIST_ONLY else record(*c))
        for c in cases(seeds)
    ]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")
