"""Output checks. They run between timed calls, never inside one, and each
returns a list of problems; an empty list means the output passed."""

from __future__ import annotations

import math

import hsdiag
from instances import PROB


def _mask(dpi: hsdiag.Dpi, ids) -> int:
    return sum(1 << dpi.index_of(a) for a in ids)


def _is_minimal_hitting_set(family: list[int], d: int) -> bool:
    if not all(m & d for m in family):
        return False
    bits = [1 << i for i in range(d.bit_length()) if d >> i & 1]
    return all(not all(m & (d & ~b) for m in family) for b in bits)


def check_search(inst, result: hsdiag.SearchResult, ld: int) -> list[str]:
    """One search on an abstract instance: at most ld diagnoses, each a
    minimal hitting set of the conflict family, probabilities not increasing,
    and for RBF-HS the linear peak-node bound."""
    problems = []
    dpi, diags = inst.dpi, result.diagnoses
    if len(diags) > ld:
        problems.append(f"{result.algorithm}: {len(diags)} diagnoses for ld={ld}")
    family = [_mask(dpi, m) for m in dpi.conflict_family]
    if not all(_is_minimal_hitting_set(family, _mask(dpi, d.ids)) for d in diags):
        problems.append(f"{result.algorithm}: diagnosis is not a minimal hitting set")
    if _increasing(diags):
        problems.append(f"{result.algorithm}: probabilities increase along the list")
    bound = (max(len(m) for m in dpi.conflict_family) + 1) * (len(dpi.k_ids) + 1)
    if result.algorithm == hsdiag.RBFHS and result.stats.peak_live_nodes > bound:
        problems.append(f"rbfhs: peak {result.stats.peak_live_nodes} nodes above bound {bound}")
    return problems


def _increasing(diags) -> bool:
    return any(later.pr > earlier.pr * (1 + 1e-9) for earlier, later in zip(diags, diags[1:]))


def same_diagnoses(mode: str, a: list[hsdiag.Diagnosis], b: list[hsdiag.Diagnosis]) -> bool:
    """Prob mode: identical id lists. Card mode: equal cost sequences only,
    because ties between equal-cardinality sets may legitimately reorder the
    ids. Costs are compared with a relative tolerance since the two searches
    sum the same log terms along different paths."""
    if mode == PROB:
        return [d.ids for d in a] == [d.ids for d in b]
    return len(a) == len(b) and all(math.isclose(x.pr, y.pr, rel_tol=1e-9) for x, y in zip(a, b))


def check_sessions(inst, traces: dict[str, hsdiag.SessionTrace]) -> list[str]:
    """Each session ends on its designated actual, and in prob mode the two
    algorithms produce the same diagnosis list at every iteration, so they
    ask the same queries. The first iteration's diagnoses must be minimal
    diagnoses of the instance."""
    problems = []
    for algo, trace in traces.items():
        if trace.final.id_set != inst.actual.id_set:
            problems.append(f"{algo}: session ended on {trace.final}, not {inst.actual}")
        if any(_increasing(it.diagnoses) for it in trace.iterations):
            problems.append(f"{algo}: probabilities increase along a list")
    first = next(iter(traces.values())).iterations[0].diagnoses
    if not all(hsdiag.is_minimal_diagnosis(inst.dpi, d.ids) for d in first):
        problems.append("first session list holds a non-minimal diagnosis")
    if len(traces) == 2:
        a, b = traces.values()
        if len(a.iterations) != len(b.iterations) or not all(
            same_diagnoses(inst.mode, list(x.diagnoses), list(y.diagnoses))
            and (x.query and x.query.axiom_id) == (y.query and y.query.axiom_id)
            for x, y in zip(a.iterations, b.iterations)
        ):
            problems.append("rbfhs and hstree sessions differ")
    return problems
