"""Sequential diagnosis: alternate diagnosis search and measurement until a
single candidate remains.

Queries are restricted to single axioms of K. A positive answer means the
axiom's sentence holds (it moves to the positive measurements), a negative
answer that it must not hold (negative measurements). On the abstract
backend the same update is expressed directly on the conflict family: a
correct axiom is deleted from every member, a faulty one becomes a
singleton conflict; both transforms are antichain-reduced.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

from .dpi import (
    ABSTRACT,
    Diagnosis,
    Dpi,
    FaultProbabilities,
    antichain_reduce,
    is_minimal_diagnosis,
    is_valid_set,
    log_pr_of,
    normalized_logs,
    reasoner_for,
)
from .logic import Formula
from .reasoner import Reasoner
from .search import RBFHS, SEARCHES, SearchResult, SearchStats


@dataclass(frozen=True)
class Query:
    axiom_id: str
    sentence: Formula | None  # None on the abstract backend


@dataclass(frozen=True)
class QueryPartition:
    dplus: tuple[Diagnosis, ...]
    dminus: tuple[Diagnosis, ...]
    dzero: tuple[Diagnosis, ...]


@dataclass(frozen=True)
class SessionIteration:
    diagnoses: tuple[Diagnosis, ...]
    query: Query | None
    answer: bool | None
    stats: SearchStats


@dataclass(frozen=True)
class SessionTrace:
    iterations: tuple[SessionIteration, ...]
    final: Diagnosis

    @property
    def query_count(self) -> int:
        return sum(1 for it in self.iterations if it.query is not None)


class NonDiscriminableError(RuntimeError):
    """No admissible single-axiom query splits the remaining diagnoses.

    Cannot occur for lists of minimal diagnoses (re-adding a contained
    axiom always refutes, a missing axiom is always entailed by
    membership), but interactive answers can drive a session into it.
    Carries the iterations completed so far.
    """

    def __init__(self, message: str, iterations: tuple[SessionIteration, ...]):
        super().__init__(message)
        self.iterations = iterations


def make_query(dpi: Dpi, axiom_id: str) -> Query:
    dpi.index_of(axiom_id)  # validates the id
    sentence = dpi.formula_of(axiom_id) if dpi.kind != ABSTRACT else None
    return Query(axiom_id, sentence)


def partition(
    dpi: Dpi,
    diagnoses: Sequence[Diagnosis],
    masks: Sequence[int],
    query: Query,
    reasoner: Reasoner | None = None,
) -> QueryPartition:
    """Split diagnoses by the predicted measurement outcome.

    A diagnosis whose remaining system entails the queried sentence is
    confirmed by a positive answer (dplus); one that becomes invalid when
    the sentence is added is refuted by it (dminus); the rest are unaffected
    (dzero). ``masks`` are the diagnoses' K-masks, in the same order
    (``dpi.mask_of(d.ids)``), which a caller splitting the same diagnoses
    by many queries computes once. On the reasoner backend the checks run
    on ``reasoner`` (the DPI's, built here when not passed in).
    """
    if not diagnoses:
        raise ValueError("partition needs at least one diagnosis")
    reasoner = reasoner or reasoner_for(dpi)
    full, bit = dpi.full_mask, dpi.mask_of((query.axiom_id,))
    dplus, dminus, dzero = [], [], []
    for diag, mask in zip(diagnoses, masks):
        rest = full & ~mask
        if dpi.kind == ABSTRACT:
            entailed = bool(rest & bit) or query.axiom_id in dpi.positive_ids
        else:
            entailed = reasoner.entails(rest, query.axiom_id)
        if entailed:
            dplus.append(diag)
        elif not is_valid_set(dpi, rest | bit, reasoner):
            dminus.append(diag)
        else:
            dzero.append(diag)
    return QueryPartition(tuple(dplus), tuple(dminus), tuple(dzero))


def ent_select(
    dpi: Dpi,
    diagnoses: Sequence[Diagnosis],
    pr: FaultProbabilities,
    *,
    reasoner: Reasoner | None = None,
) -> Query:
    """Entropy-style measurement selection.

    Scores each candidate axiom by how close the probability mass of the
    predicted-positive diagnoses (plus half the unaffected mass) comes to
    one half, i.e. by expected information gain. Ties fall to the smaller
    unaffected cell, then the lowest axiom id; scores are quantized so that
    mathematically equal splits tie exactly despite float noise. Only
    admissible queries (both dplus and dminus nonempty) qualify. On the
    reasoner backend every partition runs on ``reasoner`` (the DPI's, built
    here when not passed in); the diagnoses' masks are computed once for
    all partitions.
    """
    if len(diagnoses) < 2:
        raise ValueError("measurement selection needs at least two diagnoses")
    weights = normalized_logs([log_pr_of(pr, dpi.k_ids, d.ids) for d in diagnoses])
    weight_of = {d: w for d, w in zip(diagnoses, weights)}
    common = set.intersection(*(set(d.ids) for d in diagnoses))
    anywhere = set.union(*(set(d.ids) for d in diagnoses))
    best: tuple[float, int, int] | None = None
    best_query: Query | None = None
    reasoner = reasoner or reasoner_for(dpi)
    masks = [dpi.mask_of(d.ids) for d in diagnoses]
    for idx, axiom in enumerate(dpi.k_ids):
        if axiom not in anywhere or axiom in common:
            continue
        query = make_query(dpi, axiom)
        cells = partition(dpi, diagnoses, masks, query, reasoner)
        if not cells.dplus or not cells.dminus:
            continue
        mass = sum(weight_of[d] for d in cells.dplus) + 0.5 * sum(
            weight_of[d] for d in cells.dzero
        )
        score = (round(abs(mass - 0.5), 9), len(cells.dzero), idx)
        if best is None or score < best:
            best = score
            best_query = query
    if best_query is None:
        raise ValueError("no admissible single-axiom query discriminates the diagnoses")
    return best_query


def oracle_answer(query: Query, actual: frozenset[str] | Diagnosis) -> bool:
    """Simulated oracle: positive iff the queried axiom is not actually faulty."""
    faulty = actual.id_set if isinstance(actual, Diagnosis) else frozenset(actual)
    return query.axiom_id not in faulty


def update_dpi(
    dpi: Dpi, query: Query, answer: bool, *, reasoner: Reasoner | None = None
) -> Dpi:
    """Fold a measurement outcome into a fresh DPI.

    On the reasoner backend, ``reasoner`` (the given DPI's) absorbs the same
    measurement, so it then answers every check as the returned DPI's own
    encoding would.
    """
    if dpi.kind != ABSTRACT:
        if reasoner is not None:
            reasoner.add_measurement(query.axiom_id, answer)
        return dpi.with_measurement(query.sentence, answer)
    axiom = query.axiom_id
    if answer:
        family = antichain_reduce(
            tuple(e for e in member if e != axiom) for member in dpi.conflict_family
        )
        return replace(
            dpi, conflict_family=family, positive_ids=dpi.positive_ids | {axiom}
        )
    family = antichain_reduce(list(dpi.conflict_family) + [(axiom,)])
    return replace(dpi, conflict_family=family)


def run_session(
    dpi: Dpi,
    pr: FaultProbabilities,
    ld: int,
    actual: frozenset[str] | Sequence[str] | Diagnosis,
    algo: str = RBFHS,
    *,
    answer_fn: Callable[[Query], bool] | None = None,
    check_actual: bool = True,
) -> SessionTrace:
    """Iterate search and measurement until one diagnosis remains.

    The measurement oracle answers from the designated actual diagnosis
    unless answer_fn overrides it (interactive mode). Search statistics of
    every iteration accumulate into the returned trace. The session encodes
    its DPI once: one reasoner serves the actual's check, every search and
    every measurement selection, and absorbs each answer in ``update_dpi``.
    """
    if ld < 2:
        raise ValueError("sessions need ld of at least 2 to detect isolation")
    if algo not in SEARCHES:
        raise ValueError(f"unknown algorithm: {algo!r}")
    search = SEARCHES[algo]
    actual_ids = actual.id_set if isinstance(actual, Diagnosis) else frozenset(actual)
    reasoner = reasoner_for(dpi)
    if check_actual and not is_minimal_diagnosis(dpi, actual_ids, reasoner):
        raise ValueError(f"designated actual {sorted(actual_ids)} is not a minimal diagnosis")
    iterations: list[SessionIteration] = []
    current = dpi
    while True:
        result: SearchResult = search(current, pr, ld, reasoner=reasoner)
        found = tuple(result.diagnoses)
        if not found:
            raise RuntimeError("every diagnosis candidate was eliminated")
        if len(found) == 1:
            iterations.append(SessionIteration(found, None, None, result.stats))
            return SessionTrace(tuple(iterations), found[0])
        try:
            query = ent_select(current, found, pr, reasoner=reasoner)
        except ValueError as exc:
            iterations.append(SessionIteration(found, None, None, result.stats))
            raise NonDiscriminableError(str(exc), tuple(iterations)) from exc
        answer = answer_fn(query) if answer_fn else oracle_answer(query, actual_ids)
        iterations.append(SessionIteration(found, query, answer, result.stats))
        current = update_dpi(current, query, answer, reasoner=reasoner)
