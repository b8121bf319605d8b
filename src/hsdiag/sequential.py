"""Sequential diagnosis: alternate diagnosis search and measurement until a
single candidate remains.

Queries are restricted to single axioms of K. A positive answer means the
axiom's sentence holds (it moves to the positive measurements), a negative
answer that it must not hold (negative measurements). On the abstract
backend the same update is expressed directly on the conflict family: a
correct axiom is deleted from every member, a faulty one becomes a
singleton conflict; both transforms are antichain-reduced. On the reasoner
backend a session applies the same transforms to the minimal conflicts its
last search stored (``carry_conflicts``), and the next search starts from
those that are still minimal, so it computes only the conflicts it lacks.
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
    log_prs,
    normalized_logs,
    reasoner_for,
)
from .logic import Formula, entails
from .reasoner import Reasoner, minimal_masks
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


def make_query(dpi: Dpi, axiom_id: str) -> Query:
    dpi.index_of(axiom_id)  # validates the id
    sentence = dpi.formula_of(axiom_id) if dpi.kind != ABSTRACT else None
    return Query(axiom_id, sentence)


def partition(dpi: Dpi, diagnoses: Sequence[Diagnosis], query: Query) -> QueryPartition:
    """Split diagnoses by the predicted measurement outcome.

    A diagnosis whose remaining system entails the queried sentence is
    confirmed by a positive answer (dplus); one that becomes invalid when
    the sentence is added is refuted by it (dminus); the rest are unaffected
    (dzero). This is the logical reference for any list of diagnoses:
    entailment runs ``logic.entails`` on B, P and the kept sentences, and
    validity ``is_valid_set``. For minimal diagnoses it equals the
    membership split of ``ent_select``.
    """
    if not diagnoses:
        raise ValueError("partition needs at least one diagnosis")
    reasoner = reasoner_for(dpi)
    known = [*dpi.background, *dpi.positive]
    full, bit = dpi.full_mask, dpi.mask_of((query.axiom_id,))
    dplus, dminus, dzero = [], [], []
    for diag in diagnoses:
        rest = full & ~dpi.mask_of(diag.ids)
        if dpi.kind == ABSTRACT:
            entailed = bool(rest & bit) or query.axiom_id in dpi.positive_ids
        else:
            kept = [dpi.formula_of(a) for a in dpi.ids_of(rest)]
            entailed = entails(known + kept, query.sentence)
        if entailed:
            dplus.append(diag)
        elif not is_valid_set(dpi, rest | bit, reasoner):
            dminus.append(diag)
        else:
            dzero.append(diag)
    return QueryPartition(tuple(dplus), tuple(dminus), tuple(dzero))


def ent_select(dpi: Dpi, diagnoses: Sequence[Diagnosis], pr: FaultProbabilities) -> Query:
    """Entropy-style measurement selection.

    Scores each axiom held by some but not all diagnoses by how close the
    probability mass of the diagnoses without it comes to one half, i.e. by
    expected information gain. Ties fall to the first axiom in K order;
    scores are quantized so that mathematically equal splits tie exactly
    despite float noise.

    For minimal diagnoses this membership split is ``partition``'s logical
    one. A diagnosis D without axiom a keeps a, so K∖D entails a's sentence
    (dplus). If a is in D, K∖(D∖{a}) is invalid since D is minimal, and K∖D
    cannot entail a's sentence, as adding an entailed sentence leaves
    validity as it is (dminus). No diagnosis is unaffected. An axiom that
    every diagnosis, or none, holds splits nothing and is skipped; on the
    abstract backend that covers the axioms answered positive
    (``positive_ids``), which lie in no diagnosis, or in every one after
    contradicting answers.
    """
    if len(diagnoses) < 2:
        raise ValueError("measurement selection needs at least two diagnoses")
    masks = [dpi.mask_of(d.ids) for d in diagnoses]
    weights = normalized_logs(log_prs(dpi, pr, masks))
    best: float | None = None
    for axiom, bit in dpi.bits.items():  # in K order: the first of equal scores wins
        # the weights of the diagnoses a positive answer keeps, in list order
        kept = [w for w, mask in zip(weights, masks) if not mask & bit]
        if not kept or len(kept) == len(masks):
            continue
        score = round(abs(sum(kept) - 0.5), 9)
        if best is None or score < best:
            best, chosen = score, axiom
    if best is None:
        raise ValueError("no admissible single-axiom query discriminates the diagnoses")
    return make_query(dpi, chosen)


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
        if answer:
            return replace(dpi, positive=dpi.positive | {query.sentence})
        return replace(dpi, negative=dpi.negative | {query.sentence})
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


def carry_conflicts(conflicts: Sequence[int], bit: int, answer: bool) -> list[tuple[int, bool]]:
    """A search's minimal conflicts (K-masks), made the seeds of the search
    after an answer on the axiom a of ``bit``: ``(mask, known minimal)``
    pairs for ``rbf_hs``/``hs_tree``, on the reasoner backend.

    A positive answer turns each conflict C into C ∖ {a}; a negative one
    puts {a} first, then every C. Empty masks, duplicates and proper
    supersets go, in first-seen order. C ∖ {a} for a in C is minimal: each
    S ⊊ C ∖ {a} holds, with the new P, the sentences of S ∪ {a} ⊊ C, which
    was valid. So is {a} once the empty set is valid. Any other C is still
    a conflict, as a measurement only shrinks the valid sets, but it may
    not be minimal, so the search checks it.
    """
    if answer:
        known = {c & ~bit for c in conflicts if c & bit}
        masks = [c & ~bit for c in conflicts]
    else:
        known = {bit}
        masks = [bit, *conflicts]
    return [(c, c in known) for c in minimal_masks([c for c in masks if c])]


def check_session_ld(ld: int) -> None:
    """A session ends when its search returns one diagnosis, as ld 1 always does."""
    if ld < 2:
        raise ValueError(f"sessions need ld of at least 2 to detect isolation: {ld}")


def run_session(
    dpi: Dpi,
    pr: FaultProbabilities,
    ld: int,
    actual: frozenset[str] | Sequence[str] | Diagnosis,
    algo: str = RBFHS,
    *,
    answer_fn: Callable[[Query], bool] | None = None,
    check_actual: bool = True,
    debug: bool = False,
) -> SessionTrace:
    """Iterate search and measurement until one diagnosis remains.

    The measurement oracle answers from the designated actual diagnosis
    unless answer_fn overrides it (interactive mode). Search statistics of
    every iteration accumulate into the returned trace. The session encodes
    its DPI once for its searches: one reasoner serves every search and
    absorbs each answer in ``update_dpi``. ``check_actual`` checks the actual
    on a reasoner of its own, which leaves no witness or core behind for
    the searches, so a session's counters are its searches' alone. On the
    reasoner backend every search after the first starts from the minimal
    conflicts of the search before it, carried over the answer by
    :func:`carry_conflicts`; the abstract backend's conflict family carries
    its conflicts itself. The lists, queries and answers are those of
    searches that start from an empty store, except that card-mode RBF-HS
    may list diagnoses of equal cost in another order. ``debug`` runs every
    search with its debug checks.

    Whatever the answers, no axiom is queried twice, so a session ends
    within |K| queries; only a DPI without any diagnosis raises
    RuntimeError, at its first search.
    """
    check_session_ld(ld)
    if algo not in SEARCHES:
        raise ValueError(f"unknown algorithm: {algo!r}")
    search = SEARCHES[algo]
    actual_ids = actual.id_set if isinstance(actual, Diagnosis) else frozenset(actual)
    if check_actual and not is_minimal_diagnosis(dpi, actual_ids):
        raise ValueError(f"designated actual {sorted(actual_ids)} is not a minimal diagnosis")
    iterations: list[SessionIteration] = []
    current, seeds, reasoner = dpi, [], reasoner_for(dpi)
    while True:
        result: SearchResult = search(current, pr, ld, reasoner=reasoner, seeds=seeds, debug=debug)
        found = tuple(result.diagnoses)
        if not found:
            raise RuntimeError("every diagnosis candidate was eliminated")
        if len(found) == 1:
            iterations.append(SessionIteration(found, None, None, result.stats))
            return SessionTrace(tuple(iterations), found[0])
        query = ent_select(current, found, pr)
        answer = answer_fn(query) if answer_fn else oracle_answer(query, actual_ids)
        iterations.append(SessionIteration(found, query, answer, result.stats))
        current = update_dpi(current, query, answer, reasoner=reasoner)
        if reasoner is not None:  # the abstract family carries its conflicts itself
            seeds = carry_conflicts(result.conflict_masks, current.bits[query.axiom_id], answer)
