"""Diagnosis searches over the hitting-set tree.

``rbf_hs`` enumerates the ld most probable minimal diagnoses in best-first
order inside linear memory: it explores the best child depth-first until
the best cost in the current subtree falls below the best known alternative
(``bound``), then backs the learned cost up and forgets the subtree.
``hs_tree`` is the classic breadth-style best-first baseline that keeps the
expanded tree and an open queue in memory. Both share one labeling routine,
one conflict store and one instrumentation scheme so their node counts and
runtimes are directly comparable.

Costs are node probabilities kept in log scale; the minus-infinity float is
a pure sentinel (discarded subtree / exhausted node) and is never produced
by cost arithmetic. Child costs derive incrementally from the parent, so
nodes with equal probability compare exactly equal and the deterministic
tie-break (smaller cardinality, then smaller id sequence) decides.

Node, conflict and diagnosis sets are the DPI's K-masks
(:meth:`~hsdiag.dpi.Dpi.mask_of`): the first axiom in K order is the
highest bit. Between two sets of equal cardinality the larger mask is the
one whose K-ordered id sequence is smaller, which makes
``(-F, cardinality, -mask)`` the full sort key. Subset and disjointness
tests are one ``&`` each, and conflict extraction takes the node's mask;
id tuples are built only for recorded diagnoses and trace events, and
trace text only when a trace list is passed.

A node is the list ``[-F, card, -mask, f, mask]``: backed-up log cost F
(only ever decreases), cardinality, node set, and static log cost f. Its
first three entries are the sort key, so ``list.sort``, ``insort`` and
``heapq`` compare nodes natively with no key function. Sibling masks are
unique and so are the masks in HS-Tree's queue, which means a comparison
never reaches the fourth entry. Backing up or inheriting a cost writes
entry 0. The RBF-HS dummy sibling is ``[inf, 0, 0, -inf, None]``: F is the
minus-infinity sentinel, so it sorts after every sibling of finite cost.
"""

from __future__ import annotations

import heapq
import math
import time
from bisect import insort
from dataclasses import dataclass

from .conflict import EmptyConflict, MinimalConflict, NoConflict, find_min_conflict
from .dpi import Diagnosis, Dpi, FaultProbabilities, ValidityChecker, reasoner_for
from .reasoner import Reasoner

INF = float("inf")
NEG_INF = float("-inf")

RBFHS = "rbfhs"
HSTREE = "hstree"

_CLOSED = "closed"
_VALID = "valid"


@dataclass
class SearchStats:
    peak_live_nodes: int = 0
    nodes_generated: int = 0
    label_calls: int = 0
    conflict_computations: int = 0
    conflict_reuses: int = 0
    solver_calls: int = 0
    wall_time: float = 0.0


@dataclass(frozen=True)
class TraceEvent:
    kind: str  # LABEL | EXPAND | BACKTRACK | INHERIT | DIAG
    ids: tuple[str, ...]
    detail: str = ""

    def line(self) -> str:
        return f"{self.kind} [{','.join(self.ids)}] {self.detail}".rstrip()


@dataclass
class SearchResult:
    algorithm: str
    diagnoses: list[Diagnosis]
    stats: SearchStats
    conflicts: tuple[tuple[str, ...], ...]

    def diagnosis_sets(self) -> list[frozenset[str]]:
        return [d.id_set for d in self.diagnoses]


class _SearchCore:
    """State shared by one search run: solution list D, conflict store C,
    cost model, counters and optional tracing."""

    def __init__(
        self,
        dpi: Dpi,
        pr: FaultProbabilities,
        ld: int | None,
        trace: list[TraceEvent] | None,
        debug: bool,
        reasoner: Reasoner | None,
    ):
        if not pr.cost_adjusted:
            raise ValueError("search requires cost-adjusted probabilities (all below 0.5)")
        if ld is not None and ld < 1:
            raise ValueError(f"ld must be at least 1: {ld}")
        self.dpi = dpi
        self.pr = pr
        self.ld = ld
        self.trace = trace
        self.debug = debug
        if reasoner is None:  # before the caller's timer starts
            reasoner = reasoner_for(dpi)
        self.reasoner = reasoner
        self._solver_calls_before = reasoner.solver_calls if reasoner else 0
        self.checker = ValidityChecker(dpi, reasoner)
        self.stats = SearchStats()
        self.diagnoses: list[Diagnosis] = []
        self.diag_masks: list[int] = []  # parallel to diagnoses
        self.conflict_list: list[tuple[str, ...]] = []
        self.conflict_masks: list[int] = []  # parallel to conflict_list
        self.aborted = False
        self._live = 0
        # RBF-HS never holds two set-equal nodes at once; HS-Tree may create
        # a duplicate child briefly before its queue check discards it.
        self.unique_live = True
        self._live_masks: set[int] = set()
        # Per-axiom (delta, bit): a child's cost extends the parent sum by one
        # log term, which keeps equal-probability nodes bitwise equal, and its
        # mask adds the axiom's K bit.
        self._step = {
            a: (math.log(pr[a]) - math.log(1.0 - pr[a]), dpi.mask_of((a,))) for a in dpi.k_ids
        }
        self.f_empty = 0.0
        for a in dpi.k_ids:
            self.f_empty += math.log(1.0 - pr[a])

    # -- instrumentation ---------------------------------------------------

    def make_root(self) -> list:
        root = [-self.f_empty, 0, 0, self.f_empty, 0]
        self._created([root])
        return root

    def make_dummy(self) -> list:
        dummy = [INF, 0, 0, NEG_INF, None]
        self._created([dummy])
        return dummy

    def _created(self, nodes: list[list]) -> None:
        # The live count only rises inside one batch, so one peak check per
        # batch sees the same peak as one check per node.
        stats = self.stats
        stats.nodes_generated += len(nodes)
        self._live += len(nodes)
        if self._live > stats.peak_live_nodes:
            stats.peak_live_nodes = self._live
        if self.debug and self.unique_live:
            for node in nodes:
                mask = node[4]
                if mask is not None:  # the dummy is not a node set
                    assert mask not in self._live_masks, f"duplicate live node {self.dpi.ids_of(mask)}"
                    self._live_masks.add(mask)

    def discard(self, nodes: list[list]) -> None:
        self._live -= len(nodes)
        if self.debug and self.unique_live:
            for node in nodes:
                self._live_masks.discard(node[4])

    def assert_drained(self) -> None:
        if self.debug:
            assert self._live == 0, f"{self._live} nodes leaked"

    def linear(self, log_cost: float) -> float:
        return 0.0 if log_cost == NEG_INF else math.exp(log_cost)

    def emit(self, kind: str, ids: tuple[str, ...], detail: str = "") -> None:
        """Append a trace event; callers check ``self.trace is not None``
        first so no detail text is formatted when tracing is off."""
        self.trace.append(TraceEvent(kind, ids, detail))

    # -- shared Reiter-style labeling ---------------------------------------

    def add_conflict(self, ids: tuple[str, ...]) -> None:
        self.conflict_list.append(ids)
        self.conflict_masks.append(self.dpi.mask_of(ids))

    def label(self, node: list):
        """Classify a node: closed, valid, or a minimal conflict to expand.

        Cheapest test first: non-minimality against the found diagnoses,
        then reuse of a stored conflict, and only then a fresh conflict
        computation on the instance without the node's axioms.
        """
        self.stats.label_calls += 1
        mask = node[4]
        for i, d in enumerate(self.diag_masks):
            if d & mask == d:
                if self.trace is not None:
                    closer = ",".join(self.diagnoses[i].ids)
                    self._emit_label(node, f"closed superset-of={{{closer}}}")
                return _CLOSED
        for c, stored in zip(self.conflict_masks, self.conflict_list):
            if not c & mask:
                self.stats.conflict_reuses += 1
                if self.trace is not None:
                    self._emit_label(node, f"conflict-reuse {{{','.join(stored)}}}")
                return stored
        outcome = find_min_conflict(self.dpi, exclude=mask, checker=self.checker)
        self.stats.conflict_computations += 1
        if isinstance(outcome, NoConflict):
            if self.trace is not None:
                self._emit_label(node, "valid")
            return _VALID
        if isinstance(outcome, MinimalConflict):
            self.add_conflict(outcome.ids)
            if self.trace is not None:
                self._emit_label(node, f"conflict-new {{{','.join(outcome.ids)}}}")
            return outcome.ids
        raise RuntimeError("empty conflict inside the search tree")  # handled up front

    def _emit_label(self, node: list, verdict: str) -> None:
        self.emit("LABEL", self.dpi.ids_of(node[4]), f"{verdict} f={self.linear(node[3]):.9g}")

    def expand(self, node: list, conflict: tuple[str, ...]) -> list[list]:
        """One child per conflict element, in the conflict's stored order."""
        f, card, mask = node[3], node[1] + 1, node[4]
        children = []
        for delta, bit in map(self._step.__getitem__, conflict):
            cf, cmask = f + delta, mask | bit
            children.append([-cf, card, -cmask, cf, cmask])
        self._created(children)
        if self.trace is not None:
            costs = ",".join(f"{self.linear(c[3]):.9g}" for c in children)
            detail = f"conflict={{{','.join(conflict)}}} f=[{costs}]"
            self.emit("EXPAND", self.dpi.ids_of(mask), detail)
        return children

    def record_diagnosis(self, node: list) -> None:
        ids = self.dpi.ids_of(node[4])
        self.diagnoses.append(Diagnosis(ids, self.linear(node[3])))
        self.diag_masks.append(node[4])
        if self.trace is not None:
            self.emit("DIAG", ids, f"pr={self.linear(node[3]):.9g}")
        if self.ld is not None and len(self.diagnoses) >= self.ld:
            self.aborted = True  # exit procedure: unwind without further work

    def result(self, algorithm: str) -> SearchResult:
        if self.reasoner is not None:
            self.stats.solver_calls = self.reasoner.solver_calls - self._solver_calls_before
        return SearchResult(algorithm, self.diagnoses, self.stats, tuple(self.conflict_list))


def _start(core: _SearchCore):
    """Trivial cases shared by both algorithms; returns the seeded first
    conflict or None when the search is already decided."""
    outcome = find_min_conflict(core.dpi, checker=core.checker)
    core.stats.conflict_computations += 1
    if isinstance(outcome, EmptyConflict):
        return None
    if isinstance(outcome, NoConflict):
        core.diagnoses.append(Diagnosis((), core.linear(core.f_empty)))
        core.diag_masks.append(0)
        return None
    core.add_conflict(outcome.ids)
    return outcome.ids


def rbf_hs(
    dpi: Dpi,
    pr: FaultProbabilities,
    ld: int | None,
    *,
    trace: list[TraceEvent] | None = None,
    debug: bool = False,
    reasoner: Reasoner | None = None,
) -> SearchResult:
    """Recursive best-first hitting-set search.

    Returns up to ld minimal diagnoses in non-increasing probability order.
    Peak live nodes stay within (max conflict size + 1) * (|K| + 1): one
    child list per recursion level, plus the root. On the reasoner backend,
    pass the DPI's ``reasoner`` to share its encoding with other checks;
    else the DPI is encoded before the timer starts, so ``wall_time`` never
    includes encoding.
    """
    core = _SearchCore(dpi, pr, ld, trace, debug, reasoner)
    started = time.perf_counter()
    if _start(core) is not None:
        root = core.make_root()
        _rbf_rec(core, root, root[3], NEG_INF, 0)
        core.discard([root])
    core.stats.wall_time = time.perf_counter() - started
    core.assert_drained()
    return core.result(RBFHS)


def _rbf_rec(core: _SearchCore, node: list, f_backed: float, bound: float, depth: int) -> float:
    label = core.label(node)
    if label is _CLOSED:
        return NEG_INF
    if label is _VALID:
        core.record_diagnosis(node)
        return NEG_INF
    children = core.expand(node, label)
    if node[3] > f_backed:  # node was expanded before; pass learned costs down
        for child in children:
            if child[3] > f_backed:
                child[0] = -f_backed
                if core.trace is not None:
                    core.emit("INHERIT", core.dpi.ids_of(child[4]), f"F={core.linear(f_backed):.9g}")
    if len(children) == 1:
        children.append(core.make_dummy())
    children.sort()
    best, runner_up = children[0], children[1]
    # F >= bound and F above the sentinel, on negated costs
    while best[0] <= -bound and best[0] != INF:
        new_f = _rbf_rec(core, best, -best[0], max(bound, -runner_up[0]), depth + 1)
        if core.aborted:
            core.discard(children)
            return NEG_INF
        best[0] = -new_f
        del children[0]
        insort(children, best)
        best, runner_up = children[0], children[1]
    subtree_best = -best[0]
    core.discard(children)
    if depth > 0 and core.trace is not None:
        core.emit(
            "BACKTRACK",
            core.dpi.ids_of(node[4]),
            f"F={core.linear(subtree_best):.9g} bound={core.linear(bound):.9g}",
        )
    return subtree_best


def hs_tree(
    dpi: Dpi,
    pr: FaultProbabilities,
    ld: int | None,
    *,
    trace: list[TraceEvent] | None = None,
    debug: bool = False,
    reasoner: Reasoner | None = None,
) -> SearchResult:
    """Reiter-style best-first hitting-set tree.

    Open nodes sit in a binary heap ordered like the RBF-HS sort; labeling
    and the conflict store are shared with rbf_hs, the only additions being
    the duplicate check against queued nodes and full tree retention
    (expanded inner nodes stay in memory until the search ends, which is what
    the peak-node metric measures). ``reasoner`` is shared as in rbf_hs.
    """
    core = _SearchCore(dpi, pr, ld, trace, debug, reasoner)
    core.unique_live = False
    started = time.perf_counter()
    if _start(core) is not None:
        root = core.make_root()
        # Queued masks are unique (set-equal children are dropped below), so
        # heap comparisons never tie on the sort key and pops follow the full
        # sort order.
        queue = [root]
        queued_masks = {0}
        retained: list[list] = []
        while queue:
            node = heapq.heappop(queue)
            queued_masks.discard(node[4])
            label = core.label(node)
            if label is _CLOSED:
                core.discard([node])
                continue
            if label is _VALID:
                core.record_diagnosis(node)
                core.discard([node])
                if core.aborted:
                    break
                continue
            children = core.expand(node, label)
            retained.append(node)
            duplicates = []
            for child in children:
                if child[4] in queued_masks:
                    duplicates.append(child)  # set-equal to a queued node
                    continue
                heapq.heappush(queue, child)
                queued_masks.add(child[4])
            if duplicates:
                core.discard(duplicates)
        core.discard(queue)
        core.discard(retained)
    core.stats.wall_time = time.perf_counter() - started
    core.assert_drained()
    return core.result(HSTREE)
