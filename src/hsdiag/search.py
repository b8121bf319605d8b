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
id tuples are built only for recorded diagnoses, and trace text only when
a trace event is read.

A node is the list ``[-F, card, -mask, f, mask]``: backed-up log cost F
(only ever decreases), cardinality, node set, and static log cost f. Its
first three entries are the sort key, so ``list.sort``, ``insort`` and
``heapq`` compare nodes natively with no key function. Sibling masks are
unique and so are the masks in HS-Tree's queue, which means a comparison
never reaches the fourth entry. A child's F starts at ``min(f, F_parent)``:
a node expanded before passes its backed-up cost down. Backing up a cost
writes entry 0. The RBF-HS dummy sibling is ``[inf, 0, 0, -inf, None]``: F
is the minus-infinity sentinel, so it sorts after every sibling of finite
cost.

Each label resumes where its parent's label stopped. Every edge adds one
axiom e to the node set, taken from the parent's conflict, which is
disjoint from the parent; the conflict store and the diagnosis list D only
ever grow. So:

* conflict scan: every stored conflict before the parent's conflict hits
  the parent, and the parent's conflict holds e, so the child's first
  disjoint conflict in store order lies past the parent's index;
* closure test: every diagnosis hits the parent's conflict, so a diagnosis
  inside the child must contain e, whenever it was recorded. The child
  tests only the diagnoses that contain e: one list per axiom, appended by
  ``record_diagnosis`` in D order, so the first closer found is the first
  in D, as the trace names it.

The hints are the parent's conflict index + 1 and the parent's mask (e is
the child's mask xor it; the root passes 0 and 0). RBF-HS passes them as
arguments of ``_rbf_rec``, so its nodes stay five entries long; an HS-Tree
node carries them as entries 5 and 6, after its mask, where no comparison
reaches them. With ``debug`` every label is checked against a full scan of
D and a conflict scan from index 0.

Memory the search keeps besides its live nodes (``peak_live_nodes``): the
conflict store, with one ``(delta, bit)`` list per conflict, D, and the
per-axiom diagnosis lists, whose total length is the summed size of the
diagnoses found, at most ld * |K|: bounded by the output, not by the tree.
"""

from __future__ import annotations

import heapq
import math
import time
from bisect import insort
from dataclasses import dataclass
from operator import itemgetter

from .conflict import EmptyConflict, MinimalConflict, NoConflict, find_min_conflict
from .dpi import Diagnosis, Dpi, FaultProbabilities, ValidityChecker, reasoner_for
from .reasoner import Reasoner

INF = float("inf")
NEG_INF = float("-inf")

RBFHS = "rbfhs"
HSTREE = "hstree"

# label verdicts other than a conflict's store index
_CLOSED = -1
_VALID = -2


@dataclass
class SearchStats:
    peak_live_nodes: int = 0
    nodes_generated: int = 0
    label_calls: int = 0
    conflict_computations: int = 0
    conflict_reuses: int = 0
    solver_calls: int = 0
    wall_time: float = 0.0


def _linear(log_cost: float) -> float:
    return 0.0 if log_cost == NEG_INF else math.exp(log_cost)


def _costs(log_costs: list[float]) -> str:
    return ",".join(f"{_linear(c):.9g}" for c in log_costs)


# Trace text of one detail part, by its type: a float is a log cost shown
# linear, a tuple an id list, a list a list of log costs.
_TEXT = {str: str, float: lambda c: f"{_linear(c):.9g}", tuple: ",".join, list: _costs}


class TraceEvent(tuple):
    """One search event (LABEL, EXPAND, BACKTRACK, INHERIT or DIAG) on a
    node set, as the tuple ``(kind, dpi, mask, parts)``: the mask and the
    raw costs are kept, and ``ids``, ``detail`` and ``line()`` are formatted
    when read, so recording a trace stays cheap."""

    __slots__ = ()

    kind = property(itemgetter(0))

    @property
    def ids(self) -> tuple[str, ...]:
        return self[1].ids_of(self[2])

    @property
    def detail(self) -> str:
        return "".join([_TEXT[type(part)](part) for part in self[3]])

    def line(self) -> str:
        return f"{self[0]} [{','.join(self.ids)}] {self.detail}".rstrip()

    def __repr__(self) -> str:
        return f"TraceEvent({self.line()!r})"


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
        self.conflict_steps: list[list[tuple[float, int]]] = []  # parallel to conflict_list
        self.aborted = False
        self._live = 0
        self.unique_live = True
        self._live_masks: set[int] = set()
        # Per-axiom (delta, bit): a child's cost extends the parent sum by one
        # log term, which keeps equal-probability nodes bitwise equal, and its
        # mask adds the axiom's K bit.
        self._step = {
            a: (math.log(pr[a]) - math.log(1.0 - pr[a]), dpi.mask_of((a,))) for a in dpi.k_ids
        }
        # axiom bit (0 at the root, which adds none) -> masks in D holding it
        self._diags_with: dict[int, list[int]] = {bit: [] for _, bit in self._step.values()}
        self._diags_with[0] = []
        self.f_empty = 0.0
        for a in dpi.k_ids:
            self.f_empty += math.log(1.0 - pr[a])

    # -- instrumentation ---------------------------------------------------

    def make_root(self, hints: tuple = ()) -> list:
        root = [-self.f_empty, 0, 0, self.f_empty, 0, *hints]
        self._created(root)
        return root

    def make_dummy(self) -> list:
        dummy = [INF, 0, 0, NEG_INF, None]
        self._created(dummy)
        return dummy

    def _created(self, node: list) -> None:
        stats = self.stats
        stats.nodes_generated += 1
        self._live += 1
        if self._live > stats.peak_live_nodes:
            stats.peak_live_nodes = self._live
        if self.debug and node[4] is not None:  # the dummy is not a node set
            self._track([node])

    def _track(self, nodes: list[list]) -> None:
        """Debug: no two live nodes are set-equal (RBF-HS only; HS-Tree may
        create a duplicate child briefly before its queue check drops it)."""
        if self.unique_live:
            for node in nodes:
                mask = node[4]
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

    def emit(self, kind: str, mask: int, parts: tuple = ()) -> None:
        """Append a trace event; callers check ``self.trace is not None``."""
        self.trace.append(TraceEvent((kind, self.dpi, mask, parts)))

    # -- shared Reiter-style labeling ---------------------------------------

    def add_conflict(self, ids: tuple[str, ...]) -> None:
        self.conflict_list.append(ids)
        self.conflict_masks.append(self.dpi.mask_of(ids))
        self.conflict_steps.append([self._step[a] for a in ids])

    def _check_label(self, mask: int, verdict: int) -> None:
        """Debug cross-check: the resumed label equals a label from scratch,
        a full scan of D and a conflict scan from index 0 (``len(store)``
        stands for "no stored conflict is disjoint")."""
        masks = self.conflict_masks
        if any(d & mask == d for d in self.diag_masks):
            full = _CLOSED
        else:
            full = next((i for i, c in enumerate(masks) if not c & mask), len(masks))
        assert verdict == full, f"label of {self.dpi.ids_of(mask)}: resumed {verdict}, from scratch {full}"

    def _emit_label(self, node: list, *verdict) -> None:
        self.emit("LABEL", node[4], (*verdict, " f=", node[3]))

    def label_expand(self, node: list, bit: int, c_from: int, hinted: bool) -> tuple[int, list[list] | None]:
        """Label a node and expand it. Returns the store index of the node's
        minimal conflict and one child per element of it, in stored order;
        or ``(_CLOSED, None)``, or ``(_VALID, None)`` once the node is
        recorded as a diagnosis.

        The node is its parent's set plus the axiom ``bit`` (0 at the root),
        and ``c_from`` is its parent's conflict index + 1 (see the module
        docstring). Cheapest test first: non-minimality against the found
        diagnoses that hold ``bit``, then reuse of a stored conflict from
        ``c_from`` on, and only then a fresh conflict computation on the
        instance without the node's axioms. A child's F starts at
        min(f, F): a node expanded before passes its backed-up cost down.
        With ``hinted`` a child carries its own hints as entries 5 and 6.
        """
        stats = self.stats
        stats.label_calls += 1
        mask = node[4]
        for d in self._diags_with[bit]:
            if d & mask == d:
                return self._closed(node, d), None
        for i, c in enumerate(self.conflict_masks[c_from:], c_from):
            if not c & mask:
                stats.conflict_reuses += 1
                if self.debug:
                    self._check_label(mask, i)
                if self.trace is not None:
                    self._emit_label(node, "conflict-reuse {", self.conflict_list[i], "}")
                break
        else:
            i = self._new_conflict(node)
            if i == _VALID:
                self.record_diagnosis(node)
                return i, None
        f, f_backed, card, c_next = node[3], -node[0], node[1] + 1, i + 1
        children = []
        for delta, bit in self.conflict_steps[i]:
            cf, cmask = f + delta, mask | bit
            back = -(cf if cf < f_backed else f_backed)
            if hinted:  # a literal: extending a list would over-allocate it
                children.append([back, card, -cmask, cf, cmask, c_next, mask])
            else:
                children.append([back, card, -cmask, cf, cmask])
        stats.nodes_generated += len(children)
        self._live = live = self._live + len(children)
        if live > stats.peak_live_nodes:
            stats.peak_live_nodes = live
        if self.debug:
            self._track(children)
        if self.trace is not None:
            self.emit("EXPAND", mask, ("conflict={", self.conflict_list[i], "} f=[", [c[3] for c in children], "]"))
            for child in children:
                if child[3] > f_backed:  # only below a node expanded before
                    self.emit("INHERIT", child[4], ("F=", f_backed))
        return i, children

    def _closed(self, node: list, closer: int) -> int:
        """A closed label; ``closer`` is the first diagnosis in D inside
        the node, since the per-axiom lists keep D's order."""
        if self.debug:
            self._check_label(node[4], _CLOSED)
        if self.trace is not None:
            ids = self.diagnoses[self.diag_masks.index(closer)].ids
            self._emit_label(node, "closed superset-of={", ids, "}")
        return _CLOSED

    def _new_conflict(self, node: list) -> int:
        """A label no stored conflict answers: the index of a freshly
        computed minimal conflict, or _VALID."""
        mask = node[4]
        if self.debug:
            self._check_label(mask, len(self.conflict_masks))
        outcome = find_min_conflict(self.dpi, exclude=mask, checker=self.checker)
        self.stats.conflict_computations += 1
        if isinstance(outcome, NoConflict):
            if self.trace is not None:
                self._emit_label(node, "valid")
            return _VALID
        if isinstance(outcome, MinimalConflict):
            self.add_conflict(outcome.ids)
            if self.trace is not None:
                self._emit_label(node, "conflict-new {", outcome.ids, "}")
            return len(self.conflict_masks) - 1
        raise RuntimeError("empty conflict inside the search tree")  # handled up front

    def record_diagnosis(self, node: list) -> None:
        mask = node[4]
        ids = self.dpi.ids_of(mask)
        self.diagnoses.append(Diagnosis(ids, _linear(node[3])))
        self.diag_masks.append(mask)
        for a in ids:
            self._diags_with[self._step[a][1]].append(mask)
        if self.trace is not None:
            self.emit("DIAG", mask, ("pr=", node[3]))
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
        core.diagnoses.append(Diagnosis((), _linear(core.f_empty)))
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
        _rbf_rec(core, root, NEG_INF, 0, 0)
        core.discard([root])
    core.stats.wall_time = time.perf_counter() - started
    core.assert_drained()
    return core.result(RBFHS)


def _rbf_rec(core: _SearchCore, node: list, bound: float, c_from: int, parent_mask: int) -> float:
    """Search below a node; its F is the backed-up cost it inherits."""
    mask = node[4]
    i, children = core.label_expand(node, mask ^ parent_mask, c_from, False)
    if children is None:
        return NEG_INF
    c_from = i + 1
    if len(children) == 1:
        children.append(core.make_dummy())
    children.sort()
    best, runner_up = children[0], children[1]
    # F >= bound and F above the sentinel, on negated costs
    while best[0] <= -bound and best[0] != INF:
        child_bound = -runner_up[0]
        if child_bound < bound:
            child_bound = bound
        new_f = _rbf_rec(core, best, child_bound, c_from, mask)
        if core.aborted:
            core.discard(children)
            return NEG_INF
        best[0] = -new_f
        del children[0]
        insort(children, best)
        best, runner_up = children[0], children[1]
    subtree_best = -best[0]
    core.discard(children)
    if mask and core.trace is not None:  # not the root
        core.emit("BACKTRACK", mask, ("F=", subtree_best, " bound=", bound))
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
        # A node is [-F, card, -mask, f, mask, c_from, parent mask].
        # Queued masks are unique (set-equal children are dropped below), so
        # heap comparisons never tie on the sort key and pops follow the full
        # sort order.
        queue = [core.make_root((0, 0))]
        queued_masks = {0}
        retained: list[list] = []
        while queue:
            node = heapq.heappop(queue)
            mask = node[4]
            queued_masks.discard(mask)
            _, children = core.label_expand(node, mask ^ node[6], node[5], True)
            if children is None:
                core.discard([node])
                if core.aborted:
                    break
                continue
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
