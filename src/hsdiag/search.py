"""Diagnosis searches over the hitting-set tree.

``rbf_hs`` enumerates the ld most probable minimal diagnoses in best-first
order inside linear memory: it explores the best child depth-first until
the best cost in the current subtree falls below the best known alternative
(``bound``), then backs the subtree's best cost up and forgets it.
``hs_tree`` is the classic breadth-style best-first baseline: its open
queue is in memory and its expanded tree counts as live. Both label nodes
the same way, share one conflict store and one instrumentation scheme, so
their node counts and runtimes are directly comparable.

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
tests are one ``&`` each. Conflict extraction takes the node's mask and
returns the conflict's mask, which the store keeps as it comes; id tuples
are built only for recorded diagnoses and the result's conflicts. A traced
search formats each event's text when it records the event, each distinct
set and cost once per search; an untraced one formats nothing.

A node is the list ``[-F, card, -mask, f, mask]``: backed-up log cost F
(only ever decreases), cardinality, node set, and static log cost f. Its
first three entries are the sort key, so ``list.sort``, ``insort`` and
``heapq`` compare nodes natively with no key function. Sibling masks are
unique and so are the masks in HS-Tree's queue, which means a comparison
never reaches the fourth entry. A child's F starts at its own bound f + h
(h from the disjoint-conflict bound below, 0 where nothing is packed); in
RBF-HS at ``min(f + h, F_parent)``: a node expanded before passes its
backed-up cost down, and a parent's F below its children's bound passes
down as pathmax. Backing up a cost writes entry 0. The RBF-HS dummy sibling is ``[inf, 0, 0, -inf, None]``: F
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
  inside the child must contain e, whenever it was found. The child tests
  only the diagnoses that contain e: one list per axiom, appended by
  ``found`` in the order diagnoses are found, so the first closer in the
  list is the first found, as the trace names it.

The hints are the parent's conflict index + 1 and the parent's mask (e is
the child's mask xor it; the root has 0 and 0). Ordered branching leaves
them as they are: it only builds fewer children. In RBF-HS they are fields
of the frame the child belongs to, so its nodes stay five entries long; an
HS-Tree node carries them as entries 5 and 6, after its mask, and its
parent's forbidden mask (see below) as entry 7, where no comparison reaches
them.
With ``debug`` every label is checked against a full scan of D and a
conflict scan from index 0.

Each search is one loop with the label written inline. The hot path runs
on the loop's locals: the closure test over the per-axiom list of the
node's new axiom, the conflict scan by index from the resume point, and
the construction of the children, with the label, reuse and node counters
kept as local ints until the loop ends. The cold paths are ``_SearchCore``
methods: a fresh conflict, finding and releasing a diagnosis and, behind ``if``
guards, the trace lines and the ``debug`` cross-checks.

Both searches branch as Wotawa's ordered hitting-set tree (IPL 2001). A
child that adds axiom e of its parent's conflict C may never add a member
of C that comes before e in K order (a higher bit), so a node's forbidden
mask is its parent's forbidden mask plus those members of C, and 0 at the
root; both loops compute it with one expression when the node is labeled.
Children whose bit is forbidden are never built, and a node whose conflict
lies inside its forbidden mask is a dead end: RBF-HS backs up the sentinel
for it, HS-Tree drops it, each like a closed leaf. Every node set is then
built along one path only, whatever conflict each node on it was labeled
with, while every minimal diagnosis H keeps its path: at each node on it
take the first member of C ∩ H in K order, which is never forbidden, since
the forbidden members of C lie before it and are not in H. Pruning only
drops nodes, so both searches stay best first; RBF-HS's live nodes stay
within the same bound, (c_max + 1)(|K| + 1) for the largest conflict size
c_max: one child list per frame, at most |K| frames deep, plus the root.
HS-Tree builds no set twice, so its queue needs no duplicate check; its
heap pops in the full sort order, so it returns the list of the paper's
expansion of every member of every conflict, ld prefixes included, unless
two costs differ only by the rounding of sums taken along other paths.
``rbf_hs(..., ordered=False)`` holds the forbidden mask at 0, which is the
paper's RBF-HS.

Both ordered searches rank a child by an admissible bound on every
diagnosis below it, the disjoint-core bound of core-guided MaxSAT (Davies &
Bacchus, CP 2011) used as in conflict-directed A* (Williams & Ragno, DAM
2007). When a node is expanded on stored conflict i, the label's conflict
scan goes on past i, where every stored conflict disjoint from the node
lies: those before the resume point hit the parent, and those between it
and i were just scanned. Greedily, in store order, it packs the conflicts
disjoint from the node, from conflict i and from one another; h is the sum
of each packed conflict's largest log step (``add_conflict`` stores it once
per conflict), and k their number. Every child gets F = f + h: a child adds
one member of conflict i, so each packed conflict is disjoint from it, and
a diagnosis below it must hit each packed conflict with an axiom of its
own, outside the child, which costs at most that conflict's largest step,
while any further axiom only lowers the cost. So no diagnosis below the
child costs more than f + h, and a valid child has nothing packed, so its F
is its f: HS-Tree, whose heap is keyed on F, still pops every diagnosis in
the full sort order, and RBF-HS stays best first. F must never fall below
a diagnosis's f through rounding. With equal probabilities (card mode) F is
taken from a table of the level values f_empty + cδ, summed one step at a
time as nodes sum them, so F is exactly the level at card + k, the cost of
the cheapest set a diagnosis below the child could be. In prob mode h is
raised by a relative 1e-12 (``_PAD``) of the magnitude of the children's
f + h; a pad in card mode would move F off the levels, and RBFS would then
switch between siblings whose F differ only by it. Packing takes one
``&`` per stored conflict past i per expansion. ``ordered=False`` keeps
h = 0, so the paper's tree, its counters and the walkthrough traces stay as
the paper gives them.

RBF-HS keeps Korf's recursion as an explicit stack of frames, so the depth
of the tree costs no Python stack and a diagnosis with thousands of
members is searched like any other. A frame is ``(siblings, -bound,
c_next, mask, forbidden, h, m)``: the children of one expanded node sorted
best first, the negated bound the node was entered with, its conflict index
+ 1, its mask, its forbidden mask, the h all its children share and the
level's margin m (below); a child's forbidden mask and own bound follow
from these and its new axiom and f, so nodes stay five entries long. The
current frame lives in locals. Expanding a node pushes the current frame
and makes the node's frame current; the loop then labels the best sibling
while its F reaches the bound minus m, with the runner-up's F (or the
frame's bound, if higher) as the child's bound. A closed, valid or
dead-end node backs up the sentinel: its entry 0 is set to ``inf`` and it
is re-sorted with ``del siblings[0]`` and ``insort``. When the best F falls
below the bound minus m the level is left: its children are discarded,
the parent frame is popped, and the best F is written into the parent's
best sibling (entry 0), which is re-sorted the same way. The root is
labeled from a bottom frame with no siblings, whose pop ends the search.
Trace events come in the order of the recursive formulation: LABEL, EXPAND
and INHERIT (one per child whose F starts below its own bound, inherited)
when a node is labeled, DIAG when a diagnosis enters D,
BACKTRACK when a non-root level is left, and nothing while the search
stops after its ld-th diagnosis.

In prob mode almost every F is distinct, so exact RBFS backs up tiny
decrements and re-enters the same subtrees again and again: Korf's
regeneration overhead (AIJ 1993). The ordered prob-mode tree bounds it as
RBFS_CR (Hatem, Kiesel & Ruml, AAAI 2015) does, by letting a subtree run
past its exact bound and certifying the diagnoses it finds afterwards.

* Relaxed levels. A level is relaxed when its node was expanded before
  (its F lies below its own bound f + h) or when its parent level is
  relaxed; its margin m is then M, else 0. M = -0.9 max δ for the
  per-axiom log steps δ: 0.9 of the log-odds of the most probable single
  fault, derived from the fault probabilities, and kept below one full
  step, -max δ, as "Why the lists cannot move" needs. A relaxed level is left only when its
  best F falls below its bound minus M; the bound it passes down stays
  the exact runner-up bound. So a re-entered level goes on instead of
  regenerating its children one tiny decrement at a time, and no table of
  the costs that forgotten subtrees backed up, as SMA* (Russell, ECAI
  1992) keeps, is needed. A child level keeps its parent's margin: one that dropped it
  would be entered with F below its bound, left at once, and re-entered
  by its parent within the parent's margin, for ever.
* Held diagnoses. A valid node found on a relaxed level, or while others
  are held, may not be the best open node. Its mask joins the per-axiom
  lists at once, so its supersets close, and ``(-f, card, -mask)`` joins
  the held list, sorted by that key. Each time the loop looks at a level's
  best child, the held diagnoses whose f reaches the best open F (the
  best child's or the level's bound, whichever is higher) enter D in that
  order, with their DIAG lines, and the search stops once ld are in D. If
  the search ends first, the rest enter D in order. On exact levels with
  nothing held, a valid node is the best open node and enters D at once.
* The floor. Once ld diagnoses are held or in D, the last held cost is a
  floor: a level whose best F lies strictly below it is not entered but
  left, as a level below its bound is. F bounds every diagnosis below a
  node, so none below that level could beat a held one and enter the
  list; a level at the floor is still entered, so ties keep their order.
* Why the lists cannot move. F is admissible, so no diagnosis still to be
  found costs more than the best open F, and a released diagnosis costs
  at least that: D stays sorted by cost, though equal-cost diagnoses may
  come in another order than HS-Tree's. Nor does D gain a set that is not
  minimal. A valid node H is found only where its F, which is its f,
  reaches its level's bound minus at most M, and the bound is the highest F open
  outside the level, so no open F exceeds f_H + M. A proper subset S of H
  lacks one of H's axioms, whose step is at most max δ, so f_S >= f_H -
  max δ, which exceeds f_H + M because M < -max δ; had S not been found
  yet, an open node above it would have F >= f_S. So S was found first
  and H was closed, not found. (A margin of a full step would need a
  filter of non-minimal sets.) Margins let a level go deeper before it is
  left and prune nothing, so every minimal diagnosis keeps its path.
* Card mode and the paper tree. In card mode every F is a level value and
  levels lie |δ| apart, so a margin below |δ| would change no comparison;
  card mode, like ``ordered=False``, keeps M = 0, every level exact and
  the counters and traces as they were. HS-Tree re-enters nothing.

Memory the search keeps besides its live nodes (``peak_live_nodes``,
where HS-Tree's inner nodes are counted, not kept): the RBF-HS held
diagnoses, one 3-tuple each (``peak_held_diagnoses``), at most ld − |D| of
them, all within M of the best open F, since a diagnosis is
found only where F reaches the bound minus M and the best open F never
rises (a held diagnosis leaves the list only to enter D, best first, and
one found later only moves it back, so ``hold`` drops those past the best
ld − |D|, which can never enter D); the RBF-HS frame stack, one 7-tuple
per level, O(depth), whose sibling lists are live nodes already counted;
the conflict store, the seeds it starts from included, with one ``(delta,
bit)`` list and one largest step per conflict; the card-mode level table, |K| + 1 floats; D; and the
per-axiom diagnosis lists, whose total length is the summed size of the
diagnoses found, each once: those in D, those held and those dropped.
"""

from __future__ import annotations

import math
import time
from bisect import insort
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import NamedTuple, Sequence

from .conflict import find_min_conflict
from .dpi import (
    Diagnosis,
    Dpi,
    FaultProbabilities,
    ValidityChecker,
    bits_of,
    is_valid_set,
    reasoner_for,
)
from .reasoner import Reasoner

INF = float("inf")
NEG_INF = float("-inf")

RBFHS = "rbfhs"
HSTREE = "hstree"

# label verdicts other than a conflict's store index
_CLOSED = -1
_VALID = -2

# Relative raise of the prob-mode bound f + h of the children of a node of
# cost f: h grows by _PAD times |f + h + steepest step|, which bounds
# |f_child + h|, so the raise lies far above the rounding of the sums that
# give a diagnosis below a child its cost.
_PAD = 1e-12


@dataclass(slots=True)
class SearchStats:
    peak_live_nodes: int = 0
    nodes_generated: int = 0
    label_calls: int = 0
    conflict_computations: int = 0
    conflict_reuses: int = 0
    peak_held_diagnoses: int = 0  # RBF-HS diagnoses found but not yet released into D
    solver_calls: int = 0
    wall_time: float = 0.0
    encode_s: float = 0.0  # building the search's own reasoner, before the timer


# The counters that bench rows and session records report, in column order.
COUNTERS = (
    "peak_live_nodes",
    "nodes_generated",
    "label_calls",
    "conflict_computations",
    "conflict_reuses",
    "peak_held_diagnoses",
)


class TraceEvent(NamedTuple):
    """One search event (LABEL, EXPAND, BACKTRACK, INHERIT or DIAG) on a
    node set: its kind, the set's axiom ids and the rest of its line, all
    formatted when the search records the event."""

    kind: str
    ids: tuple[str, ...]
    detail: str

    def line(self) -> str:
        return f"{self.kind} [{','.join(self.ids)}] {self.detail}"


@dataclass
class SearchResult:
    algorithm: str
    diagnoses: list[Diagnosis]
    stats: SearchStats
    conflict_masks: tuple[int, ...]  # the conflict store's K-masks, in store order
    dpi: Dpi = field(repr=False)

    @property
    def conflicts(self) -> tuple[tuple[str, ...], ...]:
        """The stored conflicts as id tuples, in store order."""
        return tuple(map(self.dpi.ids_of, self.conflict_masks))

    def diagnosis_sets(self) -> list[frozenset[str]]:
        return [d.id_set for d in self.diagnoses]


class _SearchCore:
    """State shared by one search run: solution list D, conflict store C,
    cost model, counters and optional tracing. Each search loop writes the
    labeling hot path out inline; the methods here are its cold paths."""

    def __init__(
        self,
        dpi: Dpi,
        pr: FaultProbabilities,
        ld: int | None,
        trace: list[TraceEvent] | None,
        debug: bool,
        reasoner: Reasoner | None,
    ):
        pr.as_cost_adjusted()
        if ld is not None and ld < 1:
            raise ValueError(f"ld must be at least 1: {ld}")
        self.dpi = dpi
        self.ld = ld
        self.trace = trace
        if trace is not None:
            # the events name few distinct sets and costs many times over
            # (65,415 events on 352 sets and 636 costs for the paper tree on
            # a 23-axiom instance), so each is formatted once per search
            self._names: dict[int, tuple[tuple[str, ...], str]] = {}  # K-mask -> (ids, joined ids)
            self._costs: dict[float, str] = {}  # log cost -> linear :.9g text
        self.debug = debug
        self.stats = SearchStats()
        if reasoner is None:  # before the caller's timer starts
            started = time.perf_counter()
            reasoner = reasoner_for(dpi)
            if reasoner is not None:
                self.stats.encode_s = time.perf_counter() - started
        self.reasoner = reasoner
        self._solver_calls_before = reasoner.solver_calls if reasoner else 0
        self.checker = ValidityChecker(dpi, reasoner)
        self.diagnoses: list[Diagnosis] = []
        self.conflict_masks: list[int] = []
        self.conflict_steps: list[list[tuple[float, int]]] = []  # parallel to conflict_masks
        self.conflict_tops: list[float] = []  # each conflict's largest step, parallel too
        self._live_masks: set[int] = set()  # debug
        self._parent_of: dict[int, int | None] | None = None  # debug, ordered trees only
        self._given: dict[int, float] = {}  # debug, ordered trees: each node set's F when last generated
        self._released: list[int] = []  # debug: the masks in D
        self._last_f = INF  # debug: the cost of the last diagnosis released
        # Axiom bit -> (delta, bit), in K order: a child's cost extends the
        # parent sum by one log term, which keeps equal-probability nodes
        # bitwise equal, and its mask adds the bit.
        self._step: dict[int, tuple[float, int]] = {}
        self.f_empty = 0.0
        for a, bit in dpi.bits.items():
            p = pr[a]
            log_ok = math.log(1.0 - p)
            self._step[bit] = (math.log(p) - log_ok, bit)
            self.f_empty += log_ok
        # Equal fault probabilities: every cost is a cardinality level, and
        # the ordered RBF-HS tree relaxes no level. The levels are summed one
        # step at a time, as nodes sum them, so a node of cardinality c costs
        # exactly levels[c].
        deltas = {delta for delta, _ in self._step.values()}
        self.equal_costs = len(deltas) <= 1
        self.steepest = min(deltas, default=0.0)  # for the prob-mode pad
        # RBF-HS's margin of a relaxed level: 0.9 of the log-odds of the
        # most probable single fault, below the full step that would let a
        # non-minimal set be held
        self.margin = -0.9 * max(deltas, default=0.0)
        self.levels: list[float] = []
        if self.equal_costs:
            level = self.f_empty
            self.levels.append(level)
            for delta, _ in self._step.values():
                level += delta
                self.levels.append(level)
        # axiom bit (0 at the root, which adds none) -> masks in D holding it
        self._diags_with: dict[int, list[int]] = {bit: [] for bit in self._step}
        self._diags_with[0] = []

    # -- debug and trace ---------------------------------------------------

    def _track(self, nodes: list[list], parent: int | None) -> None:
        """Debug: no two live nodes are set-equal, and in an ordered run
        every node set is generated from one parent set for the whole run
        (``parent`` is None for the root). HS-Tree never untracks, so no
        set is built twice in its run. An ordered run keeps the F each node
        set was given, for :meth:`record_diagnosis`; in card mode every F
        is a level value."""
        for node in nodes:
            mask = node[4]
            if self._parent_of is not None:
                first = self._parent_of.setdefault(mask, parent)
                assert first == parent, f"{self.dpi.ids_of(mask)} generated from two parent sets"
                self._given[mask] = -node[0]
            if self.levels:
                assert -node[0] in self.levels, f"F of {self.dpi.ids_of(mask)} is no level: {-node[0]!r}"
            assert mask not in self._live_masks, f"duplicate live node {self.dpi.ids_of(mask)}"
            self._live_masks.add(mask)

    def _untrack(self, nodes: list[list]) -> None:
        self._live_masks.difference_update([node[4] for node in nodes])

    def _name(self, mask: int) -> tuple[tuple[str, ...], str]:
        ids = self.dpi.ids_of(mask)
        named = self._names[mask] = (ids, ",".join(ids))
        return named

    def ids_text(self, mask: int) -> str:
        return (self._names.get(mask) or self._name(mask))[1]

    def cost_text(self, log_cost: float) -> str:
        return self._costs.get(log_cost) or self._costs.setdefault(log_cost, f"{math.exp(log_cost):.9g}")

    def emit(self, kind: str, mask: int, detail: str) -> None:
        """Append a trace event; callers check ``self.trace is not None``."""
        ids = (self._names.get(mask) or self._name(mask))[0]
        self.trace.append(TraceEvent(kind, ids, detail))

    def _check_label(self, mask: int, verdict: int) -> None:
        """Debug cross-check: the resumed label equals a label from scratch,
        a full scan of D and a conflict scan from index 0 (``len(store)``
        stands for "no stored conflict is disjoint")."""
        masks = self.conflict_masks
        if any(d & mask == d for ds in self._diags_with.values() for d in ds):
            full = _CLOSED
        else:
            full = next((i for i, c in enumerate(masks) if not c & mask), len(masks))
        assert verdict == full, f"label of {self.dpi.ids_of(mask)}: resumed {verdict}, from scratch {full}"

    def _emit_label(self, node: list, verdict: str) -> None:
        self.emit("LABEL", node[4], f"{verdict} f={self.cost_text(node[3])}")

    def _reused(self, node: list, i: int) -> None:
        """A label answered by stored conflict i."""
        if self.debug:
            self._check_label(node[4], i)
        if self.trace is not None:
            self._emit_label(node, f"conflict-reuse {{{self.ids_text(self.conflict_masks[i])}}}")

    def _expanded(self, node: list, i: int, children: list[list], h: float, k: int) -> None:
        """EXPAND and INHERIT lines of a node expanded on conflict i that
        packed k conflicts whose largest steps sum to h (padded)."""
        costs = ",".join([self.cost_text(child[3]) for child in children])
        self.emit("EXPAND", node[4], f"conflict={{{self.ids_text(self.conflict_masks[i])}}} f=[{costs}]")
        for child in children:
            # F below the child's own bound, inherited: only below a node
            # expanded before
            own = self.levels[child[1] + k] if self.levels else child[3] + h
            if child[0] != -own:
                self.emit("INHERIT", child[4], f"F={self.cost_text(-child[0])}")

    # -- cold paths of the label ---------------------------------------------

    def add_conflict(self, mask: int) -> None:
        """Store a conflict's mask; its steps, so its children, follow K
        order (higher bits first), and its largest step, for the bound."""
        steps = list(map(self._step.__getitem__, bits_of(mask)))
        self.conflict_steps.append(steps)
        self.conflict_tops.append(max(steps)[0])
        self.conflict_masks.append(mask)

    def add_seeds(self, seeds: Sequence[tuple[int, bool]]) -> None:
        """Store the seeds that are minimal conflicts, in their order; the
        empty set is valid. A seed known minimal is stored as it is, any
        other only if each one-element deletion is valid. With ``debug``,
        every stored seed is checked again on a fresh reasoner."""
        is_valid = self.checker.is_valid
        for mask, minimal in seeds:
            if minimal or all(is_valid(mask ^ bit) for bit in bits_of(mask)):
                self.add_conflict(mask)
        if self.debug:
            dpi, fresh = self.dpi, reasoner_for(self.dpi)
            for mask in self.conflict_masks:
                assert not is_valid_set(dpi, mask, fresh), f"seed {dpi.ids_of(mask)} is valid"
                assert all(
                    is_valid_set(dpi, mask ^ bit, fresh) for bit in bits_of(mask)
                ), f"seed {dpi.ids_of(mask)} is no minimal conflict"

    def _closed(self, node: list, closer: int) -> None:
        """A closed label; ``closer`` is the mask of the first diagnosis
        found inside the node, since the per-axiom lists keep the order in
        which diagnoses are found."""
        if self.debug:
            self._check_label(node[4], _CLOSED)
        if self.trace is not None:
            self._emit_label(node, f"closed superset-of={{{self.ids_text(closer)}}}")

    def _new_conflict(self, node: list) -> int:
        """A label no stored conflict answers: the index of a freshly
        computed minimal conflict, or _VALID."""
        mask = node[4]
        if self.debug:
            self._check_label(mask, len(self.conflict_masks))
        conflict = find_min_conflict(self.dpi, exclude=mask, checker=self.checker)
        self.stats.conflict_computations += 1
        if conflict is None:
            if self.trace is not None:
                self._emit_label(node, "valid")
            return _VALID
        self.add_conflict(conflict)
        if self.trace is not None:
            self._emit_label(node, f"conflict-new {{{self.ids_text(conflict)}}}")
        return len(self.conflict_masks) - 1

    def found(self, node: list) -> None:
        """A valid node: its mask joins the per-axiom lists, so its supersets
        close from now on, whenever it enters D."""
        mask = node[4]
        for bit in bits_of(mask):
            self._diags_with[bit].append(mask)
        if self._parent_of is not None:
            # admissible: no F given to a node on its path lies below it
            # (checked now, since the F on the path may fall before the
            # diagnosis is released)
            m = mask
            while m is not None:
                assert node[3] <= self._given[m], f"{self.dpi.ids_of(mask)} above the F given to {self.dpi.ids_of(m)}"
                m = self._parent_of[m]

    def release(self, f: float, mask: int) -> bool:
        """Add a found diagnosis of cost f to D; True once ld diagnoses are
        in D, when the search stops without further work."""
        self.diagnoses.append(Diagnosis(self.dpi.ids_of(mask), math.exp(f)))
        if self.trace is not None:
            self.emit("DIAG", mask, f"pr={self.cost_text(f)}")
        if self.debug:
            assert f <= self._last_f, f"{self.dpi.ids_of(mask)} costs more than the diagnosis before it"
            assert not any(d & mask in (d, mask) for d in self._released), f"{self.dpi.ids_of(mask)} nested in D"
            self._last_f = f
            self._released.append(mask)
        return self.ld is not None and len(self.diagnoses) >= self.ld

    def record_diagnosis(self, node: list) -> bool:
        """Find a valid node and release it at once, as :meth:`release`."""
        self.found(node)
        return self.release(node[3], node[4])

    def hold(self, node: list, held: list[tuple[float, int, int]]) -> int:
        """Find a valid node that an open node may still beat: its ``(-f,
        card, -mask)`` joins the sorted held list, which keeps its best ld -
        |D| entries, and whose length is returned. No held set contains it
        (see the module docstring)."""
        self.found(node)
        mask = node[4]
        if self.debug:
            assert not any(-key[2] & mask == mask for key in held), f"{self.dpi.ids_of(mask)} inside a held set"
        insort(held, (-node[3], node[1], -mask))
        if self.ld is not None:
            del held[self.ld - len(self.diagnoses):]
        return len(held)

    def release_held(self, held: list[tuple[float, int, int]], best_open: float) -> bool:
        """Release, best first, the held diagnoses whose f reaches the best
        open F (``best_open``, negated like the keys), as :meth:`release`."""
        while held and held[0][0] <= best_open:
            nf, _, nmask = held.pop(0)
            if self.release(-nf, -nmask):
                return True
        return False

    def result(self, algorithm: str) -> SearchResult:
        if self.reasoner is not None:
            self.stats.solver_calls = self.reasoner.solver_calls - self._solver_calls_before
        masks = tuple(self.conflict_masks)
        return SearchResult(algorithm, self.diagnoses, self.stats, masks, self.dpi)


def _run(loop, algorithm: str, dpi, pr, ld, trace, debug, reasoner, seeds) -> SearchResult:
    """The part both algorithms share: the timer, the seeds and the trivial
    cases. The store starts with the seeds that are minimal conflicts when
    the empty set is valid, else with the root's conflict, computed here;
    ``loop`` runs only when it holds one. No conflict is empty inside the
    tree: the empty set is a conflict of every node or of none."""
    core = _SearchCore(dpi, pr, ld, trace, debug, reasoner)
    started = time.perf_counter()
    if seeds and core.checker.is_valid(0):
        core.add_seeds(seeds)
    if not core.conflict_masks:
        conflict = find_min_conflict(dpi, checker=core.checker)
        core.stats.conflict_computations += 1
        if conflict is None:
            core.release(core.f_empty, 0)
        elif conflict:  # 0, the empty conflict: no diagnosis exists
            core.add_conflict(conflict)
    if core.conflict_masks:
        loop(core)
    core.stats.wall_time = time.perf_counter() - started
    return core.result(algorithm)


def rbf_hs(
    dpi: Dpi,
    pr: FaultProbabilities,
    ld: int | None,
    *,
    trace: list[TraceEvent] | None = None,
    debug: bool = False,
    reasoner: Reasoner | None = None,
    ordered: bool = True,
    seeds: Sequence[tuple[int, bool]] = (),
) -> SearchResult:
    """Recursive best-first hitting-set search, run as one loop over an
    explicit frame stack.

    Returns up to ld minimal diagnoses in non-increasing probability order.
    Peak live nodes stay within (max conflict size + 1) * (|K| + 1): one
    child list per frame, plus the root. On the reasoner backend, pass the
    DPI's ``reasoner`` to share its encoding with other checks; else the DPI
    is encoded before the timer starts, so ``wall_time`` never includes
    encoding (``encode_s`` holds it).

    ``ordered`` (the default) branches as Wotawa's ordered hitting-set tree,
    ranks children by the disjoint-conflict bound and, with unequal fault
    probabilities, relaxes the levels it re-enters by 0.9 of the log-odds
    of the most probable fault, holding the diagnoses found there, at most
    ld - |D| of them, until no open node may beat them, and once ld are held
    or in D enters no level below the last held cost, all as the module
    docstring describes; ``peak_held_diagnoses`` reports the held list's
    largest size. The returned
    diagnoses are the same either way, and so is their order except among
    diagnoses of equal cost. ``ordered=False`` expands every member of
    every conflict, as the paper's algorithm does, and reproduces its traces
    and counters. With ``debug``, every diagnosis entering D is checked to
    cost no more than the one before it and to be nested with none in D;
    an ordered run also asserts that every node set keeps one parent set
    for the run, and that no F given to a node on a found diagnosis's path
    lies below its cost; in card mode, that every F is a level value.

    ``seeds`` start the conflict store: conflicts of the DPI as ``(K-mask,
    known minimal)`` pairs, such as
    :func:`~hsdiag.sequential.carry_conflicts` makes from the search before
    a measurement. If the empty set is valid, the search stores, in their
    order, the seeds that are minimal conflicts: one known minimal as it
    is, any other once each one-element deletion is valid. It computes the
    root's conflict only when it keeps none. The list is the one the search
    returns without seeds, except that card mode may order (and, at the
    ld-th place, choose) diagnoses of equal cost by the tree. With ``debug``,
    every stored seed is checked again on a fresh reasoner: it is invalid
    and each one-element deletion is valid.
    """
    return _run(
        lambda core: _rbf_loop(core, ordered), RBFHS, dpi, pr, ld, trace, debug, reasoner, seeds
    )


def _rbf_loop(core: _SearchCore, ordered: bool) -> None:
    stats, debug, tracing = core.stats, core.debug, core.trace is not None
    checked = debug or tracing
    diags_with, masks, steps = core._diags_with, core.conflict_masks, core.conflict_steps
    tops, levels, steepest = core.conflict_tops, core.levels, core.steepest
    stored = len(masks)
    labels = reuses = 0
    generated = live = peak = 1
    # the root, whose bound is -inf; bounds are kept negated, like F
    node, node_nbound = [-core.f_empty, 0, 0, core.f_empty, 0], INF
    # Levels are relaxed in the ordered prob-mode tree only: not in card
    # mode, where the margin would change no comparison, nor in the paper's
    # tree. Elsewhere every margin is 0. The found diagnoses not yet in D,
    # as sorted (-f, card, -mask).
    margin = core.margin if ordered and not core.equal_costs else 0.0
    held: list[tuple[float, int, int]] = []
    held_peak = 0
    # with ld diagnoses held or in D, the last held cost is a floor: no level
    # whose best F lies below it is entered
    diagnoses, ld = core.diagnoses, INF if core.ld is None else core.ld
    if debug:
        if ordered:
            core._parent_of = {}
        core._track([node], None)
    # The current frame: the expanded node's children sorted best first, its
    # negated bound, its conflict index + 1, its mask, its forbidden mask,
    # the h of its children's bound and its margin. The root is labeled from
    # a bottom frame with no children, whose pop ends the search.
    siblings, nbound, c_next, pmask, pforbid, ph, pm = None, INF, 0, 0, 0, 0.0, 0.0
    stack = []
    while node is not None:
        # -- label `node`, a child of the current frame (the root expands:
        # D is empty and the seeded conflict is disjoint from it)
        labels += 1
        mask = node[4]
        i = _CLOSED
        for d in diags_with[mask ^ pmask]:
            if d & mask == d:
                if checked:
                    core._closed(node, d)
                break
        else:
            i = c_next
            while i < stored:
                if not masks[i] & mask:
                    reuses += 1
                    if checked:
                        core._reused(node, i)
                    break
                i += 1
            else:
                i = core._new_conflict(node)
                if i >= 0:
                    stored += 1
        if i >= 0 and ordered:
            # the members of the parent's conflict before the new axiom
            # (higher bits); 0 at the root, where the new axiom is 0
            forbid = pforbid | masks[c_next - 1] & -((mask ^ pmask) << 1)
            if not masks[i] & ~forbid:  # a dead end: no child may be built
                i = _CLOSED
        else:
            forbid = 0
        if i >= 0:  # expand it and go down: its frame becomes the current one
            f, back, card = node[3], node[0], node[1] + 1
            # the disjoint-conflict bound: pack the stored conflicts disjoint
            # from the node, from conflict i and from one another, all past i
            h, k = 0.0, 0
            if ordered:
                used = mask | masks[i]
                for j in range(i + 1, stored):
                    if not masks[j] & used:
                        used |= masks[j]
                        h += tops[j]
                        k += 1
            # F = min(f + h, F_parent), negated; in card mode f + h is the
            # level at card + k, in prob mode h is raised by the pad
            children = []
            if levels:
                nf = -levels[card + k]
                if nf < back:
                    nf = back
                for delta, bit in steps[i]:
                    if not bit & forbid:
                        cmask = mask | bit
                        children.append([nf, card, -cmask, f + delta, cmask])
            else:
                if h:
                    h -= (f + h + steepest) * _PAD
                for delta, bit in steps[i]:
                    if not bit & forbid:
                        cf = f + delta
                        nf = -cf - h
                        cmask = mask | bit
                        children.append([nf if nf > back else back, card, -cmask, cf, cmask])
            # F below f + h: expanded before, so its level is relaxed; below
            # a relaxed level every level is
            m = margin if -back < f + ph else pm
            if debug:
                core._track(children, mask)
            if tracing:
                core._expanded(node, i, children, h, k)
            n = len(children)
            if n == 1:
                children.append([INF, 0, 0, NEG_INF, None])  # the dummy sibling
                n = 2
            generated += n
            live += n
            if live > peak:
                peak = live
            children.sort()
            stack.append((siblings, nbound, c_next, pmask, pforbid, ph, pm))
            siblings, nbound, c_next, pmask, pforbid, ph, pm = children, node_nbound, i + 1, mask, forbid, h, m
        else:  # a leaf backs up the sentinel
            if i == _VALID:
                if pm or held:  # an open node may beat it: hold it
                    waiting = core.hold(node, held)
                    if waiting > held_peak:
                        held_peak = waiting
                elif core.record_diagnosis(node):  # on exact levels it is the best open node
                    break  # ld diagnoses in D: stop with no further work
            node[0] = INF
            del siblings[0]
            insort(siblings, node)
        while True:
            best = siblings[0]
            backed = best[0]
            if held:
                # release the held diagnoses that reach the best open F
                best_open = backed if backed < nbound else nbound
                if held[0][0] <= best_open and core.release_held(held, best_open):
                    node = None  # ld diagnoses in D: stop with no further work
                    break
            # F >= bound - margin and F above the sentinel, on negated costs:
            # go down, with the runner-up's exact bound; not below the floor,
            # the last held cost once the held list is full
            if backed <= nbound + pm and backed != INF and not (
                held and backed > held[-1][0] and len(held) + len(diagnoses) >= ld
            ):
                runner_up = siblings[1][0]
                node, node_nbound = best, (runner_up if runner_up < nbound else nbound)
                break
            # leave the level: back the best F up into the parent's best child
            live -= len(siblings)
            if debug:
                core._untrack(siblings)
            if pmask and tracing:  # not the root
                core.emit("BACKTRACK", pmask, f"F={core.cost_text(-backed)} bound={core.cost_text(-nbound)}")
            siblings, nbound, c_next, pmask, pforbid, ph, pm = stack.pop()
            if siblings is None:
                node = None
                break
            best = siblings[0]
            best[0] = backed
            del siblings[0]
            insort(siblings, best)
    if siblings is not None:  # stopped at ld; stack[0] is the bottom frame
        live -= len(siblings) + sum(len(frame[0]) for frame in stack[1:])
    elif held:  # the search ended before ld: nothing is open
        core.release_held(held, INF)
    live -= 1  # the root
    if debug:
        assert live == 0, f"{live} nodes leaked"
    stats.label_calls, stats.conflict_reuses = labels, reuses
    stats.nodes_generated, stats.peak_live_nodes = generated, peak
    stats.peak_held_diagnoses = held_peak


def hs_tree(
    dpi: Dpi,
    pr: FaultProbabilities,
    ld: int | None,
    *,
    trace: list[TraceEvent] | None = None,
    debug: bool = False,
    reasoner: Reasoner | None = None,
    seeds: Sequence[tuple[int, bool]] = (),
) -> SearchResult:
    """Reiter-style best-first hitting-set tree.

    Open nodes sit in a binary heap ordered like the RBF-HS sort, keyed on
    the disjoint-conflict bound F = f + h; labeling, the conflict store and
    the ordered branching are those of rbf_hs. Expanded inner nodes stay
    live until the search ends, as in the paper's tree, which is what the
    peak-node metric measures, but are counted, not kept. ``reasoner`` is
    shared as in rbf_hs. With ``debug``, a run also asserts that no node
    set is built twice, and makes rbf_hs's checks of F: no F given to a
    node on a found diagnosis's path lies below its cost, and in card mode
    every F is a level value. ``seeds`` start the conflict store as in
    rbf_hs; the list is the one without them, unless two costs differ only
    by the rounding of sums taken along other paths.
    """
    return _run(_hs_loop, HSTREE, dpi, pr, ld, trace, debug, reasoner, seeds)


def _hs_loop(core: _SearchCore) -> None:
    stats, debug, tracing = core.stats, core.debug, core.trace is not None
    checked = debug or tracing
    diags_with, masks, steps = core._diags_with, core.conflict_masks, core.conflict_steps
    tops, levels, steepest = core.conflict_tops, core.levels, core.steepest
    stored = len(masks)
    labels = reuses = 0
    generated = live = peak = 1
    # A node is [-F, card, -mask, f, mask, c_next, parent mask, parent's
    # forbidden mask]; HS-Tree never backs up a cost, so F is the bound it
    # was built with throughout. Queued masks are unique, so pops follow the
    # full sort order.
    root = [-core.f_empty, 0, 0, core.f_empty, 0, 0, 0, 0]
    queue = [root]
    expanded = 0  # inner nodes, live to the end in the paper's tree: counted, not held
    if debug:
        core._parent_of = {}
        core._track([root], None)
    while queue:
        node = heappop(queue)
        mask, c_next, pmask = node[4], node[5], node[6]
        labels += 1
        i = _CLOSED
        for d in diags_with[mask ^ pmask]:
            if d & mask == d:
                if checked:
                    core._closed(node, d)
                break
        else:
            i = c_next
            while i < stored:
                if not masks[i] & mask:
                    reuses += 1
                    if checked:
                        core._reused(node, i)
                    break
                i += 1
            else:
                i = core._new_conflict(node)
                if i >= 0:
                    stored += 1
        if i >= 0:
            # the parent's forbidden mask plus the members of the parent's
            # conflict before the new axiom (higher bits), as in _rbf_loop
            forbid = node[7] | masks[c_next - 1] & -((mask ^ pmask) << 1)
            if not masks[i] & ~forbid:  # a dead end: no child may be built
                i = _CLOSED
        if i < 0:
            live -= 1
            if i == _VALID and core.record_diagnosis(node):
                break
            continue
        expanded += 1
        f, card, c_next = node[3], node[1] + 1, i + 1
        # the disjoint-conflict bound, as in _rbf_loop
        h, k = 0.0, 0
        used = mask | masks[i]
        for j in range(c_next, stored):
            if not masks[j] & used:
                used |= masks[j]
                h += tops[j]
                k += 1
        # F = f + h, negated, as in _rbf_loop
        children = []
        if levels:
            nf = -levels[card + k]
            for delta, bit in steps[i]:
                if not bit & forbid:
                    cmask = mask | bit
                    children.append([nf, card, -cmask, f + delta, cmask, c_next, mask, forbid])
        else:
            if h:
                h -= (f + h + steepest) * _PAD
            for delta, bit in steps[i]:
                if not bit & forbid:
                    cf = f + delta
                    cmask = mask | bit
                    children.append([-cf - h, card, -cmask, cf, cmask, c_next, mask, forbid])
        n = len(children)
        generated += n
        live += n
        if live > peak:
            peak = live
        if tracing:
            core._expanded(node, i, children, h, k)
        if debug:
            core._track(children, mask)
        for child in children:
            heappush(queue, child)
    live -= len(queue) + expanded
    if debug:
        assert live == 0, f"{live} nodes leaked"
    stats.label_calls, stats.conflict_reuses = labels, reuses
    stats.nodes_generated, stats.peak_live_nodes = generated, peak


SEARCHES = {RBFHS: rbf_hs, HSTREE: hs_tree}  # by algorithm name, in `--algo` choice order
