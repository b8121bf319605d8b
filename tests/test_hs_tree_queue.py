"""HS-Tree's open queue holds one entry per expanded node, its best unpopped
child. These tests compare it with an eager queue that holds every child,
and bound the memory the search keeps per counted node."""

import random
import tracemalloc
from heapq import heappop, heappush

from hypothesis import given, settings, strategies as st

from hsdiag import FaultProbabilities, cardinality_pr, hs_tree
from hsdiag.dpi import Dpi, antichain_reduce
from hsdiag.search import _CLOSED, _PAD, _VALID, COUNTERS, HSTREE, _run
from conftest import gen_random_dpi


def _eager_hs_loop(core) -> None:
    """HS-Tree as it was before lazy siblings: every allowed child of an
    expanded node is built as ``[-F, card, -mask, f, mask, c_next, parent
    mask, parent's forbidden mask]`` and pushed onto the heap."""
    stats, debug, tracing = core.stats, core.debug, core.trace is not None
    checked = debug or tracing
    diags_with, masks, steps = core._diags_with, core.conflict_masks, core.conflict_steps
    levels, steepest = core.levels, core.steepest
    stored = len(masks)
    labels = reuses = 0
    generated = live = peak = 1
    root = [-core.f_empty, 0, 0, core.f_empty, 0, 0, 0, 0]
    queue = [root]
    expanded = 0
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
            forbid = node[7] | masks[c_next - 1] & -((mask ^ pmask) << 1)
            if not masks[i] & ~forbid:
                i = _CLOSED
        if i < 0:
            live -= 1
            if i == _VALID and core.record_diagnosis(node):
                break
            continue
        expanded += 1
        f, card, c_next = node[3], node[1] + 1, i + 1
        h, k = 0.0, 0
        used = mask | masks[i]
        for j in range(c_next, stored):
            if not masks[j] & used:
                used |= masks[j]
                h += max(steps[j])[0]
                k += 1
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


def eager_hs_tree(dpi, pr, ld, *, trace=None, seeds=()):
    return _run(_eager_hs_loop, HSTREE, dpi, pr, ld, trace, False, None, seeds)


@settings(deadline=None)  # a debug run on up to 14 axioms
@given(
    components=st.integers(2, 14),
    conflicts=st.integers(1, 12),
    max_size=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
    ld=st.sampled_from([1, 5, None]),
    mode=st.sampled_from(["prob", "card"]),
    seeded=st.booleans(),
)
def test_lazy_siblings_match_the_eager_queue(components, conflicts, max_size, seed, ld, mode, seeded):
    # the same lists, bitwise probabilities, counters, stored conflicts and
    # trace lines; card mode ties F among all siblings
    dpi = gen_random_dpi(components, conflicts, min(max_size, components), seed)
    rng = random.Random(seed)
    if mode == "card":
        pr = cardinality_pr(dpi.k_ids)
    else:
        pr = FaultProbabilities({a: rng.uniform(0.01, 0.3) for a in dpi.k_ids})
    seeds = ()
    if seeded:  # the DPI's minimal conflicts in random order, some marked unknown
        family = list(dpi.family_masks)
        rng.shuffle(family)
        seeds = [(m, rng.random() < 0.5) for m in family]
    eager_trace, lazy_trace = [], []
    eager = eager_hs_tree(dpi, pr, ld, trace=eager_trace, seeds=seeds)
    lazy = hs_tree(dpi, pr, ld, trace=lazy_trace, seeds=seeds, debug=True)
    assert [d.ids for d in lazy.diagnoses] == [d.ids for d in eager.diagnoses]
    assert [d.pr.hex() for d in lazy.diagnoses] == [d.pr.hex() for d in eager.diagnoses]
    assert [getattr(lazy.stats, c) for c in COUNTERS] == [getattr(eager.stats, c) for c in COUNTERS]
    assert lazy.conflict_masks == eager.conflict_masks
    assert [e.line() for e in lazy_trace] == [e.line() for e in eager_trace]


def test_queue_memory_per_counted_node():
    # A card instance whose tree counts over 10,000 live nodes. The eager
    # queue held every child as an 8-entry list, about 157 bytes of traced
    # peak per counted node; one entry per expanded node keeps about 102.
    rng = random.Random(5)
    ids = [str(i + 1) for i in range(30)]
    raw = [[ids[i] for i in sorted(rng.sample(range(30), rng.randint(3, 5)))] for _ in range(20)]
    dpi = Dpi.abstract(ids, antichain_reduce(raw))
    pr = cardinality_pr(dpi.k_ids)
    tracemalloc.start()
    try:
        result = hs_tree(dpi, pr, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    nodes = result.stats.peak_live_nodes
    assert nodes >= 10_000
    assert peak / nodes < 120, f"{peak / nodes:.0f} bytes per counted node"
