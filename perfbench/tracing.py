"""Span recorder for the traced benchmark run.

Each layer's public function is wrapped at the name its caller looks it up
by, so the program itself is not edited. A span records its name, its parent
span, the search algorithm it ran under, start and end times, and one
optional count (clauses per CNF, cache entries per validity check). Spans
stay in memory until the run ends and are then written out as CSV.

Searches called inside ``run_session`` go through a dictionary the module
builds at import time, so they cannot be wrapped by name; their spans are
added afterwards from ``SearchStats.wall_time``.
"""

from __future__ import annotations

import csv
from pathlib import Path
from time import perf_counter

import hsdiag
import hsdiag.conflict
import hsdiag.dpi
import hsdiag.logic
import hsdiag.search
import hsdiag.sequential

# Span fields, in the order each span list holds them.
ID, PARENT, NAME, ALGO, START, END, COUNT = range(7)


def _clause_count(result, args):
    return len(result.clauses)


def _cache_entries(result, args):
    return len(args[0]._cache)


# (owner, attribute, span name, count function)
WRAPPED = (
    (hsdiag, "loads", "dpifile.loads", None),
    (hsdiag.search, "find_min_conflict", "conflict.find", None),
    (hsdiag.conflict, "quickxplain", "conflict.qx", None),
    (hsdiag.dpi.ValidityChecker, "is_valid", "dpi.validity", _cache_entries),
    (hsdiag.dpi, "is_valid_set", "dpi.valid_set", None),
    (hsdiag.logic, "to_clause_set", "logic.cnf", _clause_count),
    (hsdiag.logic, "is_satisfiable", "logic.sat", None),
    (hsdiag.sequential, "ent_select", "sequential.select", None),
    (hsdiag.sequential, "partition", "sequential.partition", None),
    (hsdiag.sequential, "update_dpi", "sequential.update", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[list] = []
        self._algo: str | None = None
        self._originals: list[tuple[object, str, object]] = []

    def begin(self, name: str, algo: str | None = None) -> list:
        if algo is not None:
            self._algo = algo
        parent = self._stack[-1][ID] if self._stack else -1
        span = [len(self.spans), parent, name, self._algo, perf_counter(), 0.0, None]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: list) -> None:
        span[END] = perf_counter()
        self._stack.pop()
        if not self._stack:
            self._algo = None

    def add_search_spans(self, session: list, stats_list) -> None:
        """Child spans of a finished session span, one per search it ran,
        laid end to end from the session start."""
        start = session[START]
        for stats in stats_list:
            end = start + stats.wall_time
            self.spans.append(
                [len(self.spans), session[ID], f"search.{session[ALGO]}", session[ALGO], start, end, None]
            )
            start = end

    def _wrap(self, fn, name, count):
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if count is not None:
                span[COUNT] = count(result, args)
            return result

        return traced

    def install(self) -> None:
        for owner, attr, name, count in WRAPPED:
            fn = owner.__dict__[attr]
            self._originals.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, count))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._originals):
            setattr(owner, attr, fn)
        self._originals.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="") as out:
            writer = csv.writer(out)
            writer.writerow(["id", "parent", "name", "algo", "start_s", "end_s", "count"])
            writer.writerows(self.spans)


def layer_totals(spans: list[list]) -> dict:
    """Per span name: calls, total duration, and summed and largest count;
    plus conflict-finding time per algorithm (subtracted from search time to
    give the search's self time), validity checks made directly inside
    QuickXplain, and cache misses inside validity checks."""
    totals: dict[str, dict] = {}
    find_by_algo: dict[str, float] = {}
    checks_in_qx = misses = 0
    for s in spans:
        t = totals.setdefault(s[NAME], {"calls": 0, "s": 0.0, "count": 0, "max": 0})
        t["calls"] += 1
        t["s"] += s[END] - s[START]
        if s[COUNT] is not None:
            t["count"] += s[COUNT]
            t["max"] = max(t["max"], s[COUNT])
        if s[NAME] == "conflict.find" and s[ALGO] is not None:
            find_by_algo[s[ALGO]] = find_by_algo.get(s[ALGO], 0.0) + s[END] - s[START]
        parent = spans[s[PARENT]][NAME] if s[PARENT] >= 0 else None
        checks_in_qx += s[NAME] == "dpi.validity" and parent == "conflict.qx"
        misses += s[NAME] == "dpi.valid_set" and parent == "dpi.validity"
    return {"layers": totals, "find_by_algo": find_by_algo, "checks_in_qx": checks_in_qx, "misses": misses}
