"""Benchmark harness: factorial sequential-diagnosis runs and CSV emission.

One BenchRow summarizes one session cell (dpi, algorithm, ld, session
index): counters are summed over the session's searches, the peak node
count and the peak of held diagnoses are maxima, and diagnoses_found
reports the largest single-search yield. The summary aggregates the two
comparison families: factor of memory saved, peak(hstree) / (peak(rbfhs)
+ its held diagnoses), and factor of extra time spent, runtime(rbfhs) /
runtime(hstree), averaged over paired sessions. The two RBF-HS maxima may
come from different searches of a session, or from different moments of
one search, so their sum is an upper bound on RBF-HS memory and the memory
factor a lower bound.
"""

from __future__ import annotations

import csv
import io
import zlib
import random
from dataclasses import astuple, dataclass, fields
from pathlib import Path
from typing import Iterable, Sequence

from .dpi import (
    BRUTE_FORCE_LIMIT,
    Diagnosis,
    Dpi,
    FaultProbabilities,
    brute_force_min_diagnoses,
    cardinality_pr,
    cost_adjust,
)
from .dpifile import load_dpi_file
from .search import COUNTERS, HSTREE, RBFHS, SEARCHES, SearchStats, rbf_hs
from .sequential import SessionTrace, check_session_ld, run_session

DEFAULT_LD = (2, 6, 10, 20)
MODES = ("card", "prob")  # the probability modes of ``pick_probabilities``


@dataclass(frozen=True)
class BenchRow:
    dpi: str
    algo: str
    ld: int
    session: int
    runtime_ms: float
    peak_live_nodes: int
    nodes_generated: int
    label_calls: int
    conflict_computations: int
    conflict_reuses: int
    peak_held_diagnoses: int
    diagnoses_found: int

    def __post_init__(self):
        if self.diagnoses_found > self.ld:
            raise ValueError("diagnoses_found exceeds ld")
        for name in (*COUNTERS, "diagnoses_found"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


CSV_HEADER = ",".join(f.name for f in fields(BenchRow))


def csv_line(row) -> str:
    """A dataclass row as one CSV line without its line end: the fields in
    order, a float as its repr, and quotes around a field that holds a
    comma, a quote or a line break."""
    out = io.StringIO()
    csv.writer(out, lineterminator="").writerow(astuple(row))
    return out.getvalue()


def write_rows(rows: Iterable[BenchRow]) -> str:
    return "\n".join([CSV_HEADER, *map(csv_line, rows)]) + "\n"


def stats_row(
    name: str,
    algo: str,
    ld: int,
    session: int,
    stats: Sequence[SearchStats],
    diagnoses_found: int,
) -> BenchRow:
    """One row over the searches of a cell: times and counters summed, the
    two peaks the maximum."""
    counts = {c: sum(getattr(s, c) for s in stats) for c in COUNTERS}
    for peak in ("peak_live_nodes", "peak_held_diagnoses"):
        counts[peak] = max(getattr(s, peak) for s in stats)
    return BenchRow(
        dpi=name,
        algo=algo,
        ld=ld,
        session=session,
        runtime_ms=sum(s.wall_time for s in stats) * 1000.0,
        diagnoses_found=diagnoses_found,
        **counts,
    )


def session_row(name: str, algo: str, ld: int, session: int, trace: SessionTrace) -> BenchRow:
    stats = [it.stats for it in trace.iterations]
    found = max(len(it.diagnoses) for it in trace.iterations)
    return stats_row(name, algo, ld, session, stats, found)


def derive_seed(*parts) -> int:
    """Stable cross-process seed derivation (hash() is randomized)."""
    return zlib.crc32(":".join(str(p) for p in parts).encode("utf-8"))


def pick_probabilities(dpi: Dpi, file_pr: FaultProbabilities | None, mode: str) -> FaultProbabilities:
    if mode == "card":
        return cardinality_pr(dpi.k_ids, 1 / 3)
    if mode == "prob":
        if file_pr is None:
            raise ValueError("mode 'prob' needs a [PR] section in the DPI file")
        # Pre-adjusted vectors (all below 0.5) are taken as given; scaling
        # them again would reshuffle the diagnosis ranking.
        if all(p < 0.5 for p in file_pr.values.values()):
            return file_pr
        return cost_adjust(file_pr, 0.25)
    raise ValueError(f"unknown probability mode: {mode!r} (expected one of {', '.join(MODES)})")


def sample_actuals(
    dpi: Dpi, pr: FaultProbabilities, count: int, seed: int, ld_hint: int
) -> list[Diagnosis]:
    """Designated actual diagnoses for simulated sessions.

    Drawn uniformly from the brute-force diagnosis list on small instances,
    and from a first search's result list on larger ones. Distinct targets
    are preferred while the pool allows.
    """
    if len(dpi.k_ids) <= BRUTE_FORCE_LIMIT:
        pool = brute_force_min_diagnoses(dpi)
    else:
        pool = rbf_hs(dpi, pr, max(ld_hint, 20)).diagnoses
    if not pool:
        raise ValueError("instance has no minimal diagnosis to designate as actual")
    rng = random.Random(seed)
    if count <= len(pool):
        return rng.sample(pool, count)
    return [rng.choice(pool) for _ in range(count)]


@dataclass(frozen=True)
class CellFailure:
    dpi: str
    algo: str
    ld: int
    session: int
    error: str


def run_bench(
    fixture_dir: str | Path,
    ld_values: Sequence[int] = DEFAULT_LD,
    sessions: int = 5,
    seed: int = 0,
    mode: str = "card",
) -> tuple[list[BenchRow], list[CellFailure]]:
    """Full factorial over fixtures x algorithms x ld x sessions."""
    if not Path(fixture_dir).is_dir():
        raise ValueError(f"fixture path is not a directory: {fixture_dir}")
    seen = set()
    for ld in ld_values:
        check_session_ld(ld)
        if ld in seen:  # every cell of it would be written twice
            raise ValueError(f"repeated ld value: {ld}")
        seen.add(ld)
    rows: list[BenchRow] = []
    failures: list[CellFailure] = []
    for path in sorted(Path(fixture_dir).glob("*.dpi")):
        name = path.stem
        try:
            dpi, file_pr = load_dpi_file(path)
            pr = pick_probabilities(dpi, file_pr, mode)
            actuals = sample_actuals(dpi, pr, sessions, derive_seed(seed, name), max(ld_values))
        except Exception as exc:
            failures.append(CellFailure(name, "*", 0, 0, str(exc)))
            continue
        for algo in SEARCHES:
            for ld in ld_values:
                for session, actual in enumerate(actuals):
                    try:
                        trace = run_session(dpi, pr, ld, actual, algo)
                        rows.append(session_row(name, algo, ld, session, trace))
                    except Exception as exc:
                        failures.append(CellFailure(name, algo, ld, session, str(exc)))
    return rows, failures


@dataclass(frozen=True)
class SummaryRow:
    dpi: str
    ld: int
    memory_factor: float
    time_factor: float


SUMMARY_HEADER = ",".join(f.name for f in fields(SummaryRow))


def summarize(rows: Sequence[BenchRow]) -> list[SummaryRow]:
    """Per (dpi, ld) factors averaged over paired sessions."""
    cells: dict[tuple[str, int, int], dict[str, BenchRow]] = {}
    for row in rows:
        cells.setdefault((row.dpi, row.ld, row.session), {})[row.algo] = row
    grouped: dict[tuple[str, int], list[tuple[float, float]]] = {}
    for (name, ld, _session), pair in sorted(cells.items()):
        if RBFHS not in pair or HSTREE not in pair:
            continue
        rbf, hst = pair[RBFHS], pair[HSTREE]
        rbf_memory = rbf.peak_live_nodes + rbf.peak_held_diagnoses
        memory = hst.peak_live_nodes / max(rbf_memory, 1)
        time_factor = rbf.runtime_ms / max(hst.runtime_ms, 1e-9)
        grouped.setdefault((name, ld), []).append((memory, time_factor))
    out = []
    for (name, ld), factors in sorted(grouped.items()):
        mem = sum(f[0] for f in factors) / len(factors)
        tim = sum(f[1] for f in factors) / len(factors)
        out.append(SummaryRow(name, ld, mem, tim))
    return out


def write_summary(rows: Sequence[SummaryRow]) -> str:
    return "\n".join([SUMMARY_HEADER, *map(csv_line, rows)]) + "\n"
