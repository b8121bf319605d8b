"""Workloads, measurement loop and metrics of the hsdiag benchmark; see
``run.py`` for the command line."""

from __future__ import annotations

import gc
import resource
import statistics
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import hsdiag
from checks import check_search, check_sessions, same_diagnoses
from instances import generate
from tracing import Tracer, layer_totals

OUT = Path(__file__).resolve().parent.parent / ".perfbench_out"

ALGOS = ("rbfhs", "hstree")
SETUP_REPS = (3, 9)  # fewest and most set-ups per run
SETUP_SECONDS = 2.0  # set up again until this much time is spent
SLICE_SECONDS = 0.3  # set-up time between two calibrations
BLOCK = 8  # instances measured between two calibrations
CAL_SAMPLES = 5
CAL_REF_S = 0.003  # kernel time that defines reference speed


@dataclass(frozen=True)
class Spec:
    kind: str  # "abstract" (single searches) or "circuit" (sessions)
    mode: str
    ld: int
    pool: int
    components: int = 0
    conflicts: int = 0
    sizes: tuple[int, int] = (0, 0)
    bits: int = 0
    faults: int = 0
    pr_range: tuple[float, float] = (0.01, 0.3)


WORKLOADS = {
    "abstract": Spec("abstract", "prob", ld=20, pool=800, components=14, conflicts=9, sizes=(3, 4)),
    "abstract-large": Spec(
        "abstract", "card", ld=20, pool=600, components=24, conflicts=16, sizes=(4, 5)
    ),
    "sequential": Spec("circuit", "prob", ld=6, pool=200, bits=2, faults=2),
}


def _kernel() -> int:
    """Fixed pure-Python work independent of hsdiag: small frozensets, dict
    updates and sorts, the same kind of work as the search and reasoner."""
    acc: dict = {}
    for i in range(3000):
        key = frozenset((i % 17, i % 13, i % 11))
        acc[key] = acc.get(key, 0) + len(sorted(((i * 7919) % 101, i % 7, i % 5)))
    return len(acc)


def calibrate() -> list[float]:
    """Kernel times. The garbage collector is off meanwhile, so that the
    kernel measures the machine's speed and not the size of the heap the
    program under test has built."""
    samples = []
    gc.disable()
    try:
        for _ in range(CAL_SAMPLES):
            start = perf_counter()
            _kernel()
            samples.append(perf_counter() - start)
    finally:
        gc.enable()
    return samples


def timed_scaled(work):
    """Run ``work()`` between two calibrations; returns its result and the
    factor that converts its measured times to reference speed.

    Other tenants of a shared machine slow all Python code alike by up to
    about 1.8x for several seconds at a time. Dividing by the kernel time
    measured around the same work removes that drift; a program change
    does not move the kernel, so it shows in full.
    """
    before = calibrate()
    result = work()
    return result, CAL_REF_S / statistics.median(before + calibrate())


class Recorder:
    """Per-algorithm step samples and the counters of one measurement."""

    def __init__(self):
        self.step_s = {a: [] for a in ALGOS}
        self.peaks = {a: [] for a in ALGOS}
        self.stats = {a: [] for a in ALGOS}
        self.diagnoses = {a: 0 for a in ALGOS}
        self.session_s = {a: [] for a in ALGOS}
        self.queries: list[int] = []
        self.pairs: list[tuple[float, float, int, int]] = []  # rbfhs s, hstree s, peaks
        self.timed_s = 0.0
        self.scales: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: dict[str, int] = {}

    def step(self, algo: str, seconds: float, result_stats, found: int) -> None:
        self.step_s[algo].append(seconds)
        self.peaks[algo].append(result_stats.peak_live_nodes)
        self.stats[algo].append(result_stats)
        self.diagnoses[algo] += found

    def fail(self, count: int, problems: list[str]) -> None:
        self.failed += count
        for p in problems:
            self.problems[p] = self.problems.get(p, 0) + 1

    @property
    def steps(self) -> int:
        return sum(len(v) for v in self.step_s.values())


def _call(tracer, name: str, algo: str, fn, *args, **kwargs):
    """One timed call; returns (seconds, result, span, error)."""
    span = tracer.begin(name, algo) if tracer else None
    start = perf_counter()
    try:
        result, error = fn(*args, **kwargs), None
    except Exception as exc:  # a raising call counts as failed, the run goes on
        result, error = None, f"{type(exc).__name__}: {exc}"
    elapsed = perf_counter() - start
    if span:
        tracer.end(span)
    return elapsed, result, span, error


def call_searches(spec: Spec, inst, tracer=None) -> dict:
    """Both algorithms on one abstract instance; each call is one step."""
    search = {"rbfhs": hsdiag.rbf_hs, "hstree": hsdiag.hs_tree}
    return {a: _call(tracer, f"search.{a}", a, search[a], inst.dpi, inst.pr, spec.ld) for a in ALGOS}


def call_sessions(spec: Spec, inst, tracer=None) -> dict:
    """One simulated session per algorithm on one circuit; each search call
    inside a session is one step."""
    out = {}
    for algo in ALGOS:
        out[algo] = _call(
            tracer, f"session.{algo}", algo, hsdiag.run_session,
            inst.dpi, inst.pr, spec.ld, inst.actual, algo, check_actual=False,
        )
        _, trace, span, _ = out[algo]
        if span and trace:
            tracer.add_search_spans(span, [it.stats for it in trace.iterations])
    return out


def record_searches(spec: Spec, inst, outcome: dict, scale: float, rec: Recorder) -> None:
    results, problems = {}, []
    for algo in ALGOS:
        elapsed, result, _, error = outcome[algo]
        if error:
            problems.append(f"{algo} raised {error}")
            continue
        results[algo] = result
        rec.timed_s += elapsed * scale
        rec.step(algo, elapsed * scale, result.stats, len(result.diagnoses))
        problems += check_search(inst, result, spec.ld)
    rec.attempted += len(ALGOS)
    if len(results) == 2:
        r, h = results["rbfhs"], results["hstree"]
        if not same_diagnoses(inst.mode, r.diagnoses, h.diagnoses):
            problems.append(f"rbfhs and hstree lists differ ({inst.mode} mode)")
        rec.pairs.append(
            (rec.step_s["rbfhs"][-1], rec.step_s["hstree"][-1],
             r.stats.peak_live_nodes, h.stats.peak_live_nodes)
        )
    if problems:
        rec.fail(len(ALGOS), problems)


def record_sessions(spec: Spec, inst, outcome: dict, scale: float, rec: Recorder) -> None:
    """Each search step of a session is timed by its ``SearchStats.wall_time``."""
    traces, problems = {}, []
    for algo in ALGOS:
        elapsed, trace, _, error = outcome[algo]
        if error:
            problems.append(f"{algo} session raised {error}")
            continue
        traces[algo] = trace
        rec.timed_s += elapsed * scale
        rec.session_s[algo].append(elapsed * scale)
        for it in trace.iterations:
            rec.step(algo, it.stats.wall_time * scale, it.stats, len(it.diagnoses))
    rec.attempted += len(ALGOS)
    if traces:
        problems += check_sessions(inst, traces)
    if len(traces) == 2:
        r, h = traces["rbfhs"].iterations, traces["hstree"].iterations
        rec.queries.append(traces["rbfhs"].query_count)
        if len(r) == len(h):
            rec.pairs += [
                (x.stats.wall_time, y.stats.wall_time, x.stats.peak_live_nodes, y.stats.peak_live_nodes)
                for x, y in zip(r, h)
            ]
    if problems:
        rec.fail(len(ALGOS), problems)


def build(spec: Spec, seed: int) -> tuple[list, float]:
    """The instance pool and its set-up time at reference speed. The pool is
    built in slices of about SLICE_SECONDS, each between two calibrations,
    so a long set-up follows the machine's speed as it changes."""
    instances = generate(spec, seed)
    pool, total = [], 0.0

    def build_slice():
        start = perf_counter()
        while len(pool) < spec.pool and perf_counter() - start < SLICE_SECONDS:
            pool.append(next(instances))
        return perf_counter() - start

    while len(pool) < spec.pool:
        elapsed, scale = timed_scaled(build_slice)
        total += elapsed * scale
    return pool, total


def setup(spec: Spec, seed: int, reps: tuple[int, int]):
    """Build the instance pool at least reps[0] and at most reps[1] times,
    stopping once SETUP_SECONDS have passed; returns the last pool and the
    median set-up time. Cheap set-ups repeat more often, so their median is
    as steady as that of expensive ones."""
    times, pool = [], None
    started = perf_counter()
    while len(times) < reps[0] or (len(times) < reps[1] and perf_counter() - started < SETUP_SECONDS):
        pool = None  # let the previous pool go before timing the next one
        pool, seconds = build(spec, seed)
        times.append(seconds)
    return pool, statistics.median(times)


def measure(spec: Spec, pool, seconds: float, sides) -> None:
    """Closed loop over the pool in blocks of BLOCK instances, cycling if
    needed, until ``seconds`` of wall time have passed; at least one block
    always runs. Each side is a (recorder, tracer or None) pair that runs
    the whole block, between two calibrations; checks run afterwards,
    outside every timed call. With two sides, the side that goes first
    alternates, because the second run of a block finds its instances in
    the processor's caches."""
    call, record = (call_sessions, record_sessions) if spec.kind == "circuit" else (call_searches, record_searches)
    deadline = perf_counter() + seconds
    i = 0
    while i == 0 or perf_counter() < deadline:
        block = [pool[(i + j) % len(pool)] for j in range(BLOCK)]
        order = sides if i // BLOCK % 2 == 0 else sides[::-1]
        i += BLOCK
        for rec, tracer in order:
            if tracer:
                tracer.install()
            try:
                outcomes, scale = timed_scaled(lambda: [call(spec, inst, tracer) for inst in block])
            finally:
                if tracer:
                    tracer.uninstall()
            rec.scales.append(scale)
            for inst, outcome in zip(block, outcomes):
                record(spec, inst, outcome, scale, rec)


def _q(values: list[float], k: int) -> float:
    """k-th decile (k=5 median, k=9 90th percentile)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[k - 1]


def end_to_end(rec: Recorder, setup_s: float) -> tuple[dict, dict, list[str]]:
    ms = {a: [s * 1000.0 for s in rec.step_s[a]] for a in ALGOS}
    metrics = {"setup_s": (setup_s, "s")}
    notes = []
    for algo in ALGOS:
        if ms[algo]:
            metrics[f"{algo}_step_ms_p50"] = (_q(ms[algo], 5), "ms")
            metrics[f"{algo}_step_ms_p90"] = (_q(ms[algo], 9), "ms")
            metrics[f"{algo}_peak_nodes_mean"] = (statistics.mean(rec.peaks[algo]), "count")
            notes.append(f"{algo}_step_ms n={len(ms[algo])}")
    metrics["steps_per_s"] = (rec.steps / rec.timed_s, "1/s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    # Reported, not gated: only the sequential workload has sessions, and the
    # failure share is 0 on a correct program.
    info = {
        "failed_frac": (rec.failed / max(rec.attempted, 1), "ratio"),
        "time_scale_p50": (statistics.median(rec.scales), "ratio"),
    }
    for algo in ALGOS:
        if rec.peaks[algo]:
            info[f"{algo}_peak_nodes_max"] = (max(rec.peaks[algo]), "count")
        if rec.session_s[algo]:
            info[f"{algo}_session_s_p50"] = (_q(rec.session_s[algo], 5), "s")
            notes.append(f"{algo}_session_s n={len(rec.session_s[algo])}")
    if rec.queries:
        info["queries_per_session"] = (statistics.mean(rec.queries), "count")
    return metrics, info, notes


def _factors(pairs) -> dict:
    if not pairs:
        return {"search.memory_factor": (0.0, "ratio"), "search.time_factor": (0.0, "ratio")}
    memory = statistics.mean(h_peak / max(r_peak, 1) for _, _, r_peak, h_peak in pairs)
    time = statistics.mean(r_s / max(h_s, 1e-9) for r_s, h_s, _, _ in pairs)
    return {"search.memory_factor": (memory, "ratio"), "search.time_factor": (time, "ratio")}


def per_layer(rec: Recorder, plain: Recorder, totals: dict, loads_s: float) -> dict:
    """Per-layer metrics from the traced recorder and spans. Span counts and
    times are per search step, so runs that complete different numbers of
    steps compare; the factors use the untraced timings."""
    layers = totals["layers"]
    steps = max(rec.steps, 1)
    scale = statistics.median(rec.scales)

    def calls(name):
        return layers.get(name, {}).get("calls", 0)

    def secs(name):
        return layers.get(name, {}).get("s", 0.0) * scale

    m = {"dpifile.loads_s": (loads_s, "s")}
    m["logic.cnf_calls"] = (calls("logic.cnf") / steps, "1/step")
    m["logic.cnf_s"] = (secs("logic.cnf") / steps, "s/step")
    m["logic.clauses_per_cnf"] = (layers.get("logic.cnf", {}).get("count", 0) / max(calls("logic.cnf"), 1), "count")
    m["logic.sat_calls"] = (calls("logic.sat") / steps, "1/step")
    m["logic.sat_s"] = (secs("logic.sat") / steps, "s/step")
    validity = calls("dpi.validity")
    m["dpi.validity_calls"] = (validity / steps, "1/step")
    m["dpi.validity_cache_hit_frac"] = (1.0 - totals["misses"] / validity if validity else 0.0, "ratio")
    m["dpi.validity_s"] = (secs("dpi.validity") / steps, "s/step")
    m["dpi.validity_cache_entries_max"] = (layers.get("dpi.validity", {}).get("max", 0), "count")
    m["conflict.find_calls"] = (calls("conflict.find") / steps, "1/step")
    m["conflict.find_s"] = (secs("conflict.find") / steps, "s/step")
    m["conflict.qx_calls"] = (calls("conflict.qx") / steps, "1/step")
    m["conflict.checks_per_qx"] = (totals["checks_in_qx"] / max(calls("conflict.qx"), 1), "count")
    for algo in ALGOS:
        n = max(len(rec.stats[algo]), 1)
        stats = rec.stats[algo]
        labels = sum(s.label_calls for s in stats)
        reuses = sum(s.conflict_reuses for s in stats)
        computed = sum(s.conflict_computations for s in stats)
        self_s = secs(f"search.{algo}") - totals["find_by_algo"].get(algo, 0.0) * scale
        m[f"search.{algo}.self_s"] = (self_s / n, "s/step")
        m[f"search.{algo}.label_calls"] = (labels / n, "1/step")
        m[f"search.{algo}.nodes_generated"] = (sum(s.nodes_generated for s in stats) / n, "1/step")
        m[f"search.{algo}.labels_per_diagnosis"] = (labels / max(rec.diagnoses[algo], 1), "ratio")
        m[f"search.{algo}.conflict_reuse_frac"] = (reuses / max(reuses + computed, 1), "ratio")
    m["sequential.select_calls"] = (calls("sequential.select") / steps, "1/step")
    m["sequential.select_s"] = (secs("sequential.select") / steps, "s/step")
    m["sequential.partition_calls"] = (calls("sequential.partition") / steps, "1/step")
    m["sequential.update_s"] = (secs("sequential.update") / steps, "s/step")
    m.update(_factors(plain.pairs))
    m["trace.overhead_s"] = (rec.timed_s - plain.timed_s, "s")
    m["trace.overhead_frac"] = ((rec.timed_s - plain.timed_s) / max(plain.timed_s, 1e-9), "ratio")
    return m


def run_plain(name: str, seed: int, seconds: float):
    spec = WORKLOADS[name]
    pool, setup_s = setup(spec, seed, SETUP_REPS)
    rec = Recorder()
    measure(spec, pool, seconds, [(rec, None)])
    metrics, info, notes = end_to_end(rec, setup_s)
    return rec, metrics, info, notes


def run_traced(name: str, seed: int, seconds: float):
    """Each block runs untraced, then traced, so the overhead is the
    difference of two timings over the same work."""
    spec = WORKLOADS[name]
    tracer = Tracer()
    tracer.install()
    try:
        pool, _ = setup(spec, seed, (1, 1))
    finally:
        tracer.uninstall()
    loads_s = layer_totals(tracer.spans)["layers"].get("dpifile.loads", {}).get("s", 0.0)
    tracer.spans.clear()
    plain, rec = Recorder(), Recorder()
    measure(spec, pool, seconds, [(plain, None), (rec, tracer)])
    metrics = per_layer(rec, plain, layer_totals(tracer.spans), loads_s)
    tracer.write(OUT / f"spans-{name}-seed{seed}.csv")
    return rec, metrics, {"failed_frac": (rec.failed / max(rec.attempted, 1), "ratio")}, []
