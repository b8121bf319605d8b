"""Command-line surface: diag, sequential, bench, check."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import bench as bench_mod
from . import logic
from .dpi import (
    ABSTRACT,
    BRUTE_FORCE_LIMIT,
    Dpi,
    FaultProbabilities,
    brute_force_min_conflicts,
    brute_force_min_diagnoses,
    brute_force_min_hitting_sets,
    is_diagnosis,
    is_valid_set,
    log_prs,
    normalized_logs,
    reasoner_for,
)
from .dpifile import load_dpi_file
from .reasoner import Reasoner
from .search import COUNTERS, RBFHS, SEARCHES, SearchResult
from .sequential import check_session_ld, run_session


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1: {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hsdiag", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    diag = sub.add_parser("diag", help="compute leading minimal diagnoses")
    diag.add_argument("--dpi", required=True, help="DPI file")
    diag.add_argument("--algo", choices=tuple(SEARCHES), default=RBFHS)
    diag.add_argument("--mode", choices=bench_mod.MODES, default="card")
    diag.add_argument("--ld", type=positive_int, required=True)
    diag.add_argument("--trace", help="write search events to this file")
    diag.add_argument("--stats-csv", help="append one stats row to this CSV file")
    diag.set_defaults(func=cmd_diag)

    seq = sub.add_parser("sequential", help="run sequential diagnosis sessions")
    seq.add_argument("--dpi", required=True)
    seq.add_argument("--algo", choices=tuple(SEARCHES), default=RBFHS)
    seq.add_argument("--mode", choices=bench_mod.MODES, default="card")
    seq.add_argument("--ld", type=positive_int, default=4)
    seq.add_argument("--actual", help="comma-separated axiom ids of the actual diagnosis")
    seq.add_argument("--sessions", type=positive_int, default=1)
    seq.add_argument("--seed", type=int, default=0)
    seq.add_argument("--oracle", choices=("sim", "interactive"), default="sim")
    seq.add_argument("--trace-out", help="write one JSON record per iteration to this file")
    seq.add_argument("--stats-csv", help="append session stats rows to this CSV file")
    seq.set_defaults(func=cmd_sequential)

    bench = sub.add_parser("bench", help="factorial benchmark over a fixture directory")
    bench.add_argument("--fixtures", required=True, help="directory of .dpi files")
    bench.add_argument(
        "--ld", default=",".join(map(str, bench_mod.DEFAULT_LD)), help="comma-separated ld values"
    )
    bench.add_argument("--sessions", type=positive_int, default=5)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--mode", choices=bench_mod.MODES, default="card")
    bench.add_argument("--out", required=True, help="BenchRow CSV output path")
    bench.add_argument("--summary", help="per-(dpi,ld) factor CSV output path")
    bench.set_defaults(func=cmd_bench)

    check = sub.add_parser("check", help="cross-validate searches against brute force")
    check.add_argument("--dpi", required=True)
    check.add_argument("--seed", type=int, default=0)
    check.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, EOFError) as exc:  # EOFError: the interactive oracle's input ended
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory (Python MemoryError raised)", file=sys.stderr)
        return 1


def _load(args) -> tuple[Dpi, object]:
    dpi, file_pr = load_dpi_file(args.dpi)
    pr = bench_mod.pick_probabilities(dpi, file_pr, args.mode)
    return dpi, pr


def cmd_diag(args) -> int:
    dpi, pr = _load(args)
    trace = [] if args.trace else None
    result: SearchResult = SEARCHES[args.algo](dpi, pr, args.ld, trace=trace)
    _print_diagnoses(result, dpi, pr)
    if args.trace:
        Path(args.trace).write_text(
            "".join(e.line() + "\n" for e in trace), encoding="utf-8"
        )
    if args.stats_csv:
        row = bench_mod.stats_row(
            Path(args.dpi).stem, args.algo, args.ld, 0, [result.stats], len(result.diagnoses)
        )
        _append_csv(args.stats_csv, [row])
    return 0


def _print_diagnoses(result: SearchResult, dpi: Dpi, pr: FaultProbabilities) -> None:
    if not result.diagnoses:
        print("no diagnosis exists")
        return
    # log_pr stays finite where pr underflows to 0 (thousands of axioms)
    logs = log_prs(dpi, pr, [dpi.mask_of(d.ids) for d in result.diagnoses])
    for rank, (diag, log_pr, norm) in enumerate(zip(result.diagnoses, logs, normalized_logs(logs)), start=1):
        ids = ",".join(diag.ids) if diag.ids else "(empty)"
        print(f"{rank}. {ids} pr={diag.pr:.9g} log_pr={log_pr:.9g} norm={norm:.6g}")
    stats = result.stats
    calls = "" if dpi.kind == ABSTRACT else f", {stats.solver_calls} solver calls"
    print(
        f"{len(result.diagnoses)} diagnosis(es) in {stats.wall_time * 1000.0:.3f} ms{calls}"
        f" (encoding {stats.encode_s * 1000.0:.3f} ms)",
        file=sys.stderr,
    )


def _append_csv(path: str, rows) -> None:
    """Append stats rows to a CSV file, first writing the header to a new
    or blank file; a file with another header is refused, since rows
    appended under it would not line up with its columns."""
    target = Path(path)
    text = "".join(bench_mod.csv_line(r) + "\n" for r in rows)
    existing = target.read_text(encoding="utf-8") if target.exists() else ""
    if not existing.strip():
        target.write_text(bench_mod.CSV_HEADER + "\n" + text, encoding="utf-8")
        return
    header = existing.strip().splitlines()[0]
    if header != bench_mod.CSV_HEADER:
        raise ValueError(f"{path}: existing header {_header_difference(header.split(','))}")
    with target.open("a", encoding="utf-8") as fh:
        fh.write(text if existing.endswith("\n") else "\n" + text)


def _header_difference(columns: list[str]) -> str:
    """How a CSV header's columns differ from those this version writes."""
    ours = bench_mod.CSV_HEADER.split(",")
    extra = [c for c in columns if c not in ours]
    missing = [c for c in ours if c not in columns]
    parts = []
    if extra:
        parts.append(f"has {', '.join(extra)}, which this version does not write")
    if missing:
        parts.append(f"lacks {', '.join(missing)}, which this version writes")
    return "; ".join(parts) or f"orders its columns otherwise than {bench_mod.CSV_HEADER!r}"


def _interactive_answer(query) -> bool:
    wording = query.sentence if query.sentence is not None else f"component {query.axiom_id}"
    while True:
        reply = input(f"Does '{wording}' hold? [y/n] ").strip().lower()
        if reply in ("y", "yes"):
            return True
        if reply in ("n", "no"):
            return False
        print("please answer y or n", file=sys.stderr)


def _iteration_records(session: int, iterations) -> list[dict]:
    # wall time stays out of the trace records so that equal seeds produce
    # byte-identical trace files
    return [
        {
            "session": session,
            "iteration": i,
            "diagnoses": [list(d.ids) for d in it.diagnoses],
            "query": it.query.axiom_id if it.query else None,
            "answer": it.answer,
            "stats": {c: getattr(it.stats, c) for c in COUNTERS},
        }
        for i, it in enumerate(iterations)
    ]


def cmd_sequential(args) -> int:
    check_session_ld(args.ld)
    dpi, pr = _load(args)
    name = Path(args.dpi).stem
    if args.actual is not None:
        named = args.actual.split(",") if args.actual else []  # "" names the empty diagnosis
        actuals = [frozenset(part.strip() for part in named)]
    else:
        actuals = [
            d.id_set
            for d in bench_mod.sample_actuals(
                dpi, pr, args.sessions, bench_mod.derive_seed(args.seed, name), args.ld
            )
        ]
    answer_fn = _interactive_answer if args.oracle == "interactive" else None
    records = []
    rows = []
    status = 0
    for session, actual in enumerate(actuals):
        try:
            trace = run_session(
                dpi, pr, args.ld, actual, args.algo,
                answer_fn=answer_fn,
                check_actual=args.oracle != "interactive",
            )
        except (ValueError, RuntimeError) as exc:
            print(f"session {session}: failed: {exc}", file=sys.stderr)
            status = 1
            continue
        records.extend(_iteration_records(session, trace.iterations))
        records.append({"session": session, "final": list(trace.final.ids),
                        "queries": trace.query_count})
        rows.append(bench_mod.session_row(name, args.algo, args.ld, session, trace))
        print(f"session {session}: final={{{','.join(trace.final.ids)}}} "
              f"queries={trace.query_count}")
        if dpi.kind != ABSTRACT:
            calls = sum(it.stats.solver_calls for it in trace.iterations)
            print(f"session {session}: {calls} solver calls", file=sys.stderr)
    if args.trace_out:
        Path(args.trace_out).write_text(
            "".join(json.dumps(r, sort_keys=True) + "\n" for r in records), encoding="utf-8"
        )
    if args.stats_csv and rows:
        _append_csv(args.stats_csv, rows)
    return status


def cmd_bench(args) -> int:
    ld_values = tuple(int(part) for part in str(args.ld).split(","))
    rows, failures = bench_mod.run_bench(
        args.fixtures, ld_values, args.sessions, args.seed, args.mode
    )
    Path(args.out).write_text(bench_mod.write_rows(rows), encoding="utf-8")
    if args.summary:
        Path(args.summary).write_text(
            bench_mod.write_summary(bench_mod.summarize(rows)), encoding="utf-8"
        )
    for failure in failures:
        print(
            f"cell failed: {failure.dpi} {failure.algo} ld={failure.ld} "
            f"session={failure.session}: {failure.error}",
            file=sys.stderr,
        )
    print(f"{len(rows)} rows, {len(failures)} failed cells", file=sys.stderr)
    return 1 if failures else 0


def cmd_check(args) -> int:
    dpi, file_pr = load_dpi_file(args.dpi)
    if len(dpi.k_ids) > BRUTE_FORCE_LIMIT:
        raise ValueError(f"check needs |K| <= {BRUTE_FORCE_LIMIT}")
    failures = 0

    def report(name: str, ok: bool) -> None:
        nonlocal failures
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
        if not ok:
            failures += 1

    reasoner = reasoner_for(dpi)  # one encoding for every check below
    oracle_diags = brute_force_min_diagnoses(dpi)
    oracle_sets = {d.id_set for d in oracle_diags}
    oracle_conflicts = brute_force_min_conflicts(dpi)
    modes = ["card"] + (["prob"] if file_pr is not None else [])
    results = []
    for mode in modes:
        pr = bench_mod.pick_probabilities(dpi, file_pr, mode)
        results += [(mode, search(dpi, pr, None, debug=True)) for search in SEARCHES.values()]
    for mode, result in results:
        tag = f"{result.algorithm}[{mode}]"
        report(
            f"{tag} returns exactly the brute-force minimal diagnoses",
            set(result.diagnosis_sets()) == oracle_sets
            and len(result.diagnoses) == len(oracle_diags),
        )
        prs = [d.pr for d in result.diagnoses]
        report(f"{tag} emits non-increasing probabilities",
               all(a >= b - 1e-15 for a, b in zip(prs, prs[1:])))
        report(
            f"{tag} stored conflicts are minimal conflicts",
            all(
                not is_valid_set(dpi, conflict, reasoner)
                and all(is_valid_set(dpi, set(conflict) - {e}, reasoner) for e in conflict)
                for conflict in result.conflicts
            ),
        )
    report(
        "hitting-set property: minimal diagnoses = minimal hitting sets of minimal conflicts",
        {frozenset(h) for h in brute_force_min_hitting_sets(oracle_conflicts, dpi.k_ids)}
        == oracle_sets,
    )
    report(
        "every minimal diagnosis hits every minimal conflict",
        all(d.id_set & set(c) for d in oracle_diags for c in oracle_conflicts),
    )
    report("duality on sampled subsets", _duality_sample(dpi, args.seed, reasoner))
    print("all checks passed" if failures == 0 else f"{failures} check(s) failed")
    return 0 if failures == 0 else 1


def _duality_sample(dpi: Dpi, seed: int, reasoner: Reasoner | None, limit: int = 4096) -> bool:
    """Duality on sampled subsets D of K: ``is_diagnosis(D)`` against a test
    of K minus D that shares nothing with it. On the reasoner backend that
    test encodes the complement's sentences with B and P into a fresh CNF,
    checks it consistent and checks that it entails no negative
    measurement; on the abstract backend it looks for a conflict whose ids
    all lie in the complement."""
    import random

    n = len(dpi.k_ids)
    if 2**n <= limit:
        masks = range(2**n)
    else:
        rng = random.Random(seed)
        masks = (rng.getrandbits(n) for _ in range(limit))
    if dpi.kind == ABSTRACT:
        family = dpi.family_sets()

        def valid(rest: list[str]) -> bool:
            present = set(rest)
            return not any(member <= present for member in family)

    else:
        known = [*dpi.background, *dpi.positive]

        def valid(rest: list[str]) -> bool:
            sentences = known + [dpi.formula_of(a) for a in rest]
            return logic.is_consistent(sentences) and not any(
                logic.entails(sentences, m) for m in dpi.negative
            )

    for mask in masks:
        subset = [dpi.k_ids[i] for i in range(n) if mask >> i & 1]
        rest = [dpi.k_ids[i] for i in range(n) if not mask >> i & 1]
        if is_diagnosis(dpi, subset, reasoner) != valid(rest):
            return False
    return True


if __name__ == "__main__":
    sys.exit(main())
