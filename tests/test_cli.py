import csv
import io
import json
import math
from pathlib import Path

import pytest
from hypothesis import assume, given, strategies as st

from hsdiag import (
    Dpi,
    DpiFileError,
    FaultProbabilities,
    dumps,
    gen_random_dpi,
    load_dpi_file,
    loads,
    make_query,
    parse_formula,
    update_dpi,
)
from hsdiag.bench import (
    BenchRow,
    CSV_HEADER,
    SUMMARY_HEADER,
    SummaryRow,
    csv_line,
    read_rows,
    stats_row,
    write_rows,
    write_summary,
)
from hsdiag.cli import main
from hsdiag.dpifile import _valid_axiom_id
from hsdiag.reasoner import Reasoner
from hsdiag.search import COUNTERS, SEARCHES, SearchStats

from conftest import FIXTURES


# --- DPI file loading ---------------------------------------------------------

def test_load_table1(table1):
    dpi, pr = table1
    assert dpi.kind == "reasoner"
    assert len(dpi.k_ids) == 5
    assert dpi.negative == frozenset({parse_formula("!A")})
    assert dpi.background == frozenset()
    assert pr.values == {"ax1": 0.1, "ax2": 0.05, "ax3": 0.1, "ax4": 0.05, "ax5": 0.15}


def test_load_ex4(ex4):
    dpi, pr = ex4
    assert dpi.kind == "abstract"
    assert len(dpi.k_ids) == 7
    assert len(dpi.conflict_family) == 4
    assert [pr[a] for a in dpi.k_ids] == [0.26, 0.18, 0.21, 0.41, 0.18, 0.40, 0.18]


def test_load_rejects_out_of_range_probability(tmp_path):
    path = tmp_path / "bad.dpi"
    path.write_text("[K]\nax1: A\n[PR]\nax1: 1.2\n")
    with pytest.raises(DpiFileError, match="out of \\(0,1\\)"):
        load_dpi_file(path)


def test_load_rejects_duplicate_id(tmp_path):
    path = tmp_path / "dup.dpi"
    path.write_text("[K]\nax1: A\nax1: B\n")
    with pytest.raises(DpiFileError, match="dup.dpi:3: duplicate axiom id"):
        load_dpi_file(path)


def test_load_rejects_non_antichain(tmp_path):
    path = tmp_path / "chain.dpi"
    path.write_text("[COMPONENTS]\n3\n[CONFLICTS]\n1 2\n1 2 3\n")
    with pytest.raises(DpiFileError, match="antichain"):
        load_dpi_file(path)


def test_load_reports_formula_position():
    with pytest.raises(DpiFileError, match=":3:"):
        loads("[K]\nax1: A -> B\nax2: A -> \n", source="x.dpi")


def test_load_rejects_unknown_section():
    with pytest.raises(DpiFileError, match="unknown section"):
        loads("[WHAT]\n1\n")


def test_load_rejects_missing_probability():
    with pytest.raises(DpiFileError, match="missing probability"):
        loads("[K]\nax1: A\nax2: B\n[PR]\nax1: 0.2\n")


def test_load_rejects_unknown_conflict_component():
    with pytest.raises(DpiFileError, match="unknown components"):
        loads("[COMPONENTS]\n2\n[CONFLICTS]\n1 5\n")


def test_load_rejects_conflict_naming_a_component_twice():
    with pytest.raises(DpiFileError, match="names a component twice") as exc:
        loads("[COMPONENTS]\n3\n[CONFLICTS]\n2 3\n1 1 2\n")
    assert exc.value.line == 5


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("[K]\nax1: A\n[K]\nax2: B\n", 3, r"section \[K\] repeated"),
        ("[K]\nax1: A\n[COMPONENTS]\n2\n", None, "mixes propositional"),
        ("[PR]\n1: 0.1\n", None, r"needs a \[K\] or a \[COMPONENTS\] section"),
        ("[K]\nax1 A\n", 2, "K line must read 'id: formula'"),
        ("[K]\n: A\n", 2, "empty axiom id"),
        ("[K]\n[B]\nA\n", None, r"section \[K\] is empty"),
        ("[COMPONENTS]\n[CONFLICTS]\n", None, "must hold exactly one integer line"),
        ("[COMPONENTS]\nthree\n", 2, "component count is not an integer: 'three'"),
        ("[COMPONENTS]\n0\n", 2, "component count must be positive: 0"),
        ("[K]\nax1: A\n[PR]\nax1 0.1\n", 4, "PR line must read 'id: value'"),
        ("[K]\nax1: A\n[PR]\nax2: 0.1\n", 4, "probability for unknown axiom 'ax2'"),
        ("[K]\nax1: A\n[PR]\nax1: 0.1\nax1: 0.2\n", 5, "duplicate probability for 'ax1'"),
        ("[K]\nax1: A\n[PR]\nax1: high\n", 4, "probability is not a number: 'high'"),
        ("[K]\nax1: A\na,b: B\n", 3, "invalid axiom id 'a,b'"),
    ],
)
def test_load_rejects_malformed_input_at_its_line(text, line, message):
    with pytest.raises(DpiFileError, match=message) as exc:
        loads(text, source="x.dpi")
    assert exc.value.line == line
    assert str(exc.value).startswith("x.dpi: " if line is None else f"x.dpi:{line}: ")


def run_cli(args, cwd, stdin=""):
    """The CLI in a child process, as a user runs it, reading ``stdin``."""
    import os
    import subprocess
    import sys

    repo = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(repo / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "hsdiag.cli", *args],
        input=stdin, capture_output=True, text=True, cwd=cwd, env=env, timeout=30,
    )


@pytest.mark.parametrize(
    "args", [["diag", "--ld", "3"], ["diag", "--algo", "hstree", "--ld", "3"], ["check"]]
)
def test_cli_rejects_conflict_naming_a_component_twice(tmp_path, args):
    # both searches used to loop without end on this file, and check to
    # print a traceback
    path = tmp_path / "dup.dpi"
    path.write_text("[COMPONENTS]\n3\n[CONFLICTS]\n1 1 2\n")
    proc = run_cli([*args, "--dpi", str(path)], tmp_path)
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [
        "error: dup.dpi:4: conflict names a component twice: ['1', '1', '2']"
    ]


def test_dump_load_round_trip(table1, ex4, tmp_path):
    for dpi, pr in (table1, ex4):
        text = dumps(dpi, pr)
        again, pr_again = loads(text)
        assert dumps(again, pr_again) == text
        assert again.k_ids == dpi.k_ids
        assert again.kind == dpi.kind
        if dpi.kind == "reasoner":
            assert again.formulas == dpi.formulas
            assert (again.background, again.positive, again.negative) == (
                dpi.background, dpi.positive, dpi.negative
            )
        else:
            assert again.conflict_family == dpi.conflict_family
        assert pr_again.values == pr.values


def test_loads_builds_each_dpi_once(monkeypatch):
    # the DPI is built with its probabilities: no second __post_init__ (and
    # antichain check) to attach them
    calls = []
    post_init = Dpi.__post_init__

    def counting(self):
        calls.append(self.kind)
        post_init(self)

    monkeypatch.setattr(Dpi, "__post_init__", counting)
    for name in ("table1.dpi", "ex4.dpi"):
        text = (FIXTURES / name).read_text()
        assert "[PR]" in text
        del calls[:]
        dpi, pr = loads(text)
        assert len(calls) == 1
        assert pr is not None and dpi.pr is pr


def test_dump_load_round_trip_random_abstract():
    for seed in range(6):
        dpi = gen_random_dpi(9, 5, 4, seed)
        again, _ = loads(dumps(dpi))
        assert again.conflict_family == dpi.conflict_family


def test_dumps_rejects_abstract_ids_the_format_cannot_name():
    # the format numbers abstract components 1..n; other ids would come back
    # as text that loads rejects
    with pytest.raises(ValueError, match="1..n"):
        dumps(Dpi.abstract(["c0", "c1"], [("c0", "c1")]))
    with pytest.raises(ValueError, match="1..n"):
        dumps(Dpi.abstract(["2", "1"], [("1", "2")]))


@pytest.mark.parametrize(
    "axiom_id",
    ["a:b", "a#b", "", "a\nb", "a\u2028b", " a", "a\t", "a,b"],
    ids=["colon", "hash", "empty", "newline", "line-separator", "leading-space", "trailing-tab", "comma"],
)
def test_dumps_rejects_axiom_ids_loads_cannot_read(axiom_id):
    # loads reads an id up to the line's first ':', strips it and cuts the
    # line at '#', so each of these but the last would come back refused or
    # renamed; the CLI splits id lists on ',', so loads refuses that too
    dpi = Dpi.propositional([(axiom_id, parse_formula("x")), ("ok", parse_formula("y"))])
    with pytest.raises(ValueError, match="cannot write axiom id"):
        dumps(dpi)


@given(st.text(min_size=1, max_size=12))
def test_every_id_the_rule_accepts_survives_dumps_and_loads(axiom_id):
    assume(_valid_axiom_id(axiom_id))
    dpi = Dpi.propositional([(axiom_id, parse_formula("x"))])
    again, pr = loads(dumps(dpi, FaultProbabilities({axiom_id: 0.25})))
    assert again.k_ids == (axiom_id,)
    assert pr.values == {axiom_id: 0.25}


def test_dumps_refuses_axioms_answered_positive():
    # the format has no section for them, so loads would drop them
    dpi = Dpi.abstract(3, [("1", "3"), ("2", "3")])
    updated = update_dpi(dpi, make_query(dpi, "3"), True)
    assert updated.positive_ids == {"3"}
    with pytest.raises(ValueError, match="answered positive"):
        dumps(updated)


def test_dumps_refuses_an_empty_conflict():
    # it would be a blank [CONFLICTS] line, which loads skips, so the
    # reloaded DPI would list the empty set as a diagnosis
    with pytest.raises(ValueError, match="empty conflict"):
        dumps(Dpi.abstract(3, [()]))


def test_dumps_writes_ids_with_inner_spaces_and_punctuation():
    dpi = Dpi.propositional([("gate 1", parse_formula("x")), ("g.2-b[0]", parse_formula("!x"))])
    again, _ = loads(dumps(dpi))
    assert again.k_ids == dpi.k_ids


# --- BenchRow CSV ----------------------------------------------------------------

def make_row(**kw):
    base = dict(
        dpi="t", algo="rbfhs", ld=4, session=0, runtime_ms=1.25,
        peak_live_nodes=9, nodes_generated=27, label_calls=21,
        conflict_computations=8, conflict_reuses=6, peak_held_diagnoses=2,
        diagnoses_found=4,
    )
    base.update(kw)
    return BenchRow(**base)


def test_bench_rows_round_trip():
    rows = [make_row(), make_row(algo="hstree", runtime_ms=0.3333333333333333)]
    assert read_rows(write_rows(rows)) == rows


def test_bench_row_with_comma_in_name_round_trips():
    row = make_row(dpi="a,b")
    assert csv_line(row).startswith('"a,b",rbfhs,')
    assert read_rows(write_rows([row])) == [row]
    assert csv_line(make_row()) == "t,rbfhs,4,0,1.25,9,27,21,8,6,2,4"


def test_summary_row_with_comma_in_name_keeps_four_columns():
    text = write_summary([SummaryRow("a,b", 2, 1.5, 0.1), SummaryRow("t", 6, 2.0, 1 / 3)])
    assert text == f'{SUMMARY_HEADER}\n"a,b",2,1.5,0.1\nt,6,2.0,0.3333333333333333\n'
    assert [len(r) for r in csv.reader(io.StringIO(text))] == [4, 4, 4]


def test_bench_header_exact():
    assert CSV_HEADER == (
        "dpi,algo,ld,session,runtime_ms,peak_live_nodes,nodes_generated,"
        "label_calls,conflict_computations,conflict_reuses,peak_held_diagnoses,"
        "diagnoses_found"
    )


def test_counters_are_bench_columns_in_order():
    assert [c for c in CSV_HEADER.split(",") if c in COUNTERS] == list(COUNTERS)


def test_stats_row_sums_counters_and_takes_the_largest_peak():
    a = SearchStats(9, 27, 21, 8, 6, 5, wall_time=0.5)
    b = SearchStats(4, 10, 7, 3, 5, 1, wall_time=0.25)
    row = stats_row("t", "hstree", 4, 1, [a, b], 3)
    assert {c: getattr(row, c) for c in COUNTERS} == {
        "peak_live_nodes": 9,
        "nodes_generated": 37,
        "label_calls": 28,
        "conflict_computations": 11,
        "conflict_reuses": 11,
        "peak_held_diagnoses": 5,
    }
    assert (row.runtime_ms, row.diagnoses_found) == (750.0, 3)


def test_bench_row_invariants():
    with pytest.raises(ValueError, match="exceeds ld"):
        make_row(diagnoses_found=5)
    with pytest.raises(ValueError, match="non-negative"):
        make_row(peak_live_nodes=-1)


# --- diag command -------------------------------------------------------------------

def table1_path():
    return str(FIXTURES / "table1.dpi")


def ex4_path():
    return str(FIXTURES / "ex4.dpi")


def test_diag_card_mode_table1(capsys):
    assert main(["diag", "--dpi", table1_path(), "--algo", "rbfhs",
                 "--mode", "card", "--ld", "10"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    found = {line.split()[1] for line in lines}
    assert found == {"ax2,ax3", "ax2,ax5", "ax1,ax3", "ax1,ax4"}


def test_diag_prob_mode_ex4_order(capsys):
    assert main(["diag", "--dpi", ex4_path(), "--algo", "rbfhs",
                 "--mode", "prob", "--ld", "4"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert [line.split()[1] for line in lines] == ["1,4", "1,6", "4,5", "2,4,6"]


def test_diag_ld_zero_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["diag", "--dpi", table1_path(), "--ld", "0"])
    assert exc.value.code == 2


def test_diag_missing_file_fails(capsys):
    assert main(["diag", "--dpi", "no-such.dpi", "--ld", "2"]) == 1
    assert "error:" in capsys.readouterr().err


def test_diag_deep_formula_fails_without_traceback(tmp_path, capsys):
    # a 3,000-conjunct formula nests deeper than Python's recursion limit
    path = tmp_path / "deep.dpi"
    conjuncts = " & ".join(f"x{i}" for i in range(3000))
    path.write_text(f"[K]\nax1: {conjuncts}\nax2: !x0\n[N]\ny\n")
    assert main(["diag", "--dpi", str(path), "--ld", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "nested too deeply" in err
    assert "Traceback" not in err


def test_diag_reports_encoding_time(capsys):
    assert main(["diag", "--dpi", table1_path(), "--mode", "card", "--ld", "4"]) == 0
    summary = capsys.readouterr().err.strip().splitlines()[-1]
    assert summary.startswith("4 diagnosis(es) in ") and summary.endswith(" ms)")
    assert float(summary.split("(encoding ")[1].split()[0]) > 0


@pytest.mark.parametrize("algo", SEARCHES)
def test_diag_reports_the_searchs_solver_calls(algo, monkeypatch, capsys):
    # the summary names the solver calls of the search it printed, and only
    # on a reasoner DPI
    results = []
    search = SEARCHES[algo]

    def kept(*args, **kwargs):
        results.append(search(*args, **kwargs))
        return results[-1]

    monkeypatch.setitem(SEARCHES, algo, kept)
    assert main(["diag", "--dpi", table1_path(), "--algo", algo, "--mode", "prob", "--ld", "4"]) == 0
    summary = capsys.readouterr().err.strip().splitlines()[-1]
    calls = results[0].stats.solver_calls
    assert calls > 0
    assert summary.split(" ms, ")[1].startswith(f"{calls} solver calls (encoding ")
    assert main(["diag", "--dpi", ex4_path(), "--algo", algo, "--mode", "prob", "--ld", "4"]) == 0
    assert "solver calls" not in capsys.readouterr().err


def test_diag_rbfhs_finds_a_diagnosis_deeper_than_the_recursion_limit(tmp_path, capsys):
    # 1,500 singleton conflicts: the one diagnosis lies 1,500 levels down
    ids = [str(i + 1) for i in range(1500)]
    path = tmp_path / "deep.dpi"
    path.write_text(dumps(Dpi.abstract(ids, [[a] for a in ids])))
    assert main(["diag", "--dpi", str(path), "--algo", "rbfhs", "--mode", "card", "--ld", "1"]) == 0
    out, err = capsys.readouterr()
    assert "error:" not in err
    assert out.split()[1] == ",".join(ids)


def test_diag_prob_mode_requires_pr(tmp_path, capsys):
    path = tmp_path / "nopr.dpi"
    path.write_text("[K]\nax1: A\nax2: !A\n")
    assert main(["diag", "--dpi", str(path), "--mode", "prob", "--ld", "2"]) == 1
    assert "PR" in capsys.readouterr().err


def test_diag_trace_and_stats(tmp_path, capsys):
    trace = tmp_path / "trace.txt"
    stats = tmp_path / "stats.csv"
    assert main(["diag", "--dpi", ex4_path(), "--mode", "prob", "--ld", "4",
                 "--trace", str(trace), "--stats-csv", str(stats)]) == 0
    capsys.readouterr()
    events = trace.read_text().splitlines()
    assert sum(1 for line in events if line.startswith("BACKTRACK")) == 7
    rows = read_rows(stats.read_text())
    assert rows[0].dpi == "ex4" and rows[0].diagnoses_found == 4


def test_diag_trace_matches_the_golden_ex4_trace(tmp_path, capsys):
    # tests/ex4_trace.txt is written by
    # PYTHONPATH=src python -m hsdiag.cli diag --dpi fixtures/ex4.dpi --mode prob --ld 4 --trace tests/ex4_trace.txt
    trace = tmp_path / "trace.txt"
    assert main(["diag", "--dpi", ex4_path(), "--mode", "prob", "--ld", "4", "--trace", str(trace)]) == 0
    capsys.readouterr()
    golden = Path(__file__).resolve().parent / "ex4_trace.txt"
    assert trace.read_bytes() == golden.read_bytes()


@pytest.mark.parametrize(
    "command", [["diag"], ["sequential", "--actual", "ax1,ax3"]], ids=["diag", "sequential"]
)
def test_stats_csv_appends_only_under_the_stats_header(tmp_path, capsys, command):
    stats = tmp_path / "stats.csv"
    stats.write_text(CSV_HEADER)  # no line end: the first row must not join the header
    argv = [*command, "--dpi", table1_path(), "--ld", "4", "--stats-csv", str(stats)]
    assert main(argv) == 0
    assert main(argv) == 0
    assert len(read_rows(stats.read_text())) == 2
    # a file written while rows still had the peak_learned_costs column
    old = (
        CSV_HEADER.replace(",peak_held_diagnoses", ",peak_learned_costs,peak_held_diagnoses")
        + "\nt,rbfhs,4,0,1.25,9,27,21,8,6,3,2,4\n"
    )
    stats.write_text(old)
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == (
        f"error: {stats}: existing header has peak_learned_costs, which this version does not write"
    )
    assert stats.read_text() == old


@pytest.mark.parametrize(
    "header,difference",
    [
        (
            CSV_HEADER.replace(",label_calls", ",held,old"),
            "has held, old, which this version does not write; lacks label_calls, which this version writes",
        ),
        (CSV_HEADER.replace(",diagnoses_found", ""), "lacks diagnoses_found, which this version writes"),
        (
            CSV_HEADER.replace("dpi,algo,", "algo,dpi,"),
            f"orders its columns otherwise than {CSV_HEADER!r}",
        ),
    ],
    ids=["extra-and-missing", "missing", "reordered"],
)
def test_stats_csv_refusal_names_the_differing_columns(tmp_path, capsys, header, difference):
    stats = tmp_path / "stats.csv"
    stats.write_text(header + "\n")
    argv = ["diag", "--dpi", table1_path(), "--ld", "4", "--stats-csv", str(stats)]
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines()[-1] == f"error: {stats}: existing header {difference}"
    assert stats.read_text() == header + "\n"


def test_diag_normalized_column_sums_to_one(capsys):
    main(["diag", "--dpi", ex4_path(), "--mode", "prob", "--ld", "4"])
    out = capsys.readouterr().out
    norms = [float(line.split("norm=")[1]) for line in out.splitlines() if "norm=" in line]
    assert sum(norms) == pytest.approx(1.0, abs=1e-4)


def test_diag_normalizes_probabilities_that_underflow(tmp_path, capsys):
    # each diagnosis of 2,000 components has a probability below the
    # smallest float; the normalized column is still computed, in log space
    path = tmp_path / "wide.dpi"
    path.write_text(dumps(Dpi.abstract(2000, [("1", "2"), ("3", "4")])))
    assert main(["diag", "--dpi", str(path), "--mode", "card", "--ld", "3"]) == 0
    out = capsys.readouterr().out
    norms = [float(line.split("norm=")[1]) for line in out.splitlines() if "norm=" in line]
    assert norms == pytest.approx([1 / 3] * 3, abs=1e-6)


def diag_columns(out: str, name: str) -> list[float]:
    return [float(line.split(f"{name}=")[1].split()[0]) for line in out.splitlines() if "norm=" in line]


@pytest.mark.parametrize(
    "conflicts,cards",
    [
        ([("1", "2"), ("3", "4")], [2, 2, 2]),  # equally probable diagnoses
        ([("1", "2"), ("1", "3", "4")], [1, 2, 2]),  # {1} ranks above {2,3} and {2,4}
    ],
)
def test_diag_prints_log_probabilities_past_underflow(tmp_path, capsys, conflicts, cards):
    # pr underflows to 0 at 2,000 components; log_pr keeps the ranking, and
    # norm= stays the last column
    path = tmp_path / "wide.dpi"
    path.write_text(dumps(Dpi.abstract(2000, conflicts)))
    assert main(["diag", "--dpi", str(path), "--mode", "card", "--ld", "3"]) == 0
    out = capsys.readouterr().out
    assert diag_columns(out, "pr") == [0.0] * 3
    logs = diag_columns(out, "log_pr")
    expected = [c * math.log(1 / 3) + (2000 - c) * math.log(2 / 3) for c in cards]
    assert all(math.isfinite(v) for v in logs)
    assert logs == pytest.approx(expected, rel=1e-8)
    assert len(set(logs)) == len(set(cards))
    assert all(line.split()[-1].startswith("norm=") for line in out.splitlines() if "norm=" in line)


# --- sequential command ----------------------------------------------------------------

def test_sequential_actual_flag(tmp_path, capsys):
    trace_out = tmp_path / "trace.jsonl"
    code = main(["sequential", "--dpi", table1_path(), "--ld", "4",
                 "--actual", "ax1,ax3", "--algo", "rbfhs",
                 "--trace-out", str(trace_out)])
    assert code == 0
    out = capsys.readouterr().out
    assert "final={ax1,ax3}" in out
    records = [json.loads(l) for l in trace_out.read_text().splitlines()]
    assert records[-1]["final"] == ["ax1", "ax3"]
    assert records[-1]["queries"] == 2
    iterations = [r for r in records if "iteration" in r]
    assert len(iterations) == 3
    assert all(sorted(r["stats"]) == sorted(COUNTERS) for r in iterations)


def test_sequential_seeded_sessions_deterministic(tmp_path, capsys):
    args = ["sequential", "--dpi", table1_path(), "--ld", "4",
            "--sessions", "5", "--seed", "7"]
    assert main(args + ["--trace-out", str(tmp_path / "a.jsonl")]) == 0
    first = capsys.readouterr().out
    assert main(args + ["--trace-out", str(tmp_path / "b.jsonl")]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert (tmp_path / "a.jsonl").read_text() == (tmp_path / "b.jsonl").read_text()


def test_sequential_interactive_scripted_stdin(tmp_path, capsys, monkeypatch):
    sim = main(["sequential", "--dpi", table1_path(), "--ld", "4", "--actual", "ax1,ax3"])
    assert sim == 0
    sim_out = capsys.readouterr().out
    answers = iter(["n", "n"])  # oracle says: ax1 faulty, ax3 faulty
    monkeypatch.setattr("builtins.input", lambda prompt="": next(answers))
    code = main(["sequential", "--dpi", table1_path(), "--ld", "4",
                 "--actual", "ax1,ax3", "--oracle", "interactive"])
    assert code == 0
    assert capsys.readouterr().out == sim_out


def test_sequential_interactive_input_ended(tmp_path):
    # an empty stdin used to end in an EOFError traceback
    proc = run_cli(["sequential", "--dpi", str(FIXTURES / "ex4.dpi"), "--mode", "prob",
                    "--oracle", "interactive", "--actual", "1,4"], tmp_path)
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == ["error: EOF when reading a line"]


def test_sequential_invalid_actual(capsys):
    assert main(["sequential", "--dpi", table1_path(), "--actual", "ax1"]) == 1
    assert "not a minimal diagnosis" in capsys.readouterr().err


def test_sequential_reports_each_sessions_solver_calls(monkeypatch, capsys):
    # one stderr line per session, summing its iterations' solver calls, and
    # only on a reasoner DPI
    import hsdiag.cli as cli

    traces = []
    run_session = cli.run_session

    def kept(*args, **kwargs):
        traces.append(run_session(*args, **kwargs))
        return traces[-1]

    monkeypatch.setattr(cli, "run_session", kept)
    argv = ["sequential", "--dpi", table1_path(), "--mode", "prob", "--ld", "4", "--sessions", "3"]
    assert main(argv) == 0
    calls = [sum(it.stats.solver_calls for it in t.iterations) for t in traces]
    assert len(calls) == 3 and all(calls)
    assert capsys.readouterr().err.splitlines() == [
        f"session {i}: {n} solver calls" for i, n in enumerate(calls)
    ]
    assert main(["sequential", "--dpi", ex4_path(), "--mode", "prob", "--ld", "4", "--sessions", "2"]) == 0
    assert "solver calls" not in capsys.readouterr().err


def test_sequential_empty_actual_names_the_empty_diagnosis(capsys):
    # an empty --actual used to run a sampled session instead
    assert main(["sequential", "--dpi", table1_path(), "--ld", "4", "--actual", ""]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "session 0: failed: designated actual [] is not a minimal diagnosis"
    ]
    assert "final=" not in captured.out


# --- bench command ----------------------------------------------------------------------

def test_load_rejects_content_before_section():
    with pytest.raises(DpiFileError, match="before any section"):
        loads("ax1: A\n[K]\nax1: A\n")


def test_bench_ld_default_is_the_evaluation_grid():
    from hsdiag.cli import build_parser

    args = build_parser().parse_args(["bench", "--fixtures", "x", "--out", "y"])
    assert [int(v) for v in args.ld.split(",")] == [2, 6, 10, 20]


def test_bench_empty_directory(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--fixtures", str(tmp_path), "--out", str(out)]) == 0
    assert out.read_text() == CSV_HEADER + "\n"


@pytest.mark.parametrize("kind", ["missing", "file"])
def test_bench_refuses_a_fixtures_path_that_is_not_a_directory(tmp_path, capsys, kind):
    # both used to write a header-only CSV and exit 0
    fixtures = tmp_path / "fx"
    if kind == "file":
        fixtures.write_text(dumps(gen_random_dpi(8, 4, 3, 1)))
    out = tmp_path / "bench.csv"
    assert main(["bench", "--fixtures", str(fixtures), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: fixture path is not a directory: {fixtures}"
    ]
    assert not out.exists()


def test_bench_refuses_a_repeated_ld_value(tmp_path, capsys):
    # `--ld 2,2` used to write every cell twice
    out = tmp_path / "bench.csv"
    assert main(["bench", "--fixtures", str(FIXTURES), "--ld", "2,2", "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: repeated ld value: 2"]
    assert not out.exists()


def test_bench_exits_1_when_a_cell_failed(tmp_path, capsys):
    fixtures = tmp_path / "fx"
    fixtures.mkdir()
    (fixtures / "bad.dpi").write_text("[K]\nax1: A &\n")
    (fixtures / "good.dpi").write_text(dumps(gen_random_dpi(8, 4, 3, 1)))
    out = tmp_path / "rows.csv"
    assert main(["bench", "--fixtures", str(fixtures), "--ld", "2", "--sessions", "1",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("cell failed: bad * ld=0 session=0: bad.dpi:2: ")
    assert err[-1] == "2 rows, 1 failed cells"
    assert {row.dpi for row in read_rows(out.read_text())} == {"good"}


@pytest.mark.parametrize(
    "text, args, message",
    [
        (
            "[K]\nax1: " + "!" * 1200 + "x\n",
            ["diag", "--dpi", "{dpi}", "--ld", "2"],
            "input is nested too deeply (Python recursion limit reached)",
        ),
        (dumps(Dpi.abstract(21, [["1"]])), ["check", "--dpi", "{dpi}"], "check needs |K| <= 20"),
        (
            "",
            ["bench", "--fixtures", "{dir}", "--ld", "0", "--out", "{dir}/o.csv"],
            "sessions need ld of at least 2 to detect isolation: 0",
        ),
        (
            (FIXTURES / "ex4.dpi").read_text(),
            ["bench", "--fixtures", "{dir}", "--ld", "2,1", "--out", "{dir}/o.csv"],
            "sessions need ld of at least 2 to detect isolation: 1",
        ),
        (
            (FIXTURES / "ex4.dpi").read_text(),
            ["sequential", "--dpi", "{dpi}", "--ld", "1", "--sessions", "2"],
            "sessions need ld of at least 2 to detect isolation: 1",
        ),
    ],
    ids=["deeply-negated-axiom", "check-above-20-axioms", "bench-ld-0", "bench-ld-1", "sequential-ld-1"],
)
def test_cli_reports_bad_input_in_one_error_line(tmp_path, capsys, text, args, message):
    dpi = tmp_path / "input.dpi"
    dpi.write_text(text)
    assert main([a.format(dpi=dpi, dir=tmp_path) for a in args]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cli_reports_memory_exhaustion_in_one_error_line(monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setitem(SEARCHES, "hstree", exhausted)
    args = ["diag", "--dpi", str(FIXTURES / "ex4.dpi"), "--algo", "hstree", "--ld", "10"]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: out of memory (Python MemoryError raised)\n"


def test_bench_factorial_and_determinism(tmp_path, capsys):
    fixtures = tmp_path / "fx"
    fixtures.mkdir()
    for seed in (1, 2):
        dpi = gen_random_dpi(8, 4, 3, seed)
        (fixtures / f"r{seed}.dpi").write_text(dumps(dpi))
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    summary = tmp_path / "s.csv"
    args = ["bench", "--fixtures", str(fixtures), "--ld", "2,4",
            "--sessions", "2", "--seed", "3"]
    assert main(args + ["--out", str(out_a), "--summary", str(summary)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    rows_a, rows_b = read_rows(out_a.read_text()), read_rows(out_b.read_text())
    assert len(rows_a) == 2 * 2 * 2 * 2  # dpi x algo x ld x session
    strip = lambda rows: [
        (r.dpi, r.algo, r.ld, r.session, r.peak_live_nodes, r.nodes_generated,
         r.label_calls, r.conflict_computations, r.conflict_reuses, r.diagnoses_found)
        for r in rows
    ]
    assert strip(rows_a) == strip(rows_b)  # runtime column exempt
    summary_lines = summary.read_text().splitlines()
    assert summary_lines[0] == "dpi,ld,memory_factor,time_factor"
    assert len(summary_lines) == 1 + 2 * 2


def test_bench_on_shipped_fixtures_memory_direction(tmp_path):
    out, summary = tmp_path / "rows.csv", tmp_path / "sum.csv"
    assert main(["bench", "--fixtures", str(FIXTURES), "--ld", "2,4", "--sessions", "2",
                 "--seed", "3", "--out", str(out), "--summary", str(summary)]) == 0
    from hsdiag.bench import SUMMARY_HEADER

    lines = summary.read_text().splitlines()
    assert lines[0] == SUMMARY_HEADER
    factors = {tuple(l.split(",")[:2]): float(l.split(",")[2]) for l in lines[1:]}
    assert all(f > 0 for f in factors.values())
    assert factors[("ex4", "2")] >= 1.0
    assert factors[("ex4", "4")] >= 1.0


def test_bench_summary_recomputable_from_rows(tmp_path):
    from hsdiag.bench import summarize, write_summary

    fixtures = tmp_path / "fx"
    fixtures.mkdir()
    (fixtures / "r.dpi").write_text(dumps(gen_random_dpi(8, 4, 3, 1)))
    out, summary = tmp_path / "rows.csv", tmp_path / "sum.csv"
    assert main(["bench", "--fixtures", str(fixtures), "--ld", "2,4", "--sessions", "2",
                 "--out", str(out), "--summary", str(summary)]) == 0
    # the summary is a pure function of the emitted rows
    recomputed = write_summary(summarize(read_rows(out.read_text())))
    assert recomputed == summary.read_text()


def test_console_script_entry_point(tmp_path):
    # Runs the `hsdiag` script declared in pyproject.toml in a fresh process,
    # the way pip's generated wrapper calls it, so no install is needed.
    import os
    import subprocess
    import sys

    tomllib = pytest.importorskip("tomllib")
    repo = Path(__file__).resolve().parent.parent
    with open(repo / "pyproject.toml", "rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["hsdiag"]
    module, func = target.split(":")
    wrapper = (
        f"import sys\nfrom {module} import {func} as entry\n"
        "sys.argv[0] = 'hsdiag'\nsys.exit(entry())\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(repo / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", wrapper,
         "diag", "--dpi", table1_path(), "--mode", "card", "--ld", "4"],
        capture_output=True, text=True, cwd=tmp_path, env=env,
    )
    assert proc.returncode == 0
    assert len([l for l in proc.stdout.splitlines() if l.strip()]) == 4


# --- check command ---------------------------------------------------------------------

def test_check_passes_on_fixtures(capsys):
    assert main(["check", "--dpi", table1_path()]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert main(["check", "--dpi", ex4_path()]) == 0


def test_check_encodes_the_dpi_a_bounded_number_of_times(monkeypatch, capsys):
    # one reasoner for the stored-conflict and duality checks, plus one per
    # brute-force oracle and one per search run (two modes, two algorithms)
    builds = []
    init = Reasoner.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Reasoner, "__init__", counting_init)
    assert main(["check", "--dpi", table1_path()]) == 0
    assert "all checks passed" in capsys.readouterr().out
    assert len(builds) <= 7


def test_check_duality_fails_on_a_wrong_reasoner(monkeypatch, capsys):
    # a reasoner that calls every set valid: the duality line compares it
    # with a fresh-CNF test of each complement, which it cannot fool
    monkeypatch.setattr(Reasoner, "is_valid", lambda self, ids: True)
    assert main(["check", "--dpi", table1_path()]) == 1
    assert "FAIL duality on sampled subsets" in capsys.readouterr().out.splitlines()


def test_check_duality_fails_on_a_wrong_abstract_diagnosis_test(monkeypatch, capsys):
    # the abstract oracle reads the conflict family as id sets, not through
    # is_diagnosis
    monkeypatch.setattr("hsdiag.cli.is_diagnosis", lambda dpi, ids, reasoner=None: not ids)
    assert main(["check", "--dpi", ex4_path()]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "FAIL duality on sampled subsets" in out
    assert sum(line.startswith("FAIL") for line in out) == 1


def test_check_rejects_corrupt_fixture(tmp_path, capsys):
    path = tmp_path / "corrupt.dpi"
    path.write_text("[COMPONENTS]\n3\n[CONFLICTS]\n1\n1 2\n")
    assert main(["check", "--dpi", str(path)]) == 1
    assert "antichain" in capsys.readouterr().err
