"""The benchmark's traced run wraps program functions by the names it looks
them up under; renaming or moving one of them must fail here, not in a
benchmark run."""

import importlib.util
from pathlib import Path

import hsdiag.sequential
from hsdiag import Atom, Dpi, ValidityChecker, run_session

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves():
    tracing = load_tracing()
    assert tracing.WRAPPED
    for owner, attr, name, _ in tracing.WRAPPED:
        assert callable(owner.__dict__.get(attr)), f"{name}: {owner.__name__}.{attr} is gone"


def test_validity_span_count_reads_the_checker_cache():
    tracing = load_tracing()
    checker = ValidityChecker(Dpi.propositional([("a", Atom("x"))]))
    checker.is_valid(frozenset({"a"}))
    assert tracing._cache_entries(True, (checker,)) == 1


def test_session_updates_through_the_wrapped_name(table1, table1_card, monkeypatch):
    # the traced sequential.update span exists only while run_session calls
    # the module-global update_dpi once per answered query
    dpi, _ = table1
    calls = []
    update = hsdiag.sequential.update_dpi

    def counting_update(*args, **kwargs):
        calls.append(args[1].axiom_id)
        return update(*args, **kwargs)

    monkeypatch.setattr(hsdiag.sequential, "update_dpi", counting_update)
    trace = run_session(dpi, table1_card, 4, {"ax1", "ax3"})
    assert trace.query_count == 2
    assert calls == [it.query.axiom_id for it in trace.iterations if it.query]
