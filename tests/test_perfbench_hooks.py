"""The benchmark's traced run wraps program functions by the names it looks
them up under; renaming or moving one of them must fail here, not in a
benchmark run."""

import importlib.util
from pathlib import Path

from hsdiag import Atom, Dpi, ValidityChecker

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
