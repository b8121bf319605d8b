"""hsdiag: linear-space best-first diagnosis search over hitting-set trees."""

from types import ModuleType as _ModuleType

from .conflict import find_min_conflict, quickxplain
from .dpi import (
    Diagnosis,
    Dpi,
    FaultProbabilities,
    ValidityChecker,
    brute_force_min_conflicts,
    brute_force_min_diagnoses,
    brute_force_min_hitting_sets,
    cardinality_pr,
    cost_adjust,
    is_diagnosis,
    is_minimal_diagnosis,
    is_valid_set,
    log_prs,
    normalized,
    normalized_logs,
    pr_of,
)
from .dpifile import DpiFileError, dumps, load_dpi_file, loads
from .logic import (
    And,
    Atom,
    Const,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    ParseError,
    format_formula,
    parse_formula,
)
from .reasoner import Reasoner
from .search import (
    HSTREE,
    RBFHS,
    SearchResult,
    SearchStats,
    TraceEvent,
    hs_tree,
    rbf_hs,
)
from .sequential import (
    Query,
    SessionIteration,
    SessionTrace,
    carry_conflicts,
    ent_select,
    make_query,
    oracle_answer,
    run_session,
    update_dpi,
)

# the imported names, less the submodules that importing them binds here
__all__ = sorted(n for n, v in globals().items() if not (n.startswith("_") or isinstance(v, _ModuleType)))
__version__ = "0.1.0"
