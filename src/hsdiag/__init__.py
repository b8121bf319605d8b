"""hsdiag: linear-space best-first diagnosis search over hitting-set trees."""

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
    gen_random_dpi,
    is_diagnosis,
    is_minimal_diagnosis,
    is_valid_set,
    log_pr_of,
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
    entails,
    format_formula,
    is_consistent,
    is_satisfiable,
    parse_formula,
    to_clause_set,
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
    QueryPartition,
    SessionIteration,
    SessionTrace,
    carry_conflicts,
    ent_select,
    make_query,
    oracle_answer,
    partition,
    run_session,
    update_dpi,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
