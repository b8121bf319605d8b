"""Propositional logic core: formula ASTs, parsing, CNF conversion, and a
complete iterative DPLL satisfiability procedure that decides under
assumptions.

This is the theorem prover behind conflict detection. It is deliberately
small and deterministic: atom numbering, clause emission order and the DPLL
branching rule are all fixed, so identical inputs always take identical
decision paths. One node class, ``Binary``, declares the shape of every
binary operator, and one table, ``_BINARY``, owns the operators: their
tokens, precedence and associativity for the parser and the printer, and
the definitional clauses of each for the CNF encoder.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence

_ATOM_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class ParseError(ValueError):
    """Malformed formula text; carries the 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} at line {line}, column {column}")
        self.line = line
        self.column = column


class Formula:
    """Base class of formula nodes. Instances are immutable and compare
    structurally, which makes them usable as set members."""

    def __str__(self) -> str:
        return format_formula(self)


@dataclass(frozen=True)
class Const(Formula):
    value: bool


@dataclass(frozen=True)
class Atom(Formula):
    name: str

    def __post_init__(self):
        if not _ATOM_NAME.match(self.name):
            raise ValueError(f"invalid atom name: {self.name!r}")


@dataclass(frozen=True)
class Not(Formula):
    operand: Formula


@dataclass(frozen=True)
class Binary(Formula):
    """A binary node; a subclass names the operator, and ``==`` compares it."""

    lhs: Formula
    rhs: Formula


class And(Binary):
    pass


class Or(Binary):
    pass


class Implies(Binary):
    pass


class Iff(Binary):
    pass


TRUE = Const(True)
FALSE = Const(False)


# The binary operators, loosest first: (token, node class, right-associative,
# definition). A definition gives, in the order the encoder adds them, the
# clauses that make variable v equivalent to ``a op b``. The parser, the
# printer and the CNF encoder all read this table; `!` binds tighter than
# every entry.
_BINARY = (
    ("<->", Iff, True, lambda v, a, b: ((-v, -a, b), (-v, a, -b), (v, a, b), (v, -a, -b))),
    ("->", Implies, True, lambda v, a, b: ((-v, -a, b), (v, a), (v, -b))),
    ("|", Or, False, lambda v, a, b: ((-v, a, b), (v, -a), (v, -b))),
    ("&", And, False, lambda v, a, b: ((-v, a), (-v, b), (v, -a, -b))),
)
_DEFINITION = {ctor: define for _, ctor, _, define in _BINARY}  # node class -> definition


# ---------------------------------------------------------------------------
# Parsing

_LEVEL = {token: i for i, (token, *_) in enumerate(_BINARY)}  # token -> table index

_TOKEN = re.compile(r"(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op><->|->|[!&|()])|(?P<ws>\s+)")


def _tokenize(text: str) -> list[tuple[str, str, int, int]]:
    tokens = []
    pos, line, col = 0, 1, 1
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unknown token {text[pos]!r}", line, col)
        lexeme = m.group(0)
        if m.lastgroup != "ws":
            kind = "name" if m.lastgroup == "name" else lexeme
            tokens.append((kind, lexeme, line, col))
        nl = lexeme.count("\n")
        if nl:
            line += nl
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    tokens.append(("end", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> tuple[str, str, int, int]:
        return self.tokens[self.pos]

    def take(self) -> tuple[str, str, int, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str) -> ParseError:
        _, _, line, col = self.peek()
        return ParseError(message, line, col)

    def parse(self) -> Formula:
        f = self.binary(0)
        if self.peek()[0] != "end":
            raise self.error(f"unexpected {self.peek()[1]!r}")
        return f

    def binary(self, level: int) -> Formula:
        """Precedence climbing: a unary operand, then every operator that
        binds at ``level`` or tighter, each with its right operand."""
        f = self.unary()
        while _LEVEL.get(self.peek()[0], -1) >= level:
            i = _LEVEL[self.take()[0]]
            _, ctor, right, _ = _BINARY[i]
            f = ctor(f, self.binary(i if right else i + 1))
        return f

    def unary(self) -> Formula:
        kind, lexeme, _, _ = self.peek()
        if kind == "!":
            self.take()
            return Not(self.unary())
        if kind == "(":
            self.take()
            f = self.binary(0)
            if self.peek()[0] != ")":
                raise self.error("expected ')'")
            self.take()
            return f
        if kind == "name":
            self.take()
            if lexeme == "true":
                return TRUE
            if lexeme == "false":
                return FALSE
            return Atom(lexeme)
        raise self.error(f"expected a formula, found {lexeme or 'end of input'!r}")


def parse_formula(text: str) -> Formula:
    """Parse a formula from text. Raises ParseError with line/column."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Printing (inverse of the parser up to structural equality)

# node class -> (token, precedence, left floor, right floor); precedence is
# the table index + 1, and the side an operator associates to keeps it as
# its floor. A node is parenthesised when its precedence is below the floor.
_PRINT = {ctor: (token, i + 1, i + 1 + right, i + 2 - right)
          for i, (token, ctor, right, _) in enumerate(_BINARY)}
_NOT_FLOOR = len(_BINARY) + 1  # above every binary operator


def format_formula(f: Formula) -> str:
    return _fmt(f, 0)


def _fmt(f: Formula, floor: int) -> str:
    op = _PRINT.get(type(f))
    if op is not None:
        token, prec, left, right = op
        s = f"{_fmt(f.lhs, left)} {token} {_fmt(f.rhs, right)}"
        return f"({s})" if prec < floor else s
    if isinstance(f, Not):  # never parenthesised: no floor exceeds its own
        return "!" + _fmt(f.operand, _NOT_FLOOR)
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Const):
        return "true" if f.value else "false"
    raise TypeError(f"not a formula: {f!r}")  # pragma: no cover


# ---------------------------------------------------------------------------
# CNF conversion (definitional / auxiliary-atom style)


@dataclass
class ClauseSet:
    """Clauses over integer literals. Variables 1..len(atom_ids) name the
    original atoms (sorted); higher ids are auxiliary definition atoms and,
    when a constant occurs, one variable fixed true."""

    clauses: tuple[frozenset[int], ...]
    atom_ids: dict[str, int]
    var_count: int


class _Encoder:
    """Definitional encoding of the given formulas, added with ``lit``.

    Variables 1..n name their atoms in name order; every compound subformula
    gets an auxiliary variable. ``true`` and ``false`` are one variable fixed
    true by a unit clause, made at the first constant met, so constant-free
    input gets no such variable. ``clauses`` holds each clause once, keyed
    in the order it was first added; tautologies are dropped.
    """

    def __init__(self, formulas: Iterable[Formula]):
        names: set[str] = set()
        for f in formulas:
            _collect_atoms(f, names)
        self.atom_ids = {name: i + 1 for i, name in enumerate(sorted(names))}
        self.next_var = len(self.atom_ids) + 1
        self.cache: dict[Formula, int] = {}
        self.clauses: dict[frozenset[int], None] = {}
        self.true: int | None = None

    def add(self, lits: Iterable[int]) -> None:
        clause = frozenset(lits)
        if not any(-l in clause for l in clause):
            self.clauses.setdefault(clause)

    def fresh(self) -> int:
        v = self.next_var
        self.next_var += 1
        return v

    def lit(self, f: Formula) -> int:
        if f in self.cache:
            return self.cache[f]
        if isinstance(f, Atom):
            out = self.atom_ids[f.name]
        elif isinstance(f, Const):
            if self.true is None:
                self.true = self.fresh()
                self.add((self.true,))
            out = self.true if f.value else -self.true
        elif isinstance(f, Not):
            out = -self.lit(f.operand)
        else:
            a = self.lit(f.lhs)
            b = self.lit(f.rhs)
            out = self.fresh()
            for clause in _DEFINITION[type(f)](out, a, b):
                self.add(clause)
        self.cache[f] = out
        return out


def _collect_atoms(f: Formula, into: set[str]) -> None:
    if isinstance(f, Atom):
        into.add(f.name)
    elif isinstance(f, Not):
        _collect_atoms(f.operand, into)
    elif isinstance(f, Binary):
        _collect_atoms(f.lhs, into)
        _collect_atoms(f.rhs, into)


def to_clause_set(formulas: Iterable[Formula]) -> ClauseSet:
    """Satisfiability-preserving conversion of a formula set to clauses.

    Uses definitional translation: each compound subformula gets an
    auxiliary atom defined by a biconditional, so the result grows linearly
    and its models, restricted to the original atoms, are exactly the models
    of the input.
    """
    ordered = sorted(set(formulas), key=format_formula)
    enc = _Encoder(ordered)
    for f in ordered:
        enc.add((enc.lit(f),))
    return ClauseSet(tuple(enc.clauses), enc.atom_ids, enc.next_var - 1)


# ---------------------------------------------------------------------------
# Satisfiability (iterative DPLL: watched literals + chronological backtracking)


class Solver:
    """DPLL over a fixed clause set, deciding satisfiability under assumptions.

    Iterative: unit propagation with two watched literals per clause,
    chronological backtracking, no clause learning. Branching sets true the
    first unassigned literal of one decision order fixed at construction
    (the ``preferred`` literals in the caller's order, then -1, -2, ..., -n),
    scanning on from one index that a backtrack restores, so identical
    inputs take identical decision paths. A model thus keeps each preferred
    literal that the clauses, the assumptions and the preferred literals kept
    before it allow. Assumption literals (the MiniSat interface, Eén &
    Sörensson, SAT 2003) let one encoding answer many checks: each ``solve``
    assumes them on top of the fixed clauses and undoes everything
    afterwards.

    After a True answer ``model`` holds the satisfying values (indexed like
    ``value``). After a False answer ``core`` holds the assumption literals
    behind the conflict (MiniSat's ``analyzeFinal``): every implied literal
    keeps the clause that implied it, and the conflict is walked back
    through those reasons down to the assumptions. Root-level literals
    (from construction and ``add_unit``) hold for every solve, so the walk
    never enters them; a root conflict gives the empty core. When the
    conflict is only reached after decisions the core is every assumption,
    which stays sound because no clause is ever learned.

    Internally literal +v is code 2v and -v is code 2v+1, so negation is
    ``code ^ 1``; ``value`` maps a code to 1 (true), -1 (false) or 0.
    """

    def __init__(
        self, clauses: Iterable[frozenset[int]], var_count: int, preferred: Iterable[int] = ()
    ):
        self.order = _codes(preferred) + list(range(3, 2 * var_count + 2, 2))
        self.value = [0] * (2 * var_count + 2)
        self.watches: list[list[list[int]]] = [[] for _ in self.value]
        self.trail: list[int] = []
        self.head = 0  # trail[:head] has been propagated
        self.reason: list[list[int] | None] = [None] * (var_count + 1)  # by variable
        self.failed: Sequence[int] = ()  # false codes of the last conflict
        self.conflict = False  # the clauses alone are unsatisfiable
        self.model: list[int] = []
        self.core: list[int] = []
        units = []
        for clause in clauses:
            codes = _codes(clause)
            if len(codes) > 1:
                self.watches[codes[0]].append(codes)
                self.watches[codes[1]].append(codes)
            elif codes:
                units.append(codes[0])
            else:
                self.conflict = True
        if not self.conflict:
            self.conflict = not self._assume(units) or not self._propagate()

    def add_unit(self, lit: int) -> None:
        """Add the unit clause ``lit`` for good, propagated at the root;
        sets ``conflict`` when the clauses become unsatisfiable."""
        if not self.conflict:
            self.conflict = not self._assume(_codes((lit,))) or not self._propagate()

    def _assume(self, codes: Iterable[int]) -> bool:
        """Set codes true with no reason; False (``failed`` = the code) when
        one of them is already false."""
        value, trail, reason = self.value, self.trail, self.reason
        for code in codes:
            if value[code] == -1:
                self.failed = (code,)
                return False
            if not value[code]:
                value[code] = 1
                value[code ^ 1] = -1
                trail.append(code)
                reason[code >> 1] = None
        return True

    def _propagate(self) -> bool:
        """Unit propagation of the unpropagated trail; False (``failed`` =
        the falsified clause) on a conflict."""
        value, watches, trail, reason = self.value, self.watches, self.trail, self.reason
        head = self.head
        while head < len(trail):
            false_code = trail[head] ^ 1
            head += 1
            watching = watches[false_code]
            kept = []
            for pos, clause in enumerate(watching):
                # The watched pair is clause[:2]; keep the false one at index 1.
                if clause[0] == false_code:
                    clause[0] = clause[1]
                    clause[1] = false_code
                other = clause[0]
                if value[other] == 1:
                    kept.append(clause)
                    continue
                for k in range(2, len(clause)):
                    code = clause[k]
                    if value[code] != -1:
                        clause[1] = code
                        clause[k] = false_code
                        watches[code].append(clause)
                        break
                else:
                    kept.append(clause)
                    if value[other] == -1:
                        kept.extend(watching[pos + 1:])
                        watches[false_code] = kept
                        self.failed = clause
                        return False
                    value[other] = 1
                    value[other ^ 1] = -1
                    trail.append(other)
                    reason[other >> 1] = clause
            watches[false_code] = kept
        self.head = head
        return True

    def _undo(self, size: int) -> None:
        value, trail = self.value, self.trail
        for code in trail[size:]:
            value[code] = value[code ^ 1] = 0
        del trail[size:]
        self.head = size

    def _failed_assumptions(self, root: int) -> list[int]:
        """The assumption codes that imply the false codes in ``failed``,
        found by walking the trail above ``root`` back through reasons."""
        reason = self.reason
        seen = {code >> 1 for code in self.failed}
        core = []
        for code in reversed(self.trail[root:]):
            var = code >> 1
            if var in seen:
                clause = reason[var]
                if clause is None:
                    core.append(code)
                else:
                    seen.update(c >> 1 for c in clause)
        return core

    def solve(self, assumptions: Iterable[int] = ()) -> bool:
        """True iff the clauses and the assumption literals are satisfiable;
        sets ``model`` on True and ``core`` on False."""
        if self.conflict:
            self.core = []
            return False
        value, trail = self.value, self.trail
        root = len(trail)
        codes = _codes(assumptions)
        try:
            if not self._assume(codes):
                # the assumed code itself plus whatever made it false
                self.core = _literals([*self.failed, *self._failed_assumptions(root)])
                return False
            if not self._propagate():
                self.core = _literals(self._failed_assumptions(root))
                return False
            order = self.order
            end = len(order)
            decisions: list[list[int]] = []  # [trail size before, code, flipped, order index]
            index = 0  # order[:index] is assigned
            while True:
                while index < end and value[order[index]]:
                    index += 1
                if index == end:
                    self.model = value[:]
                    return True
                code = order[index]
                decisions.append([len(trail), code, 0, index])
                self._assume((code,))
                while not self._propagate():
                    while decisions and decisions[-1][2]:
                        decisions.pop()
                    if not decisions:
                        self.core = _literals(codes)
                        return False
                    size, code, _, index = top = decisions[-1]
                    top[2] = 1
                    self._undo(size)
                    self._assume((code ^ 1,))
        finally:
            self._undo(root)


def _codes(lits: Iterable[int]) -> list[int]:
    return [2 * lit if lit > 0 else 1 - 2 * lit for lit in lits]


def _literals(codes: Iterable[int]) -> list[int]:
    return [-(code >> 1) if code & 1 else code >> 1 for code in codes]


def is_satisfiable(cs: ClauseSet) -> bool:
    """True iff some assignment satisfies every clause."""
    return Solver(cs.clauses, cs.var_count).solve()


def is_consistent(sentences: Iterable[Formula]) -> bool:
    return is_satisfiable(to_clause_set(sentences))


def entails(sentences: Iterable[Formula], goal: Formula) -> bool:
    """True iff the sentences together with the negated goal are unsatisfiable."""
    return not is_satisfiable(to_clause_set(list(sentences) + [Not(goal)]))
