"""Propositional logic core: formula nodes, parsing, printing, CNF
conversion, and a complete iterative DPLL satisfiability procedure that
decides under assumptions.

This is the theorem prover behind conflict detection. It is deliberately
small and deterministic: atom numbering, clause emission order and the DPLL
branching rule are all fixed, so identical inputs always take identical
decision paths. One node class, ``Binary``, declares the shape of every
binary operator, and one table, ``_BINARY``, owns the operators: their
tokens, precedence and associativity for the parser and the printer, and
the definitional clauses of each for the CNF encoder.

Formula nodes are hash-consed (Filliâtre & Conchon, "Type-safe modular
hash-consing", ML Workshop 2006): a constructor returns the one live node of
its class and operands, so equal formulas are one object and compare, and
hash, by identity, never by walking their structure. Every order of
formulas that the package produces sorts them by their text instead, since
set order follows object addresses. No walk recurses: the parser, the
printer, the atom collector and the encoder each keep an explicit stack, so
how deeply a formula nests is bounded by memory, not by Python's recursion
limit.
"""

from __future__ import annotations

import re
import weakref
from dataclasses import dataclass
from typing import Iterable, Sequence

_NAME = "[A-Za-z_][A-Za-z0-9_]*"  # atom names and the keywords true and false
_ATOM_NAME = re.compile(rf"(?!(?:true|false)\Z){_NAME}\Z")


class ParseError(ValueError):
    """Malformed formula text; carries the 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} at line {line}, column {column}")
        self.line = line
        self.column = column


# ---------------------------------------------------------------------------
# Formula nodes

# The live formula nodes, keyed by class and operands; the operands are
# nodes themselves, so a key compares by identity too. An entry goes when
# its node does, so the table holds only formulas that someone holds.
_TABLE: dict[tuple, weakref.KeyedRef] = {}


def _forget(ref: weakref.KeyedRef, table=_TABLE) -> None:
    if table.get(ref.key) is ref:  # not a node made again under the key since
        del table[ref.key]


def _make(key: tuple, **fields) -> Formula:
    """A new node of class key[0] with the fields, entered under key."""
    node = object.__new__(key[0])
    for name, value in fields.items():
        object.__setattr__(node, name, value)
    _TABLE[key] = weakref.KeyedRef(node, _forget, key)
    return node


class Formula:
    """Base class of formula nodes. Nodes are immutable and interned: equal
    formulas are one object, so ``==`` and ``hash`` are those of identity,
    and ``copy``, ``deepcopy`` and ``pickle`` give back the interned node."""

    __slots__ = ("__weakref__",)

    def __str__(self) -> str:
        return format_formula(self)

    def __repr__(self) -> str:
        out: list[str] = []
        stack: list = [self]  # nodes, and text to write as it is
        while stack:
            item = stack.pop()
            if type(item) is str:
                out.append(item)
                continue
            out.append(f"{type(item).__name__}(")
            stack.append(")")
            for i, name in enumerate(reversed(item.__match_args__)):
                if i:
                    stack.append(", ")
                arg = getattr(item, name)
                stack.append(arg if isinstance(arg, Formula) else repr(arg))
        return "".join(out)

    def __reduce__(self):
        # by text: both walks are iterative, and parsing returns this node
        return parse_formula, (format_formula(self),)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")


class Const(Formula):
    __slots__ = __match_args__ = ("value",)

    def __new__(cls, value: bool):
        key = (cls, value)
        ref = _TABLE.get(key)
        return ref and ref() or _make(key, value=value)


class Atom(Formula):
    __slots__ = __match_args__ = ("name",)

    def __new__(cls, name: str):
        key = (cls, name)
        ref = _TABLE.get(key)
        node = ref and ref()
        if node is None:
            if not _ATOM_NAME.match(name):
                raise ValueError(f"invalid atom name: {name!r}")
            node = _make(key, name=name)
        return node


class Not(Formula):
    __slots__ = __match_args__ = ("operand",)

    def __new__(cls, operand: Formula):
        key = (cls, operand)
        ref = _TABLE.get(key)
        return ref and ref() or _make(key, operand=operand)


class Binary(Formula):
    """A binary node; a subclass names the operator, and is part of the key
    a node is interned under."""

    __slots__ = __match_args__ = ("lhs", "rhs")

    def __new__(cls, lhs: Formula, rhs: Formula):
        key = (cls, lhs, rhs)
        ref = _TABLE.get(key)
        return ref and ref() or _make(key, lhs=lhs, rhs=rhs)


class And(Binary):
    __slots__ = ()


class Or(Binary):
    __slots__ = ()


class Implies(Binary):
    __slots__ = ()


class Iff(Binary):
    __slots__ = ()


TRUE = Const(True)
FALSE = Const(False)
_KEYWORDS = {"true": TRUE, "false": FALSE}


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

# One match per token: an operator, a name or, for an unknown token, the
# character that starts it; each after any whitespace.
_TOKEN = re.compile(rf"\s*(?:(<->|->|[!&|()])|({_NAME})|(\S))")

# token -> (node class, table index, least index of a stacked operator that
# the token makes the parser apply): a right-associative operator leaves its
# own kind stacked, a left-associative one applies it.
_INFIX = {token: (ctor, i, i + right) for i, (token, ctor, right, _) in enumerate(_BINARY)}
_NOT, _OPEN = -1, -2  # stacked prefixes; every table index lies above both


def parse_formula(text: str) -> Formula:
    """Parse a formula from text. Raises ParseError with line/column.

    Operator precedence with explicit stacks: ``ops`` holds the table
    indexes of the binary operators still waiting for their right operand,
    ``!`` and ``(`` as ``_NOT`` and ``_OPEN``, and ``operands`` the finished
    subformulas."""
    tokens = _TOKEN.findall(text)
    operands: list[Formula] = []
    ops: list[int] = []
    ctors: list[type] = []  # the class of each stacked binary operator
    depth = 0  # open parentheses
    want_operand = True
    for i, (op, name, bad) in enumerate(tokens):
        if want_operand:
            if name:
                f = _KEYWORDS.get(name) or Atom(name)
            elif op == "!":
                ops.append(_NOT)
                continue
            elif op == "(":
                ops.append(_OPEN)
                depth += 1
                continue
            else:
                raise _parse_error(text, tokens, i, f"expected a formula, found {op or bad!r}")
            want_operand = False
        elif op in _INFIX:
            ctor, level, least = _INFIX[op]
            while ops and ops[-1] >= least:
                ops.pop()
                rhs = operands.pop()
                operands[-1] = ctors.pop()(operands[-1], rhs)
            ops.append(level)
            ctors.append(ctor)
            want_operand = True
            continue
        elif op == ")" and depth:
            while ops[-1] != _OPEN:
                ops.pop()
                rhs = operands.pop()
                operands[-1] = ctors.pop()(operands[-1], rhs)
            ops.pop()
            depth -= 1
            f = operands.pop()
        elif depth:
            raise _parse_error(text, tokens, i, "expected ')'")
        else:
            raise _parse_error(text, tokens, i, f"unexpected {op or name or bad!r}")
        while ops and ops[-1] == _NOT:  # `!` binds tighter than every binary operator
            ops.pop()
            f = Not(f)
        operands.append(f)
    if want_operand:
        raise _parse_error(text, tokens, len(tokens), "expected a formula, found 'end of input'")
    if depth:
        raise _parse_error(text, tokens, len(tokens), "expected ')'")
    f = operands.pop()
    while ops:
        ops.pop()
        f = ctors.pop()(operands.pop(), f)
    return f


def _parse_error(text: str, tokens: list[tuple[str, str, str]], i: int, message: str) -> ParseError:
    """The error for token i (len(tokens): the end of input) with its line
    and column. An unknown token anywhere in the text is reported first."""
    bad = next((j for j in range(i, len(tokens)) if tokens[j][2]), None)
    if bad is not None:
        i, message = bad, f"unknown token {tokens[bad][2]!r}"
    pos = len(text)
    for j, m in enumerate(_TOKEN.finditer(text)):
        if j == i:
            pos = m.start(m.lastindex)
            break
    return ParseError(message, text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos))


# ---------------------------------------------------------------------------
# Printing (inverse of the parser: parsing the text gives the same node)

# node class -> (spaced token, precedence, left floor, right floor);
# precedence is the table index + 1, and the side an operator associates to
# keeps it as its floor. A node is parenthesised when its precedence is
# below the floor.
_PRINT = {ctor: (f" {token} ", i + 1, i + 1 + right, i + 2 - right)
          for i, (token, ctor, right, _) in enumerate(_BINARY)}
_NOT_FLOOR = len(_BINARY) + 1  # above every binary operator


def format_formula(f: Formula) -> str:
    """The formula's text: each piece is written as it is popped from a
    stack of nodes (with the floor their place sets) and literal strings."""
    if type(f) is Atom:
        return f.name
    out: list[str] = []
    stack: list = [(f, 0)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        f, floor = item
        op = _PRINT.get(type(f))
        if op is not None:
            token, prec, left, right = op
            if prec < floor:
                out.append("(")
                stack.append(")")
            stack += ((f.rhs, right), token, (f.lhs, left))
        elif type(f) is Not:  # never parenthesised: no floor exceeds its own
            out.append("!")
            stack.append((f.operand, _NOT_FLOOR))
        elif type(f) is Atom:
            out.append(f.name)
        elif type(f) is Const:
            out.append("true" if f.value else "false")
        else:
            raise TypeError(f"not a formula: {f!r}")  # pragma: no cover
    return "".join(out)


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
        self.atom_ids = {name: i + 1 for i, name in enumerate(sorted(_collect_atoms(formulas)))}
        self.next_var = len(self.atom_ids) + 1
        self.cache: dict[Formula, int] = {}
        self.clauses: dict[frozenset[int], None] = {}
        self.true: int | None = None

    def add(self, lits: Iterable[int]) -> None:
        clause = frozenset(lits)
        if not any(-l in clause for l in clause):
            self.clauses[clause] = None

    def fresh(self) -> int:
        v = self.next_var
        self.next_var += 1
        return v

    def lit(self, f: Formula) -> int:
        """The literal of f, encoding each subformula not met before,
        left operand first: a node stays on the stack until its operands
        have literals."""
        cache = self.cache
        out = cache.get(f)
        if out is not None:
            return out
        clauses = self.clauses
        stack = [f]
        while stack:
            f = stack[-1]
            cls = type(f)
            if cls is Atom:
                out = self.atom_ids[f.name]
            elif cls is Not:
                out = cache.get(f.operand)
                if out is None:
                    stack.append(f.operand)
                    continue
                out = -out
            elif cls is Const:
                if self.true is None:
                    self.true = self.fresh()
                    self.add((self.true,))
                out = self.true if f.value else -self.true
            else:
                a = cache.get(f.lhs)
                if a is None:
                    stack.append(f.lhs)
                    continue
                b = cache.get(f.rhs)
                if b is None:
                    stack.append(f.rhs)
                    continue
                out = self.next_var
                self.next_var = out + 1
                # out is fresh, so only a and b can clash, and only if one
                # variable underlies both
                if a == b or a == -b:
                    for clause in _DEFINITION[cls](out, a, b):
                        self.add(clause)
                else:
                    for clause in _DEFINITION[cls](out, a, b):
                        clauses[frozenset(clause)] = None
            cache[f] = out
            stack.pop()
        return out


def _collect_atoms(formulas: Iterable[Formula]) -> set[str]:
    """The atom names in the formulas, each shared subformula walked once."""
    names: set[str] = set()
    seen: set[Formula] = set()
    stack = list(formulas)
    while stack:
        f = stack.pop()
        cls = type(f)
        if cls is Atom:
            names.add(f.name)
        elif cls is not Const and f not in seen:
            seen.add(f)
            if cls is Not:
                stack.append(f.operand)
            else:
                stack += (f.lhs, f.rhs)
    return names


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

    Internally literal +v is code 2v and -v is code 2v+1 (the ``code``
    table maps each literal to its code), so negation is ``code ^ 1``;
    ``value`` maps a code to 1 (true), -1 (false) or 0.
    """

    def __init__(
        self, clauses: Iterable[frozenset[int]], var_count: int, preferred: Iterable[int] = ()
    ):
        # literal -> code, for the literals of variables 1..var_count; a
        # literal outside them raises KeyError
        self.code = dict(zip(range(1, var_count + 1), range(2, 2 * var_count + 1, 2)))
        self.code.update(zip(range(-1, -var_count - 1, -1), range(3, 2 * var_count + 2, 2)))
        code = self.code.__getitem__
        # code 0 (variable 0, in no clause, so never assigned) ends the order
        self.order = [*map(code, preferred), *range(3, 2 * var_count + 2, 2), 0]
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
            codes = list(map(code, clause))
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
            self.conflict = not self._assume((self.code[lit],)) or not self._propagate()

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
        the falsified clause) on a conflict. Each watch list it visits is
        compacted in place, keeping its order."""
        value, watches, trail, reason = self.value, self.watches, self.trail, self.reason
        head = self.head
        while head < len(trail):
            false_code = trail[head] ^ 1
            head += 1
            watching = watches[false_code]
            kept = 0  # watching[:kept] still watches false_code
            for pos, clause in enumerate(watching):
                # The watched pair is clause[:2]; keep the false one at index 1.
                other = clause[0]
                if other == false_code:
                    other = clause[0] = clause[1]
                    clause[1] = false_code
                v = value[other]
                if v == 1:
                    watching[kept] = clause
                    kept += 1
                    continue
                for k in range(2, len(clause)):
                    code = clause[k]
                    if value[code] != -1:
                        clause[1] = code
                        clause[k] = false_code
                        watches[code].append(clause)
                        break
                else:
                    watching[kept] = clause
                    kept += 1
                    if v:  # v == -1
                        del watching[kept:pos + 1]
                        self.failed = clause
                        return False
                    value[other] = 1
                    value[other ^ 1] = -1
                    trail.append(other)
                    reason[other >> 1] = clause
            del watching[kept:]
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
                    seen.update([c >> 1 for c in clause])
        return core

    def solve(self, assumptions: Iterable[int] = ()) -> bool:
        """True iff the clauses and the assumption literals are satisfiable;
        sets ``model`` on True and ``core`` on False. Assumptions and
        decisions are assigned here, with no reason."""
        if self.conflict:
            self.core = []
            return False
        value, trail, reason = self.value, self.trail, self.reason
        root = len(trail)
        root_value = value[:]
        codes = list(map(self.code.__getitem__, assumptions))
        try:
            for code in codes:
                if value[code] == -1:
                    # the assumed code itself plus whatever made it false
                    self.failed = (code,)
                    self.core = _literals([code, *self._failed_assumptions(root)])
                    return False
                if not value[code]:
                    value[code] = 1
                    value[code ^ 1] = -1
                    trail.append(code)
                    reason[code >> 1] = None
            if not self._propagate():
                self.core = _literals(self._failed_assumptions(root))
                return False
            order = self.order
            end = len(order) - 1
            decisions: list[list[int]] = []  # [trail size before, code, flipped, order index]
            index = 0  # order[:index] is assigned
            while True:
                while value[order[index]]:
                    index += 1
                if index == end:
                    self.model = value[:]
                    return True
                code = order[index]
                decisions.append([len(trail), code, 0, index])
                while True:
                    value[code] = 1
                    value[code ^ 1] = -1
                    trail.append(code)
                    reason[code >> 1] = None
                    if self._propagate():
                        break
                    while decisions and decisions[-1][2]:
                        decisions.pop()
                    if not decisions:
                        self.core = _literals(codes)
                        return False
                    size, code, _, index = top = decisions[-1]
                    top[2] = 1
                    self._undo(size)
                    code ^= 1
        finally:  # back to the root, by a copy rather than a walk of the trail
            value[:] = root_value
            del trail[root:]
            self.head = root


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
