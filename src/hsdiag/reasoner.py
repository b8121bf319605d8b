"""One incremental reasoner per reasoner-backend DPI, kept for a whole
sequential session.

The DPI is encoded once. B ∪ P become hard clauses; axiom i of K gets a
selector variable s_i and the clause ¬s_i ∨ lit(f_i); each negative
measurement n keeps its definitional literal lit(n) unasserted. A check then
assumes s_i for the axioms it keeps and ¬s_j for the rest, and runs the
:class:`~hsdiag.logic.Solver` under those assumptions, so no check encodes
anything. Constants follow the CNF conversion's folding: they map to a
variable fixed true, so an axiom folding to ``false`` can never be selected,
a ``false`` in B ∪ P makes every check unsatisfiable, and goals folding to a
constant are decided by the same assumption mechanism.

Session measurements are axioms of K, whose literals already exist: a
positive one asserts lit(f_i) as a root-level unit, a negative one joins the
negative literals. Neither can reverse an invalid or an entailed verdict
(P only removes models, N only adds requirements), so those two verdicts are
memoized for the reasoner's lifetime; valid and not-entailed verdicts are
not, since a later measurement can overturn them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Collection

from .logic import Const, Formula, Solver, _collect_atoms, _Encoder, _fold_constants, format_formula

if TYPE_CHECKING:
    from .dpi import Dpi


class Reasoner:
    """Validity and entailment checks over one DPI, decided as SAT under
    assumptions."""

    def __init__(self, dpi: "Dpi"):
        hard = sorted(dpi.background | dpi.positive, key=format_formula)
        negative = sorted(dpi.negative, key=format_formula)
        names: set[str] = set()
        for f in (*hard, *dpi.formulas, *negative):
            _collect_atoms(f, names)
        enc = _Encoder({name: i + 1 for i, name in enumerate(sorted(names))})
        self._true = enc.fresh()
        enc.add((self._true,))
        for f in hard:
            enc.add((self._literal(enc, f),))
        self._selectors: list[tuple[str, int]] = []
        self._goals: dict[str, int] = {}
        for axiom, f in zip(dpi.k_ids, dpi.formulas):
            goal = self._goals[axiom] = self._literal(enc, f)
            selector = enc.fresh()
            enc.add((-selector, goal))
            self._selectors.append((axiom, selector))
        self._negatives = [self._literal(enc, n) for n in negative]
        self._solver = Solver(enc.clauses, enc.next_var - 1)
        self._invalid: set[frozenset[str]] = set()
        self._entailed: set[tuple[frozenset[str], str]] = set()

    def _literal(self, enc: _Encoder, f: Formula) -> int:
        folded = _fold_constants(f)
        if isinstance(folded, Const):
            return self._true if folded.value else -self._true
        return enc.lit(folded)

    def _assumptions(self, ids: Collection[str]) -> list[int]:
        return [s if axiom in ids else -s for axiom, s in self._selectors]

    def add_measurement(self, axiom: str, positive: bool) -> None:
        """Absorb a measurement of the sentence of ``axiom``: into P when
        positive, into N when negative."""
        goal = self._goals[axiom]
        if positive:
            self._solver.add_unit(goal)
        elif goal not in self._negatives:
            self._negatives.append(goal)

    def is_valid(self, ids: Collection[str]) -> bool:
        """The axioms in ids plus B and P are consistent and entail no
        negative measurement."""
        ids = frozenset(ids)
        if ids in self._invalid:
            return False
        assumed = self._assumptions(ids)
        solve = self._solver.solve
        if solve(assumed) and all(solve(assumed + [-n]) for n in self._negatives):
            return True
        self._invalid.add(ids)
        return False

    def entails(self, ids: Collection[str], axiom: str) -> bool:
        """The axioms in ids plus B and P entail the sentence of ``axiom``."""
        ids = frozenset(ids)
        if (ids, axiom) in self._entailed:
            return True
        if self._solver.solve(self._assumptions(ids) + [-self._goals[axiom]]):
            return False
        self._entailed.add((ids, axiom))
        return True
