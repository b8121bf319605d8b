"""One incremental reasoner per reasoner-backend DPI, kept for a whole
sequential session.

The DPI is encoded once. B ∪ P become hard clauses; axiom i of K gets a
selector variable s_i and the clause ¬s_i ∨ lit(f_i); each negative
measurement n keeps its definitional literal lit(n) unasserted. A check then
assumes s_i for the axioms it keeps and ¬s_j for the rest, and runs the
:class:`~hsdiag.logic.Solver` under those assumptions, so no check encodes
anything. The encoding is the CNF conversion's: constants are one variable
fixed true, so root-level unit propagation forces the selector of an axiom
equivalent to ``false`` false, and a ``false`` in B ∪ P makes every check
unsatisfiable.

Session measurements are axioms of K, whose literals already exist: a
positive one asserts lit(f_i) as a root-level unit, a negative one joins the
negative literals.

Validity is monotone (a superset of an invalid set is invalid, a subset of a
valid set is valid), so the reasoner keeps why each solver answer held, as
K-masks (:meth:`~hsdiag.dpi.Dpi.mask_of`), and answers most checks from that
verdict store without calling the solver (the nogoods and environments of
de Kleer's ATMS, AIJ 1986):

* Cores. An unsatisfiable check yields the solver's failed assumptions;
  their positive selectors form a core. ¬s_j is never among them, because
  s_j occurs only in ¬s_j ∨ lit(f_j). A core of S, or of S ∧ ¬n for a
  negative n, is an invalid core: every superset of it is invalid.
  Measurements only remove models (P) or add requirements (N), so the
  verdict cannot be overturned and cores last for the reasoner's lifetime.
  A positive measurement of a shrinks them: c ∖ {a} with the new P holds
  the sentences of c with the old one, so each core that holds a loses it.
  The list keeps only its minimal masks, in the order they were found.
* Witnesses. A satisfiable check yields a model; the store keeps only the
  pair (axioms whose literal the model makes true, negatives it makes
  false), never the model. For S within the first mask, setting s_i := [i ∈
  S] in that model satisfies every clause, so it proves S consistent and
  S ∧ ¬n satisfiable for each negative n in the second mask. The solver
  is built with every axiom's literal lit(f_i) preferred true, in K order,
  so a model makes lit(f_j) true for each unselected axiom j unless the
  assumptions and the literals kept before it exclude it: the first mask
  holds every axiom the model could keep, and one witness answers the checks
  of many subsets (all of them when K ∪ B ∪ P is consistent and N is
  empty). Only pairs that no other pair proves more than are kept: one per
  first mask, with the second masks merged. A positive measurement of a
  drops the witnesses whose model makes lit(f_a) false (only those stop
  being models). A negative one keeps them all, and a model is total, so
  each witness whose first mask lacks a made lit(f_a) false: its second
  mask gains the new negative.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from .logic import Solver, _codes, _Encoder, format_formula

if TYPE_CHECKING:
    from .dpi import Dpi


def minimal_masks(masks: Iterable[int]) -> list[int]:
    """The package's one antichain reduction: the masks in their order, less
    each one that an earlier one equals or any one lies strictly inside. A
    mask that holds a kept one is dropped, else the kept masks holding it go."""
    kept: list[int] = []
    for c in masks:
        for o in kept:
            if o & c == o:
                break
        else:
            for o in kept:
                if o & c == c:
                    kept = [o for o in kept if o & c != c]
                    break
            kept.append(c)
    return kept


class Reasoner:
    """Validity checks over one DPI, decided as SAT under assumptions or
    read off the verdict store.

    The store is readable as ``invalid_cores`` (minimal masks) and
    ``witnesses`` (first mask -> second mask); ``solver_calls`` counts the
    solver runs.
    """

    def __init__(self, dpi: "Dpi"):
        hard = sorted(dpi.background | dpi.positive, key=format_formula)
        negative = sorted(dpi.negative, key=format_formula)
        enc = _Encoder((*hard, *dpi.formulas, *negative))
        for f in hard:
            enc.add((enc.lit(f),))
        self._mask_of = dpi.mask_of
        self._full = dpi.full_mask
        # (K bit, selector) and (K bit, goal code), in K order
        self._selectors: list[tuple[int, int]] = []
        self._goal_codes: list[tuple[int, int]] = []
        self._goals: dict[str, tuple[int, int]] = {}  # axiom -> (goal literal, K bit)
        for (axiom, bit), f in zip(dpi.bits.items(), dpi.formulas):
            goal = enc.lit(f)
            self._goals[axiom] = (goal, bit)
            selector = enc.fresh()
            enc.add((-selector, goal))
            self._selectors.append((bit, selector))
            self._goal_codes.append((bit, _codes((goal,))[0]))
        self._negatives = [enc.lit(n) for n in negative]
        preferred = [goal for goal, _ in self._goals.values()]  # in K order
        self._solver = Solver(enc.clauses, enc.next_var - 1, preferred)
        self.solver_calls = 0
        self.invalid_cores: list[int] = []
        self.witnesses: dict[int, int] = {}  # true goals -> false negatives
        self._core = 0  # selector mask of the last unsatisfiable solve

    def _solve(self, mask: int, extra: list[int]) -> int | None:
        """Solve with the axioms of mask selected plus the extra literals.
        Stores the model's witness and returns its mask of false negatives,
        or returns None and leaves the core's selector mask in ``_core``."""
        self.solver_calls += 1
        solver = self._solver
        assumed = [s if mask & bit else -s for bit, s in self._selectors]
        if not solver.solve(assumed + extra):
            selected = set(solver.core)
            self._core = sum(bit for bit, s in self._selectors if s in selected)
            return None
        model = solver.model
        true_goals = sum(bit for bit, code in self._goal_codes if model[code] == 1)
        false_negatives = sum(
            1 << j for j, code in enumerate(_codes(self._negatives)) if model[code] == -1
        )
        witnesses = self.witnesses
        false_negatives |= witnesses.get(true_goals, 0)
        witnesses[true_goals] = false_negatives
        return false_negatives

    def add_measurement(self, axiom: str, positive: bool) -> None:
        """Absorb a measurement of the sentence of ``axiom``: into P when
        positive, into N when negative."""
        goal, bit = self._goals[axiom]
        if positive:
            self._solver.add_unit(goal)
            self.witnesses = {g: nf for g, nf in self.witnesses.items() if g & bit}
            # c ∖ {a} with the new P holds the sentences of c with the old
            self.invalid_cores = minimal_masks([c & ~bit for c in self.invalid_cores])
        elif goal not in self._negatives:
            # a model that makes lit(f_a) false already shows S ∧ ¬lit(f_a)
            new = 1 << len(self._negatives)
            self._negatives.append(goal)
            self.witnesses = {
                g: nf if g & bit else nf | new for g, nf in self.witnesses.items()
            }

    def core_within(self, mask: int) -> int | None:
        """The first stored invalid core inside the K-mask, or None. After a
        check finds a set invalid there always is one inside it."""
        for c in self.invalid_cores:
            if c & mask == c:
                return c
        return None

    def is_valid(self, ids: Iterable[str] | int) -> bool:
        """The axioms in ids (or a K-mask) plus B and P are consistent and
        entail no negative measurement."""
        mask = ids if type(ids) is int and 0 <= ids <= self._full else self._mask_of(ids)
        if self.core_within(mask) is not None:
            return False
        if not self._negatives:
            for g in self.witnesses:  # the first covering witness answers
                if g & mask == mask:
                    return True
            if self._solve(mask, []) is not None:
                return True
        else:
            covered = 0
            for g, nf in self.witnesses.items():
                if g & mask == mask:
                    covered |= nf
            # S ∧ ¬n satisfiable implies S consistent, and S inconsistent
            # makes the first S ∧ ¬n unsatisfiable: no plain solve needed
            for j, n in enumerate(self._negatives):
                if not covered >> j & 1:
                    found = self._solve(mask, [-n])
                    if found is None:
                        break
                    covered |= found
            else:
                return True
        # a stored core inside the new one would have answered the check
        core = self._core
        self.invalid_cores = [c for c in self.invalid_cores if c & core != core] + [core]
        return False
