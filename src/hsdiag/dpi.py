"""Diagnosis problem instances.

A DPI bundles the suspect axioms K with background knowledge B, positive
measurements P and negative measurements N. Two backends exist:

* ``reasoner``: K entries are propositional formulas; validity of an
  assumption set is decided by the SAT procedure in :mod:`hsdiag.logic`.
* ``abstract``: K entries are bare component ids and the minimal conflict
  family is attached directly. This reproduces walkthrough instances whose
  axiom content is never stated, and makes property tests independent of
  the reasoner.

The module also holds the fault-probability model and the brute-force
oracles that the test suite uses as ground truth.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

from .logic import Formula
from .reasoner import Reasoner, minimal_masks

REASONER = "reasoner"
ABSTRACT = "abstract"

BRUTE_FORCE_LIMIT = 20


@dataclass(frozen=True)
class FaultProbabilities:
    """Per-axiom failure probabilities in the open interval (0, 1)."""

    values: Mapping[str, float]

    def __post_init__(self):
        for axiom, p in self.values.items():
            if not 0.0 < p < 1.0:
                raise ValueError(f"probability of {axiom!r} out of (0,1): {p}")

    def __getitem__(self, axiom: str) -> float:
        try:
            return self.values[axiom]
        except KeyError:
            raise ValueError(f"missing probability entry for {axiom!r}") from None

    def as_cost_adjusted(self) -> "FaultProbabilities":
        """Self, after checking that every value lies below 0.5, as both
        searches need: adding an axiom to a node set must lower its probability."""
        for axiom, p in self.values.items():
            if p >= 0.5:
                raise ValueError(f"search requires cost-adjusted probabilities (all below 0.5): {axiom!r} is {p}")
        return self


def cost_adjust(pr: FaultProbabilities, c: float) -> FaultProbabilities:
    """Scale every probability by c in (0, 0.5) so all values drop below 0.5.

    Ratios between any two axioms are preserved, so the per-component fault
    ordering is unchanged.
    """
    if not 0.0 < c < 0.5:
        raise ValueError(f"adjustment constant must be in (0, 0.5): {c}")
    return FaultProbabilities({a: c * p for a, p in pr.values.items()})


def cardinality_pr(k_ids: Iterable[str], c: float = 1 / 3) -> FaultProbabilities:
    """Uniform probabilities that make best-first order equal ascending
    cardinality order."""
    if not 0.0 < c < 0.5:
        raise ValueError(f"uniform constant must be in (0, 0.5): {c}")
    return FaultProbabilities({a: c for a in k_ids})


def pr_of(pr: FaultProbabilities, k_ids: Iterable[str], x: Iterable[str]) -> float:
    """Probability that exactly the axioms in x are faulty.

    Computed in K order for determinism; search code keeps these values in
    log scale, this function reports the linear value.
    """
    members, k = set(x), list(k_ids)
    unknown = members.difference(k)
    if unknown:
        raise ValueError(f"unknown axiom ids: {sorted(unknown)}")
    p = 1.0
    for axiom in k:
        p *= pr[axiom] if axiom in members else 1.0 - pr[axiom]
    return p


def log_prs(dpi: Dpi, pr: FaultProbabilities, masks: Iterable[int]) -> list[float]:
    """The natural log of each K-mask's probability that exactly its axioms
    are faulty: log p of each member and log(1 - p) of each other axiom,
    summed in K order. Finite where ``pr_of`` underflows to zero
    (thousands of axioms)."""
    terms = [(bit, math.log(pr[axiom]), math.log1p(-pr[axiom])) for axiom, bit in dpi.bits.items()]
    logs = []
    for mask in masks:
        total = 0.0
        for bit, log_p, log_q in terms:
            total += log_p if mask & bit else log_q
        logs.append(total)
    return logs


def normalized_logs(log_values: Sequence[float]) -> list[float]:
    """Normalize probabilities given as logs. Each is taken relative to the
    largest, as exp(l - max), so the total never underflows to zero."""
    top = max(log_values)
    return normalized([math.exp(v - top) for v in log_values])


def normalized(values: Sequence[float]) -> list[float]:
    """Normalize probabilities over a given diagnosis list (on demand)."""
    total = sum(values)
    if total <= 0.0:
        raise ValueError("cannot normalize: total probability is zero")
    return [v / total for v in values]


@dataclass(frozen=True)
class Diagnosis:
    """A set of axiom ids whose removal restores validity."""

    ids: tuple[str, ...]
    pr: float | None = None

    @property
    def id_set(self) -> frozenset[str]:
        return frozenset(self.ids)

    def __str__(self) -> str:
        return "{" + ",".join(self.ids) + "}"


def antichain_reduce(members: Iterable[Iterable[str]]) -> tuple[tuple[str, ...], ...]:
    """The members as given, in first-seen order, less each one that an
    earlier one equals as a set or any one lies strictly inside: each id
    gets a bit, each member mask keeps its first member, and
    :func:`~hsdiag.reasoner.minimal_masks` reduces the masks."""
    bits: dict[str, int] = {}
    first: dict[int, tuple[str, ...]] = {}  # in first-seen order
    for member in members:
        t, mask = tuple(member), 0
        for a in t:
            mask |= bits.setdefault(a, 1 << len(bits))
        first.setdefault(mask, t)
    return tuple([first[mask] for mask in minimal_masks(first)])


@dataclass(frozen=True)
class Dpi:
    """A diagnosis problem instance ⟨K, B, P, N⟩ plus optional probabilities."""

    k_ids: tuple[str, ...]
    formulas: tuple[Formula, ...] | None = None
    background: frozenset[Formula] = frozenset()
    positive: frozenset[Formula] = frozenset()
    negative: frozenset[Formula] = frozenset()
    conflict_family: tuple[tuple[str, ...], ...] | None = None
    positive_ids: frozenset[str] = frozenset()
    pr: FaultProbabilities | None = None
    # the backend, REASONER or ABSTRACT: the DPI holds formulas or a conflict family
    kind: str = field(default=REASONER, init=False, repr=False, compare=False)
    # the abstract conflict family as K-masks, derived from conflict_family
    family_masks: tuple[int, ...] | None = field(default=None, init=False, repr=False, compare=False)
    # axiom id -> K-mask bit, in K order: axiom i is bit n-1-i, the first the highest
    bits: dict[str, int] = field(default_factory=dict, init=False, repr=False, compare=False)
    # the K-mask of all of K: every in-range mask is a submask of it
    full_mask: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self):
        if (self.formulas is None) == (self.conflict_family is None):
            held = "neither formulas nor" if self.formulas is None else "both formulas and"
            raise ValueError(f"DPI holds {held} a conflict family")
        object.__setattr__(self, "kind", REASONER if self.conflict_family is None else ABSTRACT)
        if len(set(self.k_ids)) != len(self.k_ids):
            dupes = sorted({a for a in self.k_ids if self.k_ids.count(a) > 1})
            raise ValueError(f"duplicate axiom ids: {dupes}")
        n = len(self.k_ids)
        bits = {a: 1 << (n - 1 - i) for i, a in enumerate(self.k_ids)}
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "full_mask", (1 << n) - 1)
        if self.kind == REASONER:
            if len(self.formulas) != len(self.k_ids):
                raise ValueError("reasoner DPI needs one formula per axiom id")
        else:
            masks = []
            for member in self.conflict_family:
                members = set(member)
                bad = members.difference(bits)
                if bad:
                    raise ValueError(f"conflict mentions unknown ids: {sorted(bad)}")
                if len(members) != len(member):
                    raise ValueError(f"conflict names an id twice: {list(member)}")
                masks.append(sum(map(bits.__getitem__, members)))
            if len(minimal_masks(masks)) < len(masks):
                raise ValueError("conflict family is not an antichain")
            object.__setattr__(self, "family_masks", tuple(masks))

    @classmethod
    def propositional(
        cls,
        k: Sequence[tuple[str, Formula]],
        background: Iterable[Formula] = (),
        positive: Iterable[Formula] = (),
        negative: Iterable[Formula] = (),
        pr: FaultProbabilities | None = None,
    ) -> "Dpi":
        ids = tuple(a for a, _ in k)
        return cls(
            k_ids=ids,
            formulas=tuple(f for _, f in k),
            background=frozenset(background),
            positive=frozenset(positive),
            negative=frozenset(negative),
            pr=pr,
        )

    @classmethod
    def abstract(
        cls,
        components: int | Sequence[str],
        conflicts: Iterable[Iterable[str]],
        pr: FaultProbabilities | None = None,
    ) -> "Dpi":
        if isinstance(components, int):
            ids = tuple(str(i + 1) for i in range(components))
        else:
            ids = tuple(components)
        return cls(
            k_ids=ids,
            conflict_family=tuple(tuple(m) for m in conflicts),
            pr=pr,
        )

    # -- convenience accessors -------------------------------------------

    def index_of(self, axiom: str) -> int:
        try:
            return len(self.k_ids) - self.bits[axiom].bit_length()
        except KeyError:
            raise ValueError(f"unknown axiom id: {axiom!r}") from None

    def formula_of(self, axiom: str) -> Formula:
        if self.kind != REASONER:
            raise ValueError("abstract DPI axioms carry no formulas")
        return self.formulas[self.index_of(axiom)]

    def mask_of(self, ids: Iterable[str] | int) -> int:
        """The K-mask of a set of axiom ids, the sum of their ``bits``. A
        mask passes through unchanged, so every function taking a set of
        axioms takes either form."""
        if isinstance(ids, int):
            if ids >> len(self.k_ids):  # also true for a negative int
                raise ValueError(f"mask has bits outside K: {ids:#x}")
            return ids
        members = set(ids)
        try:
            return sum(map(self.bits.__getitem__, members))
        except KeyError:
            unknown = sorted(members.difference(self.bits))
            raise ValueError(f"unknown axiom ids: {unknown}") from None

    def ids_of(self, mask: int) -> tuple[str, ...]:
        """The axiom ids of a K-mask, in K order."""
        k_ids, top = self.k_ids, len(self.k_ids) - 1
        if mask >> len(k_ids):
            raise ValueError(f"mask has bits outside K: {mask:#x}")
        ids = []
        while mask:
            high = mask.bit_length() - 1
            ids.append(k_ids[top - high])
            mask ^= 1 << high
        return tuple(ids)

    def family_sets(self) -> tuple[frozenset[str], ...]:
        if self.kind != ABSTRACT:
            raise ValueError("only abstract DPIs carry a conflict family")
        return tuple(frozenset(m) for m in self.conflict_family)


def bits_of(mask: int) -> Iterator[int]:
    """The set bits of a K-mask, highest first: in K order."""
    while mask:
        bit = 1 << (mask.bit_length() - 1)
        yield bit
        mask ^= bit


def reasoner_for(dpi: Dpi) -> Reasoner | None:
    """The DPI encoded once for many checks; None on the abstract backend."""
    return Reasoner(dpi) if dpi.kind == REASONER else None


def is_valid_set(dpi: Dpi, ids: Iterable[str] | int, reasoner: Reasoner | None = None) -> bool:
    """True iff assuming exactly the axioms in ids (or a K-mask) raises no
    conflict.

    Reasoner backend: the sentences plus B and P are consistent and entail
    no negative measurement; pass the DPI's reasoner to reuse its encoding
    across calls. Abstract backend: no attached conflict member is
    contained in the set.
    """
    mask = ids if type(ids) is int and 0 <= ids <= dpi.full_mask else dpi.mask_of(ids)
    if dpi.kind == ABSTRACT:
        return not any(m & mask == m for m in dpi.family_masks)
    return (reasoner or reasoner_for(dpi)).is_valid(mask)


def is_diagnosis(dpi: Dpi, ids: Iterable[str] | int, reasoner: Reasoner | None = None) -> bool:
    """Duality: D is a diagnosis iff K minus D is a valid assumption set."""
    return is_valid_set(dpi, dpi.full_mask & ~dpi.mask_of(ids), reasoner)


def is_minimal_diagnosis(
    dpi: Dpi, ids: Iterable[str] | int, reasoner: Reasoner | None = None
) -> bool:
    """Diagnosis-hood plus failure of every one-element deletion.

    Single deletions suffice under the weak fault model because
    diagnosis-hood is monotone over supersets. Pass the DPI's ``reasoner``
    to reuse its encoding; else one is built here.
    """
    mask = dpi.mask_of(ids)
    reasoner = reasoner or reasoner_for(dpi)
    if not is_diagnosis(dpi, mask, reasoner):
        return False
    return all(not is_diagnosis(dpi, mask ^ bit, reasoner) for bit in bits_of(mask))


class ValidityChecker:
    """Counting, memoizing front-end for is_valid_set.

    One instance per search/extraction run; the call counter backs the
    QuickXplain complexity assertions and the cache, keyed by K-mask, is
    the exact-set front: it answers a repeated assumption set at once.
    QuickXplain passes masks, and an in-range mask goes to the cache,
    ``is_valid_set`` and the reasoner as is; ids and bad masks go through
    ``Dpi.mask_of``, once, and it raises ValueError for the bad ones. The
    monotone lookups (a superset of an invalid set, a subset of a valid
    one) live in the reasoner's verdict store, which outlives the checker
    for a whole session. On the reasoner backend the checks run on
    ``reasoner`` when one is passed (the searches always pass one), else on
    one built here, as for a standalone ``quickxplain`` or
    ``find_min_conflict``; no encoding is stored on the DPI. Either is kept
    as ``reasoner`` (None on the abstract backend), where
    ``find_min_conflict`` reads the stored core it starts QuickXplain from.
    """

    def __init__(self, dpi: Dpi, reasoner: Reasoner | None = None):
        self.dpi = dpi
        self.calls = 0
        self._cache: dict[int, bool] = {}
        self.reasoner = reasoner or reasoner_for(dpi)

    def is_valid(self, ids: Iterable[str] | int) -> bool:
        self.calls += 1
        dpi = self.dpi
        mask = ids if type(ids) is int and 0 <= ids <= dpi.full_mask else dpi.mask_of(ids)
        cached = self._cache.get(mask)
        if cached is None:
            cached = self._cache[mask] = is_valid_set(dpi, mask, self.reasoner)
        return cached


# ---------------------------------------------------------------------------
# Brute-force oracles (test ground truth; exponential, size-guarded)


def _guard(dpi: Dpi) -> None:
    if len(dpi.k_ids) > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force limited to |K| <= {BRUTE_FORCE_LIMIT}")


def _minimal_sets(n: int, holds) -> list[tuple[int, ...]]:
    """Subset-minimal index sets of range(n) on which a superset-monotone
    predicate of the K-mask (index i is bit n-1-i) holds, in ascending
    cardinality then lexicographic order."""
    found_masks: list[int] = []
    found: list[tuple[int, ...]] = []
    bits = [1 << (n - 1 - i) for i in range(n)]
    for size in range(n + 1):
        # both enumerations yield the same subsets in the same order
        pairs = zip(itertools.combinations(range(n), size), itertools.combinations(bits, size))
        for combo, combo_bits in pairs:
            mask = sum(combo_bits)
            if any(prev & mask == prev for prev in found_masks):
                continue
            if holds(mask):
                found_masks.append(mask)
                found.append(combo)
    return found


def brute_force_min_diagnoses(dpi: Dpi) -> list[Diagnosis]:
    """All subset-minimal diagnoses by ascending-cardinality enumeration,
    sorted by attached probability descending (cardinality then id order
    when no probabilities are attached)."""
    _guard(dpi)
    reasoner, full = reasoner_for(dpi), dpi.full_mask
    minimal = _minimal_sets(len(dpi.k_ids), lambda mask: is_valid_set(dpi, full & ~mask, reasoner))
    found = [tuple(dpi.k_ids[i] for i in combo) for combo in minimal]
    if dpi.pr is None:
        return [Diagnosis(t) for t in found]
    scored = [(pr_of(dpi.pr, dpi.k_ids, t), t) for t in found]
    scored.sort(key=lambda st: -st[0])  # stable: ties stay in size then K order
    return [Diagnosis(t, p) for p, t in scored]


def brute_force_min_conflicts(dpi: Dpi) -> list[tuple[str, ...]]:
    """All subset-minimal conflicts, sorted by size then id order."""
    _guard(dpi)
    reasoner = reasoner_for(dpi)
    minimal = _minimal_sets(len(dpi.k_ids), lambda mask: not is_valid_set(dpi, mask, reasoner))
    return [tuple(dpi.k_ids[i] for i in combo) for combo in minimal]


def brute_force_min_hitting_sets(
    family: Sequence[Iterable[str]], universe: Sequence[str]
) -> list[tuple[str, ...]]:
    """Exhaustive minimal hitting sets of a set family over distinct
    universe elements (oracle for the hitting-set property)."""
    top = len(universe) - 1
    bit = {a: 1 << (top - i) for i, a in enumerate(universe)}
    member_masks = [sum(bit.get(a, 0) for a in set(m)) for m in family]
    found = _minimal_sets(len(universe), lambda mask: all(m & mask for m in member_masks))
    return [tuple(universe[i] for i in combo) for combo in found]

