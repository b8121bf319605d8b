"""Minimal-conflict extraction.

``find_min_conflict`` implements the contract the searches rely on: it
returns an empty-conflict marker when the background alone is already
invalid, a no-conflict marker when the full assumption set is valid, and a
subset-minimal conflict otherwise. The reasoner backend extracts the
conflict with QuickXplain over the validity predicate, on K-masks from the
exclusion set to the last check; the abstract backend reads it off the
attached family (the first stored member avoiding the exclusion set), which
keeps walkthrough reproductions exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .dpi import ABSTRACT, Dpi, ValidityChecker


@dataclass(frozen=True)
class EmptyConflict:
    """The empty set is a conflict: B and P alone are invalid, no diagnosis exists."""


@dataclass(frozen=True)
class NoConflict:
    """The assumption set is valid; the empty set is the only minimal diagnosis."""


@dataclass(frozen=True)
class MinimalConflict:
    ids: tuple[str, ...]


ConflictOutcome = EmptyConflict | NoConflict | MinimalConflict


def quickxplain(
    dpi: Dpi,
    background: Iterable[str] | int,
    candidates: Sequence[str] | int,
    *,
    checker: ValidityChecker | None = None,
) -> tuple[str, ...]:
    """Subset-minimal conflict within candidates, relative to background.

    Preconditions: background is valid, background plus candidates is not.
    Splits at ceil(len/2) and keeps the candidate order: K order for a
    K-mask, whose bits are split from the highest down, and the caller's
    order for a sequence of ids, in which the result is also returned. Every
    check passes a K-mask, so the result is deterministic for a fixed K
    ordering.
    """
    checker = checker or ValidityChecker(dpi)
    base = dpi.mask_of(background)
    if isinstance(candidates, int):
        mask = dpi.mask_of(candidates)
        bits = [1 << i for i in reversed(range(mask.bit_length())) if mask >> i & 1]
        named = None
    else:
        named = {dpi.mask_of((a,)): a for a in candidates}  # sums need distinct bits
        bits = list(named)
    if not checker.is_valid(base):
        raise ValueError("quickxplain precondition: background must be valid")
    if checker.is_valid(base | sum(bits)):
        raise ValueError("quickxplain precondition: background plus candidates must be invalid")
    found = _qx(checker, base, False, bits)
    if named is None:
        return dpi.ids_of(sum(found))
    return tuple(map(named.__getitem__, found))


def _qx(checker: ValidityChecker, base: int, added_last: bool, cs: list[int]) -> list[int]:
    # Module-level, not a closure: a recursive closure is a reference cycle
    # that would keep the checker and its reasoner alive until the cyclic
    # garbage collector runs.
    if added_last and not checker.is_valid(base):
        return []
    if len(cs) == 1:
        return list(cs)
    half = (len(cs) + 1) // 2
    c1, c2 = cs[:half], cs[half:]
    d2 = _qx(checker, base | sum(c1), bool(c1), c2)
    d1 = _qx(checker, base | sum(d2), bool(d2), c1)
    return d1 + d2


def find_min_conflict(
    dpi: Dpi,
    exclude: Iterable[str] | int = (),
    *,
    checker: ValidityChecker | None = None,
) -> ConflictOutcome:
    """Minimal conflict for the DPI restricted to K minus the exclusion set
    (ids or a K-mask).

    The exclusion set stands in for the sub-instance built during search,
    avoiding a DPI copy per tree node.
    """
    excluded = dpi.mask_of(exclude)
    if dpi.kind == ABSTRACT:
        if 0 in dpi.family_masks:
            return EmptyConflict()
        for member, ordered in zip(dpi.family_masks, dpi.conflict_family):
            if not member & excluded:
                return MinimalConflict(ordered)
        return NoConflict()
    checker = checker or ValidityChecker(dpi)
    if not checker.is_valid(0):
        return EmptyConflict()
    rest = dpi.full_mask & ~excluded
    if checker.is_valid(rest):
        return NoConflict()
    return MinimalConflict(quickxplain(dpi, 0, rest, checker=checker))
