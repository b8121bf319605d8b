"""Minimal-conflict extraction.

``find_min_conflict`` implements the contract the searches rely on, on
K-masks: it returns ``None`` when K minus the exclusion set is valid, ``0``
when the empty set is a conflict (the background alone is invalid, so no
diagnosis exists), and the mask of a subset-minimal conflict otherwise. The
reasoner backend extracts the conflict with QuickXplain over the validity
predicate, on K-masks from the exclusion set to the last check. QuickXplain
starts from the reasoner's stored core, not from all of K minus the
exclusion: the check that finds that set invalid leaves a core inside it
in the verdict store, and every minimal conflict inside the core is one of
the set, found with fewer checks the smaller the core is. The abstract
backend reads the conflict off the attached family (the first stored member
avoiding the exclusion set), which keeps walkthrough reproductions exact.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .dpi import ABSTRACT, Dpi, ValidityChecker, bits_of


def quickxplain(
    dpi: Dpi,
    background: Iterable[str] | int,
    candidates: Sequence[str] | int,
    *,
    checker: ValidityChecker | None = None,
) -> int | tuple[str, ...]:
    """Subset-minimal conflict within candidates, relative to background,
    in the candidates' form: a K-mask for a K-mask, ids for ids.

    Preconditions: background is valid, background plus candidates is not.
    Splits at ceil(len/2) and keeps the candidate order: K order for a
    K-mask, whose bits are split from the highest down, and the caller's
    order for a sequence of ids, which the result keeps. Every check passes
    a K-mask, so the result is deterministic for a fixed K ordering.
    """
    checker = checker or ValidityChecker(dpi)
    base = dpi.mask_of(background)
    if isinstance(candidates, int):
        bits = list(bits_of(dpi.mask_of(candidates)))
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
        return sum(found)
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
) -> int | None:
    """K-mask of a minimal conflict for the DPI restricted to K minus the
    exclusion set (ids or a K-mask): ``0`` if the empty set is a conflict,
    ``None`` if there is none.

    The exclusion set stands in for the sub-instance built during search,
    avoiding a DPI copy per tree node. On the reasoner backend QuickXplain
    runs over the first stored invalid core inside K minus the exclusion
    (:meth:`~hsdiag.reasoner.Reasoner.core_within`), which the check of that
    set always leaves in the store; which minimal conflict comes out
    depends on that core.
    """
    excluded = dpi.mask_of(exclude)
    if dpi.kind == ABSTRACT:
        # an empty member is the family's only one (it is an antichain)
        return next((m for m in dpi.family_masks if not m & excluded), None)
    checker = checker or ValidityChecker(dpi)
    if not checker.is_valid(0):
        return 0
    rest = dpi.full_mask & ~excluded
    if checker.is_valid(rest):
        return None
    return quickxplain(dpi, 0, checker.reasoner.core_within(rest), checker=checker)
