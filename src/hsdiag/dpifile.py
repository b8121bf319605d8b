"""Line-based DPI text formats.

Propositional format: sections [K], [B], [P], [N], [PR]. K lines read
``id: formula``, B/P/N lines are bare formulas, PR lines ``id: value``.
Abstract format: [COMPONENTS] holds one integer n (components are named
1..n), [CONFLICTS] one space-separated id list per line, [PR] as above.
``#`` starts a comment, blank lines are skipped.
"""

from __future__ import annotations

from pathlib import Path

from .dpi import ABSTRACT, Dpi, FaultProbabilities
from .logic import ParseError, format_formula, parse_formula

_PROP_SECTIONS = ("K", "B", "P", "N", "PR")
_ABSTRACT_SECTIONS = ("COMPONENTS", "CONFLICTS", "PR")


class DpiFileError(ValueError):
    def __init__(self, message: str, source: str, line: int | None = None):
        where = f"{source}:{line}" if line is not None else source
        super().__init__(f"{where}: {message}")
        self.source = source
        self.line = line


def _valid_axiom_id(axiom_id: str) -> bool:
    """The id rule of ``loads`` and ``dumps``: one stripped, non-empty line
    without ``:`` (ends the id), ``#`` (a comment) or ``,`` (CLI id lists)."""
    return (axiom_id == axiom_id.strip() and len(axiom_id.splitlines()) == 1
            and not {":", "#", ","} & set(axiom_id))


def load_dpi_file(path: str | Path) -> tuple[Dpi, FaultProbabilities | None]:
    p = Path(path)
    return loads(p.read_text(encoding="utf-8"), source=p.name)


def loads(text: str, source: str = "<string>") -> tuple[Dpi, FaultProbabilities | None]:
    sections: dict[str, list[tuple[int, str]]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _PROP_SECTIONS + _ABSTRACT_SECTIONS:
                raise DpiFileError(f"unknown section [{name}]", source, lineno)
            if name in sections:
                raise DpiFileError(f"section [{name}] repeated", source, lineno)
            sections[name] = []
            current = name
            continue
        if current is None:
            raise DpiFileError("content before any section header", source, lineno)
        sections[current].append((lineno, line))

    has_prop = "K" in sections
    has_abstract = "COMPONENTS" in sections or "CONFLICTS" in sections
    if has_prop and has_abstract:
        raise DpiFileError("mixes propositional [K] and abstract [COMPONENTS] sections", source)
    if not has_prop and not has_abstract:
        raise DpiFileError("needs a [K] or a [COMPONENTS] section", source)

    build = _build_propositional if has_prop else _build_abstract
    dpi = build(sections, source)
    return dpi, dpi.pr


def _parse_formula_line(body: str, source: str, lineno: int):
    try:
        return parse_formula(body)
    except ParseError as exc:
        raise DpiFileError(str(exc), source, lineno) from exc


def _build_propositional(sections, source: str) -> Dpi:
    k: list[tuple[str, object]] = []
    seen: set[str] = set()
    for lineno, line in sections["K"]:
        if ":" not in line:
            raise DpiFileError("K line must read 'id: formula'", source, lineno)
        axiom_id, body = (part.strip() for part in line.split(":", 1))
        if not _valid_axiom_id(axiom_id):
            raise DpiFileError(f"invalid axiom id {axiom_id!r}" if axiom_id else "empty axiom id", source, lineno)
        if axiom_id in seen:
            raise DpiFileError(f"duplicate axiom id {axiom_id!r}", source, lineno)
        seen.add(axiom_id)
        k.append((axiom_id, _parse_formula_line(body, source, lineno)))
    if not k:
        raise DpiFileError("section [K] is empty", source)

    def bare(section: str):
        return [
            _parse_formula_line(line, source, lineno)
            for lineno, line in sections.get(section, [])
        ]

    background, positive, negative = bare("B"), bare("P"), bare("N")
    pr = _build_probabilities(sections, [a for a, _ in k], source)
    return Dpi.propositional(k, background, positive, negative, pr)


def _build_abstract(sections, source: str) -> Dpi:
    comp_lines = sections.get("COMPONENTS", [])
    if len(comp_lines) != 1:
        raise DpiFileError("[COMPONENTS] must hold exactly one integer line", source)
    lineno, body = comp_lines[0]
    try:
        count = int(body)
    except ValueError:
        raise DpiFileError(f"component count is not an integer: {body!r}", source, lineno)
    if count <= 0:
        raise DpiFileError(f"component count must be positive: {count}", source, lineno)
    ids = [str(i + 1) for i in range(count)]
    known = set(ids)
    conflicts: list[tuple[str, ...]] = []
    for lineno, line in sections.get("CONFLICTS", []):
        member = tuple(line.split())
        bad = [e for e in member if e not in known]
        if bad:
            raise DpiFileError(f"conflict mentions unknown components: {bad}", source, lineno)
        if len(set(member)) != len(member):
            raise DpiFileError(f"conflict names a component twice: {list(member)}", source, lineno)
        conflicts.append(member)
    pr = _build_probabilities(sections, ids, source)
    try:
        return Dpi.abstract(ids, conflicts, pr)
    except ValueError as exc:
        raise DpiFileError(str(exc), source) from exc


def _build_probabilities(sections, k_ids: list[str], source: str) -> FaultProbabilities | None:
    """The [PR] section's values, checked against the K ids, so that the
    DPI is built once, with its probabilities."""
    lines = sections.get("PR", [])
    if not lines:
        return None
    known = set(k_ids)
    values: dict[str, float] = {}
    for lineno, line in lines:
        if ":" not in line:
            raise DpiFileError("PR line must read 'id: value'", source, lineno)
        axiom_id, body = (part.strip() for part in line.split(":", 1))
        if axiom_id not in known:
            raise DpiFileError(f"probability for unknown axiom {axiom_id!r}", source, lineno)
        if axiom_id in values:
            raise DpiFileError(f"duplicate probability for {axiom_id!r}", source, lineno)
        try:
            p = float(body)
        except ValueError:
            raise DpiFileError(f"probability is not a number: {body!r}", source, lineno)
        if not 0.0 < p < 1.0:
            raise DpiFileError(f"probability out of (0,1): {p}", source, lineno)
        values[axiom_id] = p
    missing = [a for a in k_ids if a not in values]
    if missing:
        raise DpiFileError(f"missing probability entries: {missing}", source)
    return FaultProbabilities(values)


def dumps(dpi: Dpi, pr: FaultProbabilities | None = None) -> str:
    """Serialize a DPI (and optional probabilities) back to the text format.

    The format names abstract components 1..n, so an abstract DPI with
    other ids raises ``ValueError``, as do an empty conflict (it would be a
    blank line, which ``loads`` skips), an axiom id that breaks
    ``_valid_axiom_id`` and axioms answered positive (``positive_ids``),
    which the format has no section for.
    """
    if dpi.positive_ids:
        raise ValueError("the DPI format cannot write axioms answered positive (positive_ids)")
    out: list[str] = []
    if dpi.kind == ABSTRACT:
        if dpi.k_ids != tuple(str(i + 1) for i in range(len(dpi.k_ids))):
            raise ValueError("the DPI format names abstract components 1..n; cannot write these ids")
        out.append("[COMPONENTS]")
        out.append(str(len(dpi.k_ids)))
        out.append("[CONFLICTS]")
        for member in dpi.conflict_family:
            if not member:
                raise ValueError("the DPI format cannot write an empty conflict")
            out.append(" ".join(member))
    else:
        out.append("[K]")
        for axiom_id, formula in zip(dpi.k_ids, dpi.formulas):
            if not _valid_axiom_id(axiom_id):
                raise ValueError(f"the DPI format cannot write axiom id {axiom_id!r}")
            out.append(f"{axiom_id}: {format_formula(formula)}")
        for name, group in (("B", dpi.background), ("P", dpi.positive), ("N", dpi.negative)):
            out.append(f"[{name}]")
            for f in sorted(group, key=format_formula):
                out.append(format_formula(f))
    pr = pr or dpi.pr
    if pr is not None:
        out.append("[PR]")
        for axiom_id in dpi.k_ids:
            out.append(f"{axiom_id}: {pr[axiom_id]!r}")
    return "\n".join(out) + "\n"
