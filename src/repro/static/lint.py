"""The repo linter: apply the R001-R011 rule catalogue to a source tree.

The driver walks ``.py`` files, parses each once, derives the file's
dotted module path (so scope-limited rules like R007 know they are in
``repro.journal``), and runs every requested rule.  Violations on lines
carrying ``# noqa: RXXX`` (or a bare ``# noqa``) are waived.

The R003 allowlist — exception classes that are both *defined* in
``repro/exceptions.py`` and *exported* from ``repro/__init__.py`` — is
extracted statically from those two files, so the linter never imports
the code under analysis.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path

from ..exceptions import StaticAnalysisError
from .rules import ALL_RULES, RULES_BY_ID, FileContext, LintRule, LintViolation

_NOQA = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Z0-9, ]+))?", re.IGNORECASE)

#: Explicit waiver codes in *our* rule namespace (R009's audit scope);
#: foreign codes (ruff's ``E731`` etc.) are never audited.
_REPRO_CODE = re.compile(r"^R\d{3}$")

#: R003 fallback when no package root is found among the linted paths
#: (e.g. linting a scratch directory in tests).
DEFAULT_ALLOWED_EXCEPTIONS = frozenset({"ReproError"})


@dataclass(frozen=True)
class LintReport:
    """Outcome of one lint run."""

    files_checked: int
    violations: tuple[LintViolation, ...]

    @property
    def clean(self) -> bool:
        return not self.violations

    def render(self) -> str:
        if self.clean:
            return f"{self.files_checked} file(s) linted, no violations"
        lines = [v.render() for v in self.violations]
        lines.append(
            f"{len(self.violations)} violation(s) in "
            f"{len({v.path for v in self.violations})} of "
            f"{self.files_checked} file(s)"
        )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "files_checked": self.files_checked,
            "violations": [
                {
                    "path": v.path,
                    "line": v.line,
                    "col": v.col,
                    "rule": v.rule,
                    "message": v.message,
                }
                for v in self.violations
            ],
        }


def select_rules(rule_ids: list[str] | None) -> tuple[LintRule, ...]:
    """Resolve rule ids to rule instances (all rules when ``None``)."""
    if rule_ids is None:
        return ALL_RULES
    unknown = [r for r in rule_ids if r not in RULES_BY_ID]
    if unknown:
        raise StaticAnalysisError(
            f"unknown lint rule(s): {', '.join(unknown)}; "
            f"known: {', '.join(RULES_BY_ID)}"
        )
    return tuple(RULES_BY_ID[r] for r in rule_ids)


def _iter_python_files(paths: list[Path]) -> list[Path]:
    files: list[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
        else:
            raise StaticAnalysisError(f"not a python file or directory: {path}")
    return files


def _module_name(path: Path) -> str:
    """Dotted module path relative to the innermost package root.

    Walks up while ``__init__.py`` is present, so
    ``src/repro/sim/fleet.py`` maps to ``repro.sim.fleet`` regardless
    of where the tree is checked out.
    """
    parts = [path.stem] if path.stem != "__init__" else []
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        parent = parent.parent
    return ".".join(parts)


def _package_root(files: list[Path]) -> Path | None:
    """The ``repro`` package directory among the linted files, if any."""
    for file in files:
        parent = file.parent
        while (parent / "__init__.py").exists():
            if parent.name == "repro":
                return parent
            parent = parent.parent
    return None


def allowed_exception_names(package_root: Path | None) -> frozenset[str]:
    """R003 allowlist: classes defined in exceptions.py AND exported.

    Both conditions are read from the AST — an exception class that is
    defined but never re-exported from ``repro/__init__`` is *not*
    allowed, which is exactly how the rule forces new exception types
    into the public surface.
    """
    if package_root is None:
        return DEFAULT_ALLOWED_EXCEPTIONS
    exceptions_py = package_root / "exceptions.py"
    init_py = package_root / "__init__.py"
    if not exceptions_py.exists():
        return DEFAULT_ALLOWED_EXCEPTIONS
    defined = {
        node.name
        for node in ast.parse(exceptions_py.read_text()).body
        if isinstance(node, ast.ClassDef)
    }
    if not init_py.exists():
        return frozenset(defined)
    exported: set[str] = set()
    for node in ast.parse(init_py.read_text()).body:
        if isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            if "__all__" in targets and isinstance(
                node.value, (ast.List, ast.Tuple)
            ):
                exported.update(
                    elt.value
                    for elt in node.value.elts
                    if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
                )
    return frozenset(defined & exported) if exported else frozenset(defined)


def _waived(violation: LintViolation, lines: list[str]) -> bool:
    if not 1 <= violation.line <= len(lines):
        return False
    match = _NOQA.search(lines[violation.line - 1])
    if match is None:
        return False
    codes = match.group("codes")
    if codes is None:
        return True  # bare `# noqa` waives everything on the line
    waived = {c.strip().upper() for c in codes.split(",")}
    return violation.rule in waived


def _stale_noqa_violations(
    ctx: FileContext, raw: list[LintViolation]
) -> list[LintViolation]:
    """R009: explicit ``RXXX`` waivers that suppress no raw violation.

    ``raw`` is the pre-waiver output of the whole catalogue for this
    file — a waiver is stale exactly when no raw violation of its rule
    lands on its line.
    """
    live = {(v.rule, v.line) for v in raw}
    out: list[LintViolation] = []
    for lineno, line in enumerate(ctx.lines, start=1):
        match = _NOQA.search(line)
        if match is None or match.group("codes") is None:
            continue
        for code in match.group("codes").split(","):
            code = code.strip().upper()
            if not _REPRO_CODE.match(code):
                continue
            if code == "R009" or (code, lineno) in live:
                continue
            known = code in RULES_BY_ID
            detail = (
                "suppresses no violation on this line"
                if known
                else "names a rule that does not exist"
            )
            out.append(
                LintViolation(
                    path=ctx.path,
                    line=lineno,
                    col=match.start(),
                    rule="R009",
                    message=f"stale noqa: waiver for {code} {detail}; "
                    "remove it so future regressions are not hidden",
                )
            )
    return out


def lint_paths(
    paths: list[str | Path],
    rule_ids: list[str] | None = None,
) -> LintReport:
    """Lint files/directories and return the aggregated report."""
    resolved = [Path(p) for p in paths]
    files = _iter_python_files(resolved)
    rules = select_rules(rule_ids)
    selected_ids = {rule.rule_id for rule in rules}
    audit_noqa = "R009" in selected_ids
    # R009 needs every catalogue rule's *raw* (pre-waiver) output, so
    # when it is selected the whole catalogue runs even if only a
    # subset is reported.
    check_rules = tuple(
        rule
        for rule in (ALL_RULES if audit_noqa else rules)
        if not rule.driver_level
    )
    allowed = allowed_exception_names(_package_root(files))
    violations: list[LintViolation] = []
    for file in files:
        source = file.read_text()
        try:
            tree = ast.parse(source, filename=str(file))
        except SyntaxError as exc:
            raise StaticAnalysisError(f"cannot parse {file}: {exc}") from exc
        lines = source.splitlines()
        ctx = FileContext(
            path=str(file),
            module=_module_name(file),
            tree=tree,
            lines=lines,
            allowed_exceptions=allowed,
        )
        raw: list[LintViolation] = []
        for rule in check_rules:
            raw.extend(rule.check(ctx))
        violations.extend(
            v
            for v in raw
            if v.rule in selected_ids and not _waived(v, lines)
        )
        if audit_noqa:
            violations.extend(
                v
                for v in _stale_noqa_violations(ctx, raw)
                if not _waived(v, lines)
            )
    return LintReport(
        files_checked=len(files), violations=tuple(sorted(violations))
    )


def default_lint_target() -> Path:
    """The installed ``repro`` package source tree."""
    return Path(__file__).resolve().parent.parent
