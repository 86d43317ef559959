"""Every definition under ``src/`` has a caller outside the test suite.

An AST walk lists each function, class and method in ``src/repro``
and looks for a use of its name in ``src/``, ``bench/`` (its own tests
excluded) or ``examples/``, outside the definition itself.  A use is a
``Name``, an ``Attribute`` or an imported name; a package ``__init__``
re-export is not a use.  Matching is by bare name, so it errs towards
"used" — a method shares its name with every attribute of that name.

Code that only tests reach is code to delete, not to keep tested.  The
few definitions that stay anyway are listed in :data:`ALLOWED`, each
with its reason; an entry that gains a caller, or whose definition is
gone, must leave the list.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: Definitions (``module:qualname``) kept although only tests call them.
ALLOWED = {
    "repro.engine.executor:execute_plan_scalar": (
        "reference oracle: the per-word plan interpreter the kernel "
        "backends are held byte-identical to"
    ),
    "repro.codes.base:ArrayCode.update_elements": (
        "reference oracle: the chain-walking small write the compiled "
        "update plans are checked against"
    ),
    "repro.codes.base:ArrayCode.repair_corruption": (
        "locate_corruption's repair half, kept for the silent-corruption "
        "property the roadmap builds on locate_corruption"
    ),
    "repro.core.ablation:GeneralizedHVCode": (
        "the paper-scale placement ablation (paper_scale/) builds it"
    ),
    "repro.core.ablation:GeneralizedHVCode.is_mds": (
        "the verdict the paper-scale placement ablation reports"
    ),
    "repro.faults.rebuild_orchestrator:RebuildOrchestrator.resume": (
        "the restart RebuildReport.checkpoints documents"
    ),
    "repro.array.stripe:StripeBatch.from_stripes": (
        "accessor the tests use to build batches for other checks"
    ),
    "repro.experiments.runner:ExperimentResult.row_for": (
        "accessor the tests use to read one row of a result table"
    ),
    "repro.engine.backends:available_backends": (
        "accessor the tests use to enumerate the loadable backends"
    ),
}


def _module(path: Path) -> str:
    parts = path.relative_to(ROOT / "src").with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _definitions() -> dict[str, tuple[str, Path, int, int]]:
    """``module:qualname`` -> (name, file, first line, last line)."""
    found: dict[str, tuple[str, Path, int, int]] = {}

    def visit(node: ast.AST, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qual = prefix + child.name
                key = f"{_module(path)}:{qual}"
                found[key] = (child.name, path, child.lineno, child.end_lineno or 0)
                visit(child, path, qual + ".")
            else:
                visit(child, path, prefix)

    for path in sorted((ROOT / "src").rglob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path, "")
    return found


def _uses() -> dict[str, list[tuple[Path, int]]]:
    """Every used name -> where it is used."""
    files = [
        *sorted((ROOT / "src").rglob("*.py")),
        *(p for p in sorted((ROOT / "bench").rglob("*.py")) if "tests" not in p.parts),
        *sorted((ROOT / "examples").rglob("*.py")),
    ]
    uses: dict[str, list[tuple[Path, int]]] = {}
    for path in files:
        reexports = path.name == "__init__.py" and (ROOT / "src") in path.parents
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, (ast.Import, ast.ImportFrom)) and not reexports:
                names = [alias.name.rsplit(".", 1)[-1] for alias in node.names]
            else:
                continue
            for name in names:
                uses.setdefault(name, []).append((path, node.lineno))
    return uses


def _test_only() -> set[str]:
    uses = _uses()
    unused = set()
    for key, (name, path, first, last) in _definitions().items():
        if name.startswith("__") and name.endswith("__"):
            continue  # called by the language, not by name
        if not any(
            not (where == path and first <= line <= last)
            for where, line in uses.get(name, ())
        ):
            unused.add(key)
    return unused


def test_every_definition_has_a_caller_outside_the_tests():
    unexplained = sorted(_test_only() - set(ALLOWED))
    assert not unexplained, (
        "only tests reach these definitions; delete them (and their "
        f"tests), or list them in ALLOWED with a reason: {unexplained}"
    )


def test_allow_list_is_current():
    stale = sorted(set(ALLOWED) - _test_only())
    assert not stale, f"ALLOWED entries that are gone or now called: {stale}"
