"""Golden tables: the priced experiments print what paper_results.txt says.

Every table the volume or the compiled plans price — Fig. 6, Fig. 7,
Fig. 9(a) and 9(b), Table III, the rotation ablation, degraded writes,
the write-length sweep, the rebuild window, the MTTDL model and the
code zoo — is rendered at full scale exactly as ``repro <name>``
prints it, and must appear verbatim in ``paper_results.txt`` (the
CLI's trailing timing line is not part of a rendered table).  A
pricing change that moves any number fails here instead of leaving the
golden file stale.
"""

from pathlib import Path

import pytest

from repro.experiments.runner import render_results, run_experiment

GOLDEN = Path(__file__).resolve().parent.parent / "paper_results.txt"

PRICED = (
    "fig6",
    "fig7",
    "fig9a",
    "fig9b",
    "table3",
    "rotation",
    "degraded-writes",
    "lsweep",
    "rebuild",
    "reliability",
    "zoo",
)


@pytest.fixture(scope="module")
def golden():
    return GOLDEN.read_text()


@pytest.mark.parametrize("name", PRICED)
def test_table_matches_golden(name, golden):
    rendered = render_results(run_experiment(name), "text")
    assert rendered in golden, f"repro {name} no longer prints its golden table"
