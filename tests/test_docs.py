"""The README restates facts that the solver specs own; check that it agrees."""

import pathlib
import re

from tsplab import ALGORITHMS

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _solvers_table() -> dict[str, tuple[str, tuple[str, ...]]]:
    section = README.read_text(encoding="utf-8").split("## Solvers", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 3 and cells[0].startswith("`"):
            rows[cells[0].strip("`")] = (cells[1], tuple(re.findall(r"`([^`]+)`", cells[2])))
    return rows


def test_readme_solvers_table_matches_the_specs():
    assert _solvers_table() == {
        name: (spec.kind, spec.variants) for name, spec in ALGORITHMS.items()
    }
