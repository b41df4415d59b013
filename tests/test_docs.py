"""The README restates facts that the solver specs own; check that it agrees."""

import pathlib
import re

import tsplab
from tsplab import ALGORITHMS, CSV_HEADER

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _section(title: str) -> str:
    return README.read_text(encoding="utf-8").split(f"## {title}", 1)[1].split("\n## ", 1)[0]


def _solvers_table() -> dict[str, tuple[str, tuple[str, ...]]]:
    rows = {}
    for line in _section("Solvers").splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 3 and cells[0].startswith("`"):
            rows[cells[0].strip("`")] = (cells[1], tuple(re.findall(r"`([^`]+)`", cells[2])))
    return rows


def test_readme_solvers_table_matches_the_specs():
    assert _solvers_table() == {
        name: (spec.kind, spec.variants) for name, spec in ALGORITHMS.items()
    }


def test_readme_tsplab_names_resolve():
    dotted = re.findall(r"\btsplab\.([A-Za-z_][\w.]*\w)", README.read_text(encoding="utf-8"))
    assert dotted
    for name in dotted:
        obj = tsplab
        for part in name.split("."):
            assert hasattr(obj, part), f"README names tsplab.{name}"
            obj = getattr(obj, part)


def test_readme_derived_entry_points_resolve():
    text = " ".join(_section("Parameter presets").split())
    sentence = text.split(" are derived from these specs", 1)[0].rsplit(". ", 1)[1]
    names = re.findall(r"`(\w+)`", sentence)
    assert "ALGORITHMS" in names
    assert [name for name in names if not hasattr(tsplab, name)] == []


def test_readme_csv_columns_match_the_header():
    block = _section("Command line").split("The CSV columns are", 1)[1].split("```", 2)[1]
    assert block.strip() == CSV_HEADER
