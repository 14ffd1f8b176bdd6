"""The package root: its exported names and the README quick tour."""

import doctest
import importlib
from pathlib import Path

import pytest

import polybern

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_tour_runs_as_a_doctest():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0


def test_every_exported_name_exists():
    assert all(hasattr(polybern, name) for name in polybern.__all__)


@pytest.mark.parametrize(
    "module,name",
    [
        ("verify", "CriterionResult"),
        ("lclt", "DiscrepancyReport"),
        ("lclt", "GaussianParams"),
        ("saddle", "SaddlePoint"),
        ("lclt", "nu_density"),
        ("lclt", "scaled_coefficient"),
        ("quad", "u_poly"),
    ],
)
def test_module_level_names_stay_off_the_root(module, name):
    assert name not in polybern.__all__
    assert hasattr(importlib.import_module(f"polybern.{module}"), name)
