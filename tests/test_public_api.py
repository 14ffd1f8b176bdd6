"""The package root: its exported names, the README quick tour and its commands."""

import ast
import doctest
import importlib
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import polybern
from polybern.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
SOURCES = sorted(Path(polybern.__file__).resolve().parent.glob("*.py"))


def test_readme_quick_tour_runs_as_a_doctest():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0


def _readme_commands():
    # the `polybern ...` lines of the README's "Command line" block
    text = README.read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True) for line in block.splitlines() if line.startswith("polybern ")]


def test_readme_commands_cover_every_subcommand():
    assert {argv[1] for argv in _readme_commands()} == {"exact", "oracle", "asym", "quad", "lclt", "verify"}


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_command_runs(capsys, argv):
    assert main(argv[1:]) == 0
    assert capsys.readouterr().out


def _top_level_names(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name):
                    yield target.id


def test_every_exported_name_exists():
    assert all(hasattr(polybern, name) for name in polybern.__all__)
    # the root loads each layer on first use: an exported name is the very
    # object the one layer that defines it holds
    homes = {}
    for path in SOURCES:
        for name in _top_level_names(ast.parse(path.read_text(encoding="utf-8"))):
            homes.setdefault(name, []).append(path.stem)
    for name in polybern.__all__:
        if name != "__version__":
            [home] = homes[name]
            assert getattr(polybern, name) is getattr(importlib.import_module(f"polybern.{home}"), name)
    assert set(polybern.__all__) <= set(dir(polybern))
    with pytest.raises(AttributeError, match="no_such_name"):
        polybern.no_such_name
    namespace = {}
    exec("from polybern import *", namespace)
    assert all(namespace[name] is getattr(polybern, name) for name in polybern.__all__)
    # in a fresh interpreter a name is bound when first read, and a layer
    # is an attribute of the root, as when the root imported them all
    code = (
        "import polybern as pb; "
        "print(pb.quad.__name__, 'f_dir' in vars(pb), pb.f_dir.__module__, 'f_dir' in vars(pb))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "polybern.quad False polybern.saddle True\n"


def test_every_public_definition_is_used_or_exported():
    # a public top-level function or class that no name or attribute in
    # the package reads, and the root does not export, is dead API
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES]
    defined = {
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    used = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    assert sorted(defined - used - set(polybern.__all__)) == []


@pytest.mark.parametrize(
    "module,name",
    [
        ("verify", "CriterionResult"),
        ("lclt", "DiscrepancyReport"),
        ("lclt", "GaussianParams"),
        ("saddle", "SaddlePoint"),
        ("lclt", "nu_density"),
    ],
)
def test_module_level_names_stay_off_the_root(module, name):
    assert name not in polybern.__all__
    assert hasattr(importlib.import_module(f"polybern.{module}"), name)


def test_the_int_check_is_spelled_once():
    # exactcomb._check_ints is the library's one int check, and its callers
    # pass the phrase; no raise may spell the rule again
    spelled = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise):
                texts = [c.value for c in ast.walk(node) if isinstance(c, ast.Constant) and isinstance(c.value, str)]
                if any("must be an int" in text or "must be ints" in text for text in texts):
                    spelled.append(f"{path.name}:{node.lineno}")
    assert spelled == []


def test_the_size_rule_is_the_one_guard_raise():
    # exactcomb._check_sizes refuses every size outside its guard; the only
    # other GuardError is a bound on a quantity derived from two arguments:
    # n*k in the matrix sweep, n+k in the permutation sweep and parseval's
    # node floor 2k+4
    sites = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}  # each node's innermost function: ast.walk visits outer ones first
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                owner.update((node, fn.name) for node in ast.walk(fn))
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and getattr(getattr(node.exc, "func", None), "id", None) == "GuardError":
                sites.append((path.stem, owner.get(node)))
    assert sorted(sites) == [
        ("exactcomb", "_check_sizes"),
        ("oracle", "_count_permutations"),
        ("oracle", "_swept"),
        ("quad", "parseval_b"),
    ]


def test_the_stirling_triangle_has_one_owner():
    # exactcomb._stirling_row alone grows, stores and reads _rows, so the
    # rule of which rows it keeps lives in one function; the module-level
    # assignment is no function and is exempt
    owners = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                isinstance(c, ast.Name) and c.id == "_rows"
                or isinstance(c, ast.Attribute) and c.attr == "_rows"
                or isinstance(c, ast.Global) and "_rows" in c.names
                for c in ast.walk(node)
            ):
                owners.add(f"{path.stem}.{node.name}")
    assert owners == {"exactcomb._stirling_row"}
