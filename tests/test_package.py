"""The public import surface."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import bktirt
import bktirt.cli


def test_every_exported_name_resolves_once():
    assert len(bktirt.__all__) == len(set(bktirt.__all__))
    for name in bktirt.__all__:
        assert hasattr(bktirt, name), name


def test_version_is_the_same_everywhere(capsys):
    # pyproject.toml is read as text: tomllib needs Python 3.11 and the
    # package supports 3.10.
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    declared = re.findall(r'^version = "([^"]+)"$', pyproject, flags=re.MULTILINE)
    assert declared == [bktirt.__version__]
    assert bktirt.cli.dispatch(["--version"]) == 0
    assert capsys.readouterr().out == f"{bktirt.__version__}\n"


def test_names_the_tracer_wraps_on_the_cli_exist():
    # bench/tracer.py replaces these attributes of bktirt.cli by name, so a
    # name that moves or goes breaks traced benchmark runs. Its in_cli table
    # is read from the source; the tracer is not imported or run.
    source = (Path(__file__).parents[1] / "bench" / "tracer.py").read_text(encoding="utf-8")
    tables = [
        node.value
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Assign)
        and [getattr(target, "id", None) for target in node.targets] == ["in_cli"]
    ]
    assert len(tables) == 1 and isinstance(tables[0], ast.Dict)
    names = [ast.literal_eval(key) for key in tables[0].keys]
    assert "write_curves_csv" in names
    for name in names:
        assert callable(getattr(bktirt.cli, name, None)), name
