"""The package facades are lazy and complete.

Each facade (``repro``, ``repro.core``, ...) holds nothing but a
docstring, ``__all__`` and one name -> module table handed to
:func:`repro._lazy.exports`.  A typo in a table only fails when the
name is read, so these tests read every name.
"""

from __future__ import annotations

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import repro

FACADES = ("repro", "repro.core", "repro.metrics", "repro.sim", "repro.obs",
           "repro.rt", "repro.service", "repro.runner")


def _body(facade: str) -> list[ast.stmt]:
    path = pathlib.Path(importlib.import_module(facade).__file__)
    return ast.parse(path.read_text()).body


def _table(facade: str) -> dict[str, tuple[str, ...]]:
    """The facade's defining module -> names table, read from source."""
    return ast.literal_eval(_body(facade)[-1].value.args[1])


@pytest.mark.parametrize("facade", FACADES)
def test_facade_holds_only_reexports(facade):
    doc, helper, names, exports = _body(facade)
    assert isinstance(doc, ast.Expr) and isinstance(doc.value.value, str)
    assert ast.unparse(helper) == "from repro import _lazy"
    assert ast.unparse(names.targets[0]) == "__all__"
    assert isinstance(ast.literal_eval(names.value), list)
    assert ast.unparse(exports.targets[0]) == "(__getattr__, __dir__)"
    assert ast.unparse(exports.value.func) == "_lazy.exports"
    assert ast.unparse(exports.value.args[0]) == "__name__"


@pytest.mark.parametrize("facade", FACADES)
def test_table_lists_exactly_all(facade):
    module = importlib.import_module(facade)
    listed = [name for names in _table(facade).values() for name in names]
    assert len(listed) == len(set(listed))
    assert sorted(listed) == sorted(module.__all__)
    assert len(module.__all__) == len(set(module.__all__))


@pytest.mark.parametrize("facade", FACADES)
def test_every_name_is_its_defining_modules_object(facade):
    module = importlib.import_module(facade)
    listing = dir(module)
    for origin, names in _table(facade).items():
        defining = importlib.import_module(origin)
        for name in names:
            assert getattr(module, name) is getattr(defining, name), name
            assert name in listing, name


@pytest.mark.parametrize("facade", FACADES)
def test_star_import(facade):
    namespace: dict = {}
    exec(f"from {facade} import *", namespace)
    module = importlib.import_module(facade)
    for name in module.__all__:
        assert namespace[name] is getattr(module, name)


@pytest.mark.parametrize("facade", FACADES)
def test_unknown_name_is_an_attribute_error(facade):
    module = importlib.import_module(facade)
    with pytest.raises(AttributeError, match=f"module '{facade}' has no "
                                             f"attribute 'no_such_name'"):
        module.no_such_name


def test_importing_a_facade_loads_none_of_its_modules():
    """``import repro.runner`` runs two facades and the helper, no more;
    reading a name then loads just that name's module closure."""
    script = ("import sys, repro.runner; before = sorted(m for m in "
              "sys.modules if m.startswith('repro'));"
              " repro.runner.Scenario;"
              " print(before, 'repro.runner.scenario' in sys.modules,"
              " 'repro.runner.campaign' in sys.modules)")
    src = pathlib.Path(repro.__file__).resolve().parents[1]
    result = subprocess.run([sys.executable, "-c", script],
                            env={**os.environ, "PYTHONPATH": str(src)},
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == [
        "['repro',", "'repro._lazy',", "'repro.runner']", "True", "False"]
