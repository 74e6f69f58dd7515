"""The package namespace resolves its public names on first use.

``fibernorm.<name>`` imports the defining module when it is read and
caches nothing in the package namespace.  A fresh interpreter that only
parses an input document, as the command line does before it dispatches,
loads ``fibernorm``, ``cli``, ``errors`` and ``matrix`` and no other
layer; each subcommand then loads the layers it runs.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fibernorm

SRC = Path(__file__).resolve().parent.parent / "src"

SETUP_MODULES = {"fibernorm", "fibernorm.cli", "fibernorm.errors", "fibernorm.matrix"}

# the set-up path of a command line process: import, then parse one document
SETUP_CODE = """\
import fibernorm
from fibernorm.cli import parse_input
parse_input("genus = 2\\nsingularities = 6\\nmatrix = [[0,0,0,1],[1,0,0,1],[0,1,0,1],[0,0,1,1]]\\n")
"""


def _modules_after(code):
    """The modules a fresh interpreter holds once it has run code."""
    probe = f"import sys\n{code}\nprint(*sys.modules)\n"
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True)
    return set(done.stdout.splitlines()[-1].split())


def _fibernorm_modules(modules):
    return {name for name in modules if name.split(".")[0] == "fibernorm"}


@pytest.mark.parametrize("name", fibernorm.__all__)
def test_every_public_name_is_its_defining_modules_object(name):
    namespace = {}
    exec(f"from fibernorm import {name}", namespace)
    value = namespace[name]
    assert value.__module__.startswith("fibernorm.")
    assert value is getattr(importlib.import_module(value.__module__), name)
    assert getattr(fibernorm, name) is value


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from fibernorm import *", namespace)
    assert set(fibernorm.__all__) <= set(namespace)


def test_dir_lists_every_public_name():
    assert set(fibernorm.__all__) <= set(dir(fibernorm))
    assert "__version__" in dir(fibernorm)


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        fibernorm.no_such_name  # noqa: B018
    assert not hasattr(fibernorm, "no_such_name")
    from fibernorm import bundle  # a submodule, not a public name

    assert bundle.build_bundle is fibernorm.build_bundle


def test_reading_names_caches_nothing_in_the_package():
    # load every defining module first: importing a submodule binds it in the package
    for name in fibernorm.__all__:
        getattr(fibernorm, name)
    before = dict(vars(fibernorm))
    for name in fibernorm.__all__:
        getattr(fibernorm, name)
    assert vars(fibernorm) == before
    assert not set(fibernorm.__all__) & set(vars(fibernorm))


def test_setup_path_loads_only_parsing_modules():
    assert _fibernorm_modules(_modules_after(SETUP_CODE)) == SETUP_MODULES


def test_setup_path_loads_no_dataclasses():
    if "dataclasses" in _modules_after("pass"):
        pytest.skip("this interpreter loads dataclasses at start-up")
    assert "dataclasses" not in _modules_after(SETUP_CODE)


def test_every_layer_loads_no_dataclasses():
    # the result records are named tuples
    if "dataclasses" in _modules_after("pass"):
        pytest.skip("this interpreter loads dataclasses at start-up")
    assert "dataclasses" not in _modules_after("from fibernorm import *")


def test_charpoly_loads_only_its_own_layer(tmp_path):
    path = tmp_path / "quad.txt"
    path.write_text("matrix = [[2,1],[1,1]]\n")
    loaded = _modules_after(f"from fibernorm.cli import main\nmain(['charpoly', '--input', {str(path)!r}])")
    assert "fibernorm.exact" in loaded
    assert not {f"fibernorm.{m}" for m in ("norm", "numberfield", "dimgroup", "bundle", "perron")} & loaded


def test_usage_error_loads_no_handler_layer():
    code = "import io\nfrom fibernorm.cli import main\nmain(['nosuch', '--input', 'x'], io.StringIO(), io.StringIO())"
    assert _fibernorm_modules(_modules_after(code)) == SETUP_MODULES
