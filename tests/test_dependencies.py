"""The package runs on the standard library alone.

Every import in src/fcunits names fcunits itself or a standard library
module other than `dataclasses`, a CLI start loads none of `dataclasses`,
`inspect` and `importlib.resources`, and a rational analysis runs to its
golden report in a process where importing sympy fails.
"""

import ast
import os
import pathlib
import subprocess
import sys

import fcunits

SRC = pathlib.Path(fcunits.__file__).resolve().parent
ROOT = pathlib.Path(__file__).resolve().parents[1]
# importing dataclasses costs every CLI start more than the records it builds
FORBIDDEN = {"dataclasses"}


def imported_modules(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            yield "fcunits" if node.level else node.module


def test_every_import_is_fcunits_or_the_standard_library():
    outside = {(path.name, name)
               for path in sorted(SRC.glob("*.py"))
               for name in imported_modules(path)
               if name.split(".")[0] in FORBIDDEN
               or (name.split(".")[0] not in sys.stdlib_module_names
                   and name.split(".")[0] not in {"fcunits", "__future__"})}
    assert not outside


def test_cli_start_loads_neither_dataclasses_nor_inspect():
    env = {**os.environ, "PYTHONPATH": str(SRC.parent),
           "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, fcunits.cli; "
         "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))"],
        capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_cli_start_does_not_load_importlib_resources():
    # -S: a site .pth file may load importlib.resources before any import
    env = {**os.environ, "PYTHONPATH": str(SRC.parent),
           "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, fcunits.cli; "
         "print('importlib.resources' in sys.modules)"],
        capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


BLOCK_SYMPY = """\
import sys


class NoSympy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "sympy":
            raise ImportError("sympy is blocked in this process")
        return None


sys.meta_path.insert(0, NoSympy())
sys.path.insert(0, sys.argv[1])
import make_goldens

text = make_goldens.analyze_text("c3_z_rationals")
assert "sympy" not in sys.modules
sys.stdout.write(text)
"""


def test_rational_analysis_runs_with_sympy_blocked():
    env = {k: v for k, v in os.environ.items() if k != "FC_UNITS_SEED"}
    env["PYTHONPATH"] = str(SRC.parent)
    proc = subprocess.run(
        [sys.executable, "-c", BLOCK_SYMPY, str(ROOT / "tools")],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    golden = ROOT / "tests" / "golden" / "c3_z_rationals.analyze.json"
    assert proc.stdout == golden.read_text(encoding="utf-8")
