"""Regenerate the analyze goldens under tests/golden/.

Run from the repository root:

    PYTHONPATH=src python3 tools/make_goldens.py

For every valid bundled instance (the named ones and those in lemma3/,
without the deliberately broken cocycle) it writes
tests/golden/<name>.analyze.json, the report of
`fcunits analyze <instance> --verdict --structure` with analysis seed 0
and without the `tool` block, whose version depends on how the package
was installed.  tests/test_goldens.py compares the reports byte for
byte, so rerun this only for a change that is meant to alter reports.
"""

import contextlib
import io
import json
import os
import pathlib
from importlib import resources

from fcunits import cli

GOLDEN = pathlib.Path(__file__).resolve().parents[1] / "tests" / "golden"
INVALID = {"broken_cocycle"}


def instance_names():
    names = [n for n in cli.bundled_names() if n not in INVALID]
    return names + [f"lemma3/{n}" for n in cli.bundled_names("lemma3")]


def analyze_text(name):
    """The golden text of one instance: the analyze report minus `tool`."""
    path = resources.files("fcunits") / "instances" / f"{name}.json"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(["analyze", str(path), "--verdict", "--structure"])
    if rc != 0:
        raise RuntimeError(f"analyze {name} exited {rc}")
    report = json.loads(out.getvalue())
    del report["tool"]
    return cli.render_report(report)


def golden_path(name):
    return GOLDEN / f"{name}.analyze.json"


def main():
    os.environ.pop("FC_UNITS_SEED", None)
    for name in instance_names():
        path = golden_path(name)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(analyze_text(name), encoding="utf-8")
        print(f"wrote {path.relative_to(GOLDEN.parents[1])}")


if __name__ == "__main__":
    main()
