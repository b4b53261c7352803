"""Regenerate the analyze and oracle goldens under tests/golden/.

Run from the repository root:

    PYTHONPATH=src python3 tools/make_goldens.py

For every valid bundled instance (the named ones and those in lemma3/,
without the deliberately broken cocycle) it writes
tests/golden/<name>.analyze.json, the report of
`fcunits analyze <instance> --verdict --structure`.  For the instances
small enough for the exhaustive oracle (ORACLE_NAMES, the request set of
the benchmark's oracle-crosscheck workload) it also writes
tests/golden/<name>.oracle.json, the report of
`fcunits analyze <instance> --oracle`.  Both use analysis seed 0 and
leave out the `tool` block, whose version changes with every release.
tests/test_goldens.py compares the reports byte for byte, so rerun this
only for a change that is meant to alter reports.
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

# kind -> the analyze flags its golden records
FLAGS = {"analyze": ("--verdict", "--structure"), "oracle": ("--oracle",)}

ORACLE_NAMES = (
    "gf3_c2_trivial", "gf3_c2_twisted",
    "lemma3/c2_gf3", "lemma3/c2_gf5", "lemma3/c2_gf7", "lemma3/c2_gf9",
    "lemma3/c2_gf81",
    "lemma3/c3_gf4", "lemma3/c3_gf7", "lemma3/c3_gf8", "lemma3/c3_gf13",
    "lemma3/c4_gf3", "lemma3/c4_gf5",
)


def instance_names():
    names = [n for n in cli.bundled_names() if n not in INVALID]
    return names + [f"lemma3/{n}" for n in cli.bundled_names("lemma3")]


def goldens():
    """Every (name, kind) pair that has a golden."""
    return ([(n, "analyze") for n in instance_names()]
            + [(n, "oracle") for n in ORACLE_NAMES])


def analyze_text(name, kind="analyze"):
    """The golden text of one instance: the report minus `tool`."""
    path = resources.files("fcunits") / "instances" / f"{name}.json"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(["analyze", str(path), *FLAGS[kind]])
    if rc != 0:
        raise RuntimeError(f"analyze {name} ({kind}) exited {rc}")
    report = json.loads(out.getvalue())
    del report["tool"]
    return cli.render_report(report)


def golden_path(name, kind="analyze"):
    return GOLDEN / f"{name}.{kind}.json"


def main():
    os.environ.pop("FC_UNITS_SEED", None)
    for name, kind in goldens():
        path = golden_path(name, kind)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(analyze_text(name, kind), encoding="utf-8")
        print(f"wrote {path.relative_to(GOLDEN.parents[1])}")


if __name__ == "__main__":
    main()
