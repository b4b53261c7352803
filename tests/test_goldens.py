"""Every valid bundled instance analyzes to its committed golden report.

The goldens are written by tools/make_goldens.py; the comparison is byte
for byte, so any change in a verdict, a structure figure or the report
layout shows here.
"""

import importlib.util
import pathlib

import pytest

_TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" \
    / "make_goldens.py"
_spec = importlib.util.spec_from_file_location("make_goldens", _TOOL)
make_goldens = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_goldens)


def test_every_valid_bundled_instance_has_a_golden():
    names = make_goldens.instance_names()
    assert len(names) == 31
    on_disk = sorted(str(p.relative_to(make_goldens.GOLDEN))
                     for p in make_goldens.GOLDEN.rglob("*.analyze.json"))
    assert on_disk == sorted(f"{n}.analyze.json" for n in names)


@pytest.mark.parametrize("name", make_goldens.instance_names())
def test_analyze_report_matches_golden(name, monkeypatch):
    monkeypatch.delenv("FC_UNITS_SEED", raising=False)
    expected = make_goldens.golden_path(name).read_text(encoding="utf-8")
    assert make_goldens.analyze_text(name) == expected
