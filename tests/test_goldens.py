"""Every valid bundled instance analyzes to its committed golden report,
and every instance small enough for the oracle cross-checks to its
committed oracle report.

The goldens are written by tools/make_goldens.py; the comparison is byte
for byte, so any change in a verdict, a structure figure, an oracle count
or the report layout shows here.
"""

import importlib.util
import pathlib

import pytest

_TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" \
    / "make_goldens.py"
_spec = importlib.util.spec_from_file_location("make_goldens", _TOOL)
make_goldens = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_goldens)


def goldens_on_disk(kind):
    return sorted(str(p.relative_to(make_goldens.GOLDEN))
                  for p in make_goldens.GOLDEN.rglob(f"*.{kind}.json"))


def test_every_valid_bundled_instance_has_a_golden():
    names = make_goldens.instance_names()
    assert len(names) == 31
    assert goldens_on_disk("analyze") == sorted(
        f"{n}.analyze.json" for n in names)


def test_every_oracle_instance_has_a_golden():
    names = make_goldens.ORACLE_NAMES
    assert len(names) == 13
    assert set(names) <= set(make_goldens.instance_names())
    assert goldens_on_disk("oracle") == sorted(
        f"{n}.oracle.json" for n in names)


@pytest.mark.parametrize("name", make_goldens.instance_names())
def test_analyze_report_matches_golden(name, monkeypatch):
    monkeypatch.delenv("FC_UNITS_SEED", raising=False)
    expected = make_goldens.golden_path(name).read_text(encoding="utf-8")
    assert make_goldens.analyze_text(name) == expected


@pytest.mark.parametrize("name", make_goldens.ORACLE_NAMES)
def test_oracle_report_matches_golden(name, monkeypatch):
    monkeypatch.delenv("FC_UNITS_SEED", raising=False)
    expected = make_goldens.golden_path(name, "oracle").read_text(
        encoding="utf-8")
    assert make_goldens.analyze_text(name, "oracle") == expected
