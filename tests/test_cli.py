import json
import os
import pathlib
import re
import subprocess
import sys
import time
from importlib import resources

import pytest

from fcunits import cli
from fcunits.errors import InstanceFormatError
from fcunits.fc import instance_from_json
from fcunits.groups import MAX_RANK
from fcunits.oracle import oracle_report

INSTANCES = resources.files("fcunits") / "instances"


def path_of(name):
    return str(INSTANCES / f"{name}.json")


def run(argv, capsys):
    rc = cli.main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_validate_accepts_bundled_instance(capsys):
    rc, out, _ = run(["validate", path_of("heisenberg_gf2")], capsys)
    assert rc == 0
    # 2^3 torsion triples against the 4 achievable pairing-offset pairs
    assert out == ("valid: cocycle identity holds in 32 checks (torsion "
                   "triples x pairing-offset pairs, box radius 3)\n")


def test_validate_rejects_broken_cocycle(capsys):
    rc, out, _ = run(["validate", path_of("broken_cocycle")], capsys)
    assert rc == 1
    assert out.startswith("invalid:")
    assert "lambda(g,h)" in out


def test_validate_missing_file_is_io_error(capsys):
    rc, _, err = run(["validate", "/nonexistent/foo.json"], capsys)
    assert rc == 2
    assert "error:" in err


def test_validate_garbage_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    rc, _, err = run(["validate", str(bad)], capsys)
    assert rc == 2


def test_validate_schema_violation(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"field": {"kind": "rationals"}}),
                   encoding="utf-8")
    rc, _, err = run(["validate", str(bad)], capsys)
    assert rc == 2
    assert "error:" in err


def test_analyze_default_section_is_verdict(capsys):
    rc, out, _ = run(["analyze", path_of("heisenberg_gf2")], capsys)
    assert rc == 0
    report = json.loads(out)
    assert report["tool"]["name"] == "fcunits"
    assert report["seed"] == 0
    assert set(report["sections"]) == {"verdict"}
    assert report["sections"]["verdict"]["result"] == "FC"
    raw = json.loads((INSTANCES / "heisenberg_gf2.json").read_text())
    assert report["instance"]["digest"] == instance_from_json(raw).digest()
    assert report["instance"]["name"] == "Heisenberg mod 2 over GF(2)"


def test_analyze_rejects_invalid_instance(capsys):
    rc, _, err = run(["analyze", path_of("broken_cocycle")], capsys)
    assert rc == 1
    assert "invalid:" in err


def test_analyze_is_deterministic(capsys):
    argv = ["analyze", path_of("c3_z_rationals"), "--verdict", "--structure"]
    _, first, _ = run(argv, capsys)
    _, second, _ = run(argv, capsys)
    assert first == second


def test_one_parser_serves_every_call(capsys):
    # the parser is built once per process, and a parse, a failed one
    # included, leaves it as it was
    parser = cli._build_parser()
    with pytest.raises(SystemExit):
        run(["analyze", path_of("c3_z_rationals"), "--depth", "x"], capsys)
    rc, out, _ = run(["analyze", path_of("c3_z_rationals")], capsys)
    assert rc == 0
    assert json.loads(out)["sections"]["verdict"]["result"] == "FC"
    assert cli._build_parser() is parser
    assert parser.parse_args(["validate", "f.json"]).instance == "f.json"


def test_analyze_out_writes_file_and_mutes_stdout(tmp_path, capsys):
    target = tmp_path / "report.json"
    rc, out, _ = run(["analyze", path_of("gf3_c2_twisted"),
                      "--out", str(target)], capsys)
    assert rc == 0
    assert out == ""
    report = json.loads(target.read_text(encoding="utf-8"))
    assert report["sections"]["verdict"]["result"] == "Inapplicable"


def test_analyze_structure_section(capsys):
    rc, out, _ = run(["analyze", path_of("c3_z_rationals"), "--structure"],
                     capsys)
    assert rc == 0
    section = json.loads(out)["sections"]["structure"]
    assert section["torsion_dimension"] == 3
    assert section["radical"]["dimension"] == 0
    assert section["idempotent_count"] == 4


def test_analyze_structure_level_override(capsys):
    rc, out, _ = run(["analyze", path_of("prufer2_gf257"),
                      "--structure", "--level", "2"], capsys)
    assert rc == 0
    section = json.loads(out)["sections"]["structure"]
    assert section["prufer_level"] == 2
    assert section["torsion_dimension"] == 4


@pytest.mark.parametrize("flag, value", [
    ("--level", -2), ("--level", 0), ("--level", 9),
    ("--depth", -1), ("--depth", 13),
])
def test_analyze_rejects_an_override_outside_its_cap_range(flag, value,
                                                           tmp_path, capsys):
    # the same ranges as truncation_level and orbit_depth in an instance
    target = tmp_path / "report.json"
    rc, out, err = run(["analyze", path_of("prufer2_gf257"), "--structure",
                        "--orbits", "f1", flag, str(value),
                        "--out", str(target)], capsys)
    assert rc == 2
    assert out == ""
    assert err.startswith(f"error: {flag} must be an int in [")
    assert err.count("\n") == 1
    assert not target.exists()


@pytest.mark.parametrize("flag, value, key, expected", [
    ("--level", 1, "prufer_level", 1), ("--level", 8, "prufer_level", 6),
    ("--depth", 0, "depth", 0), ("--depth", 12, "depth", 12),
])
def test_analyze_accepts_an_override_at_its_cap_range_edges(flag, value, key,
                                                            expected, capsys):
    section = "structure" if flag == "--level" else "orbits"
    rc, out, _ = run(["analyze", path_of("prufer2_gf257"), "--structure",
                      "--orbits", "f1", flag, str(value)], capsys)
    assert rc == 0
    assert json.loads(out)["sections"][section][key] == expected


def test_analyze_orbit_section(capsys):
    rc, out, _ = run(["analyze", path_of("heisenberg_gf2"),
                      "--orbits", "f1", "t1", "--depth", "4"], capsys)
    assert rc == 0
    section = json.loads(out)["sections"]["orbits"]
    assert section["depth"] == 4
    assert section["probes"]["f1"]["sizes_by_depth"] == [1, 2, 2]
    assert section["probes"]["f1"]["stabilized"]
    assert section["probes"]["t1"]["sizes_by_depth"] == [1, 1]


def test_analyze_unknown_orbit_label(capsys):
    rc, _, err = run(["analyze", path_of("heisenberg_gf2"),
                      "--orbits", "t9"], capsys)
    assert rc == 2
    assert "unknown generator label" in err


def test_analyze_oracle_cross_check_agrees(capsys):
    rc, out, _ = run(["analyze", path_of("gf3_c2_twisted"), "--oracle"],
                     capsys)
    assert rc == 0
    section = json.loads(out)["sections"]["oracle"]
    assert section["agree"] is True
    assert section["report"]["unit_count"] == 8
    assert section["report"]["idempotent_count"] == 2
    assert section["report"]["radical_dimension"] == 0
    checks = section["cross_check"]
    assert checks["radical_dimension"]["structural"] == 0
    assert checks["idempotent_count"]["structural"] == 2
    assert checks["unit_count"]["structural"] == 8


def test_analyze_oracle_refuses_infinite_instance(capsys):
    rc, _, err = run(["analyze", path_of("c3_z_rationals"), "--oracle"],
                     capsys)
    assert rc == 1
    assert "finite" in err


def test_seed_env_is_recorded(monkeypatch, capsys):
    monkeypatch.setenv("FC_UNITS_SEED", "7")
    rc, out, _ = run(["analyze", path_of("gf3_c2_trivial")], capsys)
    assert rc == 0
    assert json.loads(out)["seed"] == 7


def test_seed_env_must_be_integer(monkeypatch, capsys):
    monkeypatch.setenv("FC_UNITS_SEED", "lucky")
    rc, _, err = run(["analyze", path_of("gf3_c2_trivial")], capsys)
    assert rc == 2
    assert "FC_UNITS_SEED" in err


def test_human_rendering(capsys):
    rc, out, _ = run(["analyze", path_of("c2_z_gf3_twisted"), "--human"],
                     capsys)
    assert rc == 0
    assert out.splitlines()[0].startswith("fcunits")
    assert "verdict: FC via T4" in out
    assert "[pass] T4.3" in out


def test_bundled_listing():
    names = cli.bundled_names()
    assert "heisenberg_gf2" in names
    assert "broken_cocycle" in names
    assert len(cli.bundled_names("lemma3")) == 20


def test_bundled_instance_loads():
    obj = cli.bundled_instance("lemma3/c12_gf7")
    inst = instance_from_json(obj)
    assert inst.validate().valid
    assert inst.group.torsion.size == 12


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "fcunits.cli", "analyze",
         path_of("gf3_c2_twisted"), "--oracle", "--human"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "cross-check agrees" in proc.stdout


@pytest.mark.parametrize("bad", [2.5, "2", True])
def test_analyze_rejects_non_integer_group_data(bad, tmp_path, capsys):
    raw = cli.bundled_instance("gf3_c2_twisted")
    cases = {"invariants": {"kind": "central-extension", "rank": 0,
                            "torsion": {"invariants": [bad]}},
             "cayley": {"kind": "cayley", "table": [[0, 1], [1, bad]]},
             "pairing": {"kind": "central-extension", "rank": 2,
                         "torsion": {"invariants": [2]},
                         "pairing": {"target_index": 0,
                                     "matrix": [[0, bad], [0, 0]]}},
             "rank": {"kind": "central-extension", "rank": bad,
                      "torsion": {"invariants": [2]}},
             "target_index": {"kind": "central-extension", "rank": 2,
                              "torsion": {"invariants": [2]},
                              "pairing": {"target_index": bad,
                                          "matrix": [[0, 1], [0, 0]]}},
             "prufer_q": {"kind": "central-extension", "rank": 1,
                          "torsion": {"invariants": []},
                          "prufer": {"q": bad, "levels": 2}},
             "prufer_levels": {"kind": "central-extension", "rank": 1,
                               "torsion": {"invariants": []},
                               "prufer": {"q": 2, "levels": bad}}}
    # a target_vector needs one int per invariant factor
    for vector in ([1.5], ["1"], [True], [1, 0, 0], []):
        cases[f"target_vector {vector}"] = {
            "kind": "central-extension", "rank": 2,
            "torsion": {"invariants": [2]},
            "pairing": {"target_vector": vector,
                        "matrix": [[0, 1], [0, 0]]}}
    for what, group in cases.items():
        path = tmp_path / f"{what}.json"
        path.write_text(json.dumps({**raw, "group": group,
                                    "cocycle": {}}),
                        encoding="utf-8")
        rc, out, err = run(["analyze", str(path), "--verdict"], capsys)
        assert rc == 2, what
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("rank", [MAX_RANK + 1, 10 ** 30])
def test_analyze_rejects_a_rank_above_the_cap(rank, tmp_path, capsys):
    # checked before the group allocates anything per free coordinate
    raw = cli.bundled_instance("gf3_c2_twisted")
    path = tmp_path / "rank.json"
    path.write_text(json.dumps({**raw, "cocycle": {}, "group": {
        "kind": "central-extension", "rank": rank,
        "torsion": {"invariants": [2]}}}), encoding="utf-8")
    rc, out, err = run(["analyze", str(path), "--verdict"], capsys)
    assert rc == 2
    assert out == ""
    assert err == (f"error: central-extension 'rank' {rank} exceeds the "
                   f"cap {MAX_RANK}\n")


@pytest.mark.parametrize("bad", [2.5, "2", True])
def test_analyze_rejects_non_integer_field_and_cocycle_data(bad, tmp_path,
                                                            capsys):
    gf4 = cli.bundled_instance("lemma3/c3_gf4")
    gf3 = cli.bundled_instance("gf3_c2_twisted")
    plane = {"kind": "central-extension", "rank": 2,
             "torsion": {"invariants": [2]}}
    cases = {
        "modulus": {**gf4, "field": {**gf4["field"],
                                     "modulus": [bad, 1, 1]}},
        "degree": {**gf3, "field": {**gf3["field"], "k": bad}},
        "extension-value": {**gf4, "cocycle": {
            "torsion_table": {"(1,2)": [0, bad], "(2,1)": [0, 1],
                              "(2,2)": [0, 1]}}},
        "prime-value": {**gf3, "cocycle": {"torsion_table": {"(1,1)": bad}}},
        "bilinear": {**gf3, "group": plane, "cocycle": {
            "bilinear": {"zeta": 2, "matrix": [[0, bad], [0, 0]]}}},
    }
    if not isinstance(bad, str):        # "2" is a rational literal
        cases["rational-value"] = {
            **gf3, "field": {"kind": "rationals"},
            "cocycle": {"torsion_table": {"(1,1)": bad}}}
    for what, obj in cases.items():
        path = tmp_path / f"{what}.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        rc, out, err = run(["analyze", str(path), "--verdict"], capsys)
        assert rc == 2, what
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1


OMIT = object()


def _with_value(obj, keys, value):
    """A copy of obj with the value at the key path `keys` set, or removed
    when value is OMIT."""
    obj = json.loads(json.dumps(obj))
    inner = obj
    for key in keys[:-1]:
        inner = inner[key]
    if value is OMIT:
        inner.pop(keys[-1], None)
    else:
        inner[keys[-1]] = value
    return obj


@pytest.mark.parametrize("name, keys, equivalent", [
    ("gf3_c2_twisted", ["cocycle"], {}),
    ("gf3_c2_twisted", ["cocycle", "bilinear"], OMIT),
    ("heisenberg_gf2", ["group", "pairing"], OMIT),
    ("gf3_c2_trivial", ["group", "prufer"], OMIT),
    ("z2_to_c3_gf7", ["caps"], OMIT),
    ("gf3_c2_trivial", ["name"], OMIT),
], ids=["cocycle", "bilinear", "pairing", "prufer", "caps", "name"])
def test_null_reads_as_its_documented_equivalent(name, keys, equivalent,
                                                 tmp_path, capsys):
    """A null cocycle is the trivial cocycle {}; a null bilinear part,
    pairing, prufer, caps or name is omitted (README, input format)."""
    path = tmp_path / "instance.json"
    runs = []
    for value in (None, equivalent):
        obj = _with_value(cli.bundled_instance(name), keys, value)
        path.write_text(json.dumps(obj), encoding="utf-8")
        runs.append(run(["analyze", str(path), "--verdict", "--structure"],
                        capsys))
    assert runs[0][0] == 0
    assert runs[0] == runs[1]


def test_null_torsion_table_exits_two(tmp_path, capsys):
    obj = _with_value(cli.bundled_instance("gf3_c2_twisted"),
                      ["cocycle", "torsion_table"], None)
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    rc, out, err = run(["analyze", str(path), "--verdict"], capsys)
    assert (rc, out) == (2, "")
    assert err == "error: cocycle torsion_table must be an object: None\n"


def test_analyze_validates_the_cocycle_once(monkeypatch, capsys):
    from fcunits import algebra, fc

    calls = []
    loaded = []

    def counting(group, cocycle, box_radius=3):
        calls.append((group, box_radius))
        return original(group, cocycle, box_radius=box_radius)

    def loading(obj):
        loaded.append(load(obj))
        return loaded[-1]

    original, load = fc.validate_cocycle, cli.instance_from_json
    monkeypatch.setattr(fc, "validate_cocycle", counting)
    monkeypatch.setattr(algebra, "validate_cocycle", counting)
    monkeypatch.setattr(cli, "instance_from_json", loading)
    rc, _, _ = run(["analyze", path_of("heisenberg_gf2"), "--verdict",
                    "--structure", "--orbits", "f1"], capsys)
    assert rc == 0
    inst, = loaded
    assert [(g, r) for g, r in calls if g is inst.group] == \
        [(inst.group, inst.caps.box_radius)]


def test_structure_counts_idempotents_beyond_enumeration(tmp_path, capsys):
    # S3 x Z over GF(7): 7^6 vectors, and GF(7)[S3] = GF(7)^2 + M2(GF(7))
    spec = cli.bundled_instance("s3_z_gf5")
    spec["field"]["p"] = 7
    path = tmp_path / "s3_z_gf7.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    rc, out, _ = run(["analyze", str(path), "--structure"], capsys)
    assert rc == 0
    section = json.loads(out)["sections"]["structure"]
    assert section["radical"]["dimension"] == 0
    assert section["idempotent_count"] == 232


def noncommutative_instance(tmp_path):
    from fcunits.groups import symmetric_group_3_table

    path = tmp_path / "s3_gf2.json"
    path.write_text(json.dumps({
        "field": {"kind": "prime-power", "p": 2},
        "group": {"kind": "cayley", "table": symmetric_group_3_table()},
        "cocycle": {}}), encoding="utf-8")
    return str(path)


def test_oracle_checks_the_unit_count_of_a_noncommutative_algebra(
        tmp_path, capsys):
    rc, out, _ = run(["analyze", noncommutative_instance(tmp_path),
                      "--oracle"], capsys)
    assert rc == 0
    section = json.loads(out)["sections"]["oracle"]
    assert section["agree"] is True
    assert section["cross_check"] == {
        "radical_dimension": {"oracle": 1, "structural": 1},
        "idempotent_count": {"oracle": 16, "structural": 16},
        "unit_count": {"oracle": 12, "structural": 12},
    }


def test_oracle_cross_check_ends_on_a_failed_certificate(monkeypatch,
                                                       tmp_path, capsys):
    from fcunits import structure

    # only a cap skips a check; a failed certificate exits 1, as it does
    # under --structure
    monkeypatch.setattr(structure, "_is_ideal", lambda fd, span: False)
    path = noncommutative_instance(tmp_path)
    for flag in ("--structure", "--oracle"):
        rc, out, err = run(["analyze", path, flag], capsys)
        assert rc == 1, flag
        assert out == ""
        assert err == "error: radical candidate is not an ideal\n"


def test_radical_cap_ends_as_above_cap_and_skipped(monkeypatch, tmp_path,
                                                   capsys):
    from fcunits import structure

    monkeypatch.setattr(structure, "RADICAL_NONCOMMUTATIVE_DIM_CAP", 4)
    path = noncommutative_instance(tmp_path)
    rc, out, _ = run(["analyze", path, "--structure"], capsys)
    assert rc == 0
    section = json.loads(out)["sections"]["structure"]
    assert section["radical"]["status"] == "dimension-too-large"
    assert section["idempotent_count"] == "above-cap"
    rc, out, _ = run(["analyze", path, "--oracle"], capsys)
    assert rc == 0
    checks = json.loads(out)["sections"]["oracle"]["cross_check"]
    for key in ("radical_dimension", "idempotent_count", "unit_count"):
        assert "capped at dimension 4" in checks[key]["skipped"]


def test_torsion_with_both_invariants_and_table_is_rejected(tmp_path,
                                                            capsys):
    # the verdict read C3 from the invariants, the oracle C2 from the table
    raw = cli.bundled_instance("gf3_c2_trivial")
    raw["group"]["torsion"] = {"invariants": [3], "table": [[0, 1], [1, 0]]}
    path = tmp_path / "both.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    for flag in ("--verdict", "--oracle"):
        rc, out, err = run(["analyze", str(path), flag], capsys)
        assert rc == 2, flag
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("name", ["lemma3/c4_gf9", "lemma3/c3_gf27"])
def test_oracle_cross_checks_bundled_instances_beyond_the_benchmark(
        name, capsys):
    """6,561 and 19,683 elements: under the oracle cap, outside the
    benchmark's oracle request set.  GF(27)[C3] is local with a radical
    of dimension 2 and residue field GF(27), so it has 27^2 * 26 units."""
    rc, out, _ = run(["analyze", path_of(name), "--oracle"], capsys)
    assert rc == 0
    section = json.loads(out)["sections"]["oracle"]
    assert section["agree"] is True
    checks = section["cross_check"]
    if name == "lemma3/c3_gf27":
        assert checks["unit_count"] == {"oracle": 18954,
                                        "structural": 18954}
    assert len(checks) == 3
    for key, check in checks.items():
        assert check["structural"] == check["oracle"], key


def test_oracle_cap_bounds_the_work_of_the_sweep(capsys):
    # 13^6 = 4,826,809 elements of dimension 6: 6^2 steps each
    start = time.perf_counter()
    rc, _, err = run(["analyze", path_of("lemma3/c6_gf13"), "--oracle"],
                     capsys)
    assert time.perf_counter() - start < 1
    assert rc == 1
    assert "a sweep of 173765124 product steps" in err
    assert "above the oracle cap" in err


def test_report_version_is_the_package_version(capsys):
    tomllib = pytest.importorskip("tomllib")
    import fcunits

    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    declared = tomllib.loads(pyproject.read_text(encoding="utf-8"))
    rc, out, _ = run(["analyze", path_of("gf3_c2_twisted")], capsys)
    assert rc == 0
    assert json.loads(out)["tool"]["version"] == fcunits.__version__ \
        == declared["project"]["version"]


def test_cli_import_leaves_importlib_metadata_out():
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, fcunits.cli; "
         "print('importlib.metadata' in sys.modules)"],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def _misspell(section, old, new):
    """Rename the key `old` of the object at `section` (a key path) to
    `new`, keeping its value."""
    def edit(obj):
        for key in section:
            obj = obj[key]
        obj[new] = obj.pop(old)
    return edit


def _put(section, key, value):
    def edit(obj):
        for name in section:
            obj = obj[name]
        obj[key] = value
    return edit


@pytest.mark.parametrize("edit, message", [
    # each of these ran and answered for another instance: the untwisted
    # algebra, or a group without its Pruefer part or pairing
    (_misspell(["cocycle"], "torsion_table", "torsion_tabel"),
     "unknown cocycle key 'torsion_tabel'"),
    (_put(["group"], "pufer", {"q": 2, "levels": 3}),
     "unknown central-extension group key 'pufer'"),
    (_put(["cocycle"], "bilinar", {"matrix": []}),
     "unknown cocycle key 'bilinar'"),
    (_put(["cocycle"], "bilinear", {"matrix": [], "zetta": 1}),
     "unknown bilinear key 'zetta'"),
    (_misspell(["field"], "p", "P"), "unknown prime-power field key 'P'"),
    (_put(["field"], "modulos", [1, 0, 1]),
     "unknown prime-power field key 'modulos'"),
    (_put(["group", "torsion"], "tabel", [[0]]),
     "unknown torsion key 'tabel'"),
    (_put(["group"], "prufer", {"q": 2, "levels": 3, "level": 2}),
     "unknown prufer key 'level'"),
    (_put(["group"], "pairing", {"matrix": [], "target_idx": 0}),
     "unknown pairing key 'target_idx'"),
    (_put(["group"], "pairing", {"matrix": [], "target_index": 0,
                                 "target_vector": [1]}),
     "pairing gives both 'target_index' and 'target_vector'"),
    # the last spelling of a pair won
    (_put(["cocycle", "torsion_table"], "( 1,1)", 1),
     r"torsion table pair \(1, 1\) is given twice"),
], ids=["cocycle", "group", "cocycle-bilinear", "bilinear", "field-p",
        "field-modulus", "torsion", "prufer", "pairing", "pairing-targets",
        "torsion-table-pair"])
def test_unknown_and_repeated_keys_are_rejected(tmp_path, capsys, edit,
                                                message):
    obj = cli.bundled_instance("gf3_c2_twisted")
    edit(obj)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    rc, out, err = run(["analyze", "--verdict", "--structure", str(path)],
                       capsys)
    assert (rc, out) == (2, "")
    assert err.count("\n") == 1 and re.search(message, err)
    # the oracle reads the instance on its own, and agrees
    with pytest.raises(InstanceFormatError, match=message):
        oracle_report(obj)
