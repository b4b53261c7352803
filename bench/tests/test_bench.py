"""Self-tests of the benchmark.

    python3 -m pytest bench/tests -q

They run the benchmark itself, so they take about a minute.
"""

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from metrics import END_TO_END, PER_LAYER  # noqa: E402
from workloads import REFERENCES, SRC_DIR, WORKLOADS  # noqa: E402

COUNT_SUFFIXES = (".calls", ".cells", ".count")


def bench(*args):
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"),
                           *args], cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_of_each_workload(workload):
    """One pass, the shortest run there is."""
    result = bench("--workload", workload, "--seed", "3", "--seconds", "0",
                   "--trace", "0")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(WORKLOADS[workload].requests)
    assert {name: unit for name, unit, _, _ in END_TO_END} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_corrupted_reference_digest_counts_as_failed(tmp_path):
    with open(REFERENCES, encoding="utf-8") as fh:
        references = json.load(fh)
    key = WORKLOADS["corpus"].requests[0].key
    references[key]["digest"] = "0" * 64
    corrupted = tmp_path / "references.json"
    corrupted.write_text(json.dumps(references), encoding="utf-8")
    result = bench("--workload", "corpus", "--seed", "1", "--seconds", "0",
                   "--trace", "0", "--references", str(corrupted))
    assert not result["correct"]
    assert result["failed"] == 1
    assert result["attempted"] == len(WORKLOADS["corpus"].requests)


def test_traced_counts_repeat_exactly():
    runs = [bench("--workload", "cli-cold", "--seed", "5", "--seconds", "0",
                  "--trace", "1")["metrics"] for _ in range(2)]
    assert set(runs[0]) == {name for name, _, _, _ in PER_LAYER}
    counts = [name for name in runs[0] if name.endswith(COUNT_SUFFIXES)]
    assert len(counts) == sum(unit == "count" for _, unit, _, _ in PER_LAYER)
    for name in counts:
        assert runs[0][name]["value"] == runs[1][name]["value"], name
    assert runs[0]["structure.sympy_factor_list.calls"]["value"] > 0
    assert runs[0]["cli.process_s"]["value"] > 0


def test_self_times_add_up_to_the_request_time():
    sys.path.insert(0, SRC_DIR)
    from tracer import Recorder, TIMED
    from worker import run_in_process

    recorder = Recorder()
    recorder.install()
    try:
        outcome = run_in_process(WORKLOADS["corpus"].requests[0], recorder)
    finally:
        recorder.restore()
    assert outcome.status == 0
    names = [name for _, _, name in TIMED] + ["request"]
    self_sum = sum(recorder.self_time[name] for name in names)
    assert self_sum == pytest.approx(recorder.total["request"], rel=1e-6)
    assert recorder.total["request"] <= outcome.seconds
    from fcunits import cli, fc, linalg
    for restored in (cli.verdict, fc.verdict, linalg.rref):
        assert not hasattr(restored, "__wrapped__")


def test_benchmark_json_lists_the_defined_metrics_and_workloads():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == \
        [w.why for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == \
        [(name, unit, better) for name, unit, better, _ in PER_LAYER]
