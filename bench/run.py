"""The fcunits benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; fcunits is imported from
`src/` (PYTHONPATH=src), never installed.  The run starts six fresh
interpreters that only time the set-up, then one worker process
(worker.py) that sets up, warms up and runs whole passes of the
workload's requests for about --seconds seconds.  Every request's report
is checked against bench/references.json.

--trace 0 prints the end-to-end metrics; --trace 1 runs the workload
once more with the recorder of tracer.py installed and prints the
per-layer metrics, writing the recorded spans to
.bench_out/spans-WORKLOAD-seedN.json.  Human-readable lines come first;
the last line of standard output is the JSON result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

from metrics import END_TO_END, PER_LAYER
from worker import REFERENCE_KERNEL_S
from workloads import REFERENCES, ROOT, WORKLOADS, child_env, python

WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "worker.py")
SETUP_PROBES = 6
WORKER_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def run_worker(args, timeout):
    proc = subprocess.run([python(), WORKER, *args], cwd=ROOT,
                          env=child_env(), stdout=subprocess.PIPE,
                          text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited "
                         f"{proc.returncode}")
    return json.loads(lines[-1])


def run(workload, seed, seconds, trace, references):
    if not os.path.isfile(os.path.join(ROOT, "src", "fcunits", "cli.py")):
        raise BenchError(f"no fcunits source tree under {ROOT}/src")
    probe_args = ["setup", "--workload", workload.name]
    if trace:
        probe_args.append("--with-sympy")
    probes = [run_worker(probe_args, 60) for _ in range(SETUP_PROBES)]
    main_args = ["trace" if trace else "run", "--workload", workload.name,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--references", references]
    if trace:
        main_args += ["--spans", os.path.join(
            ROOT, ".bench_out", f"spans-{workload.name}-seed{seed}.json")]
    result = run_worker(main_args, WORKER_TIMEOUT_S)

    if trace:
        values = dict(result["layers"])
        values["import.fcunits_s"] = statistics.median(
            p["import_fcunits_s"] for p in probes)
        values["import.sympy_s"] = statistics.median(
            p["import_sympy_s"] for p in probes)
        units = {name: unit for name, unit, _, _ in PER_LAYER}
    else:
        values = {name: result[name] for name, _, _, _ in END_TO_END}
        values["setup_s"] = statistics.median(
            [p["setup_s"] for p in probes] + [result["setup_s"]])
        units = {name: unit for name, unit, _, _ in END_TO_END}
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    return result, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="run one fcunits benchmark workload")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--references", default=REFERENCES,
                        help="reference digests (default: %(default)s)")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        result, metrics = run(workload, args.seed, args.seconds,
                              bool(args.trace), args.references)
    except (BenchError, subprocess.TimeoutExpired, OSError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {workload.name}: {len(workload.requests)} requests per "
          f"pass, seed {args.seed}, {attempted} checked")
    if not args.trace:
        print(f"timed: {result['passes']} passes, {result['samples']} "
              f"request samples; speed kernel {result['kernel_ms']:.4g} ms "
              f"(times below are scaled to {REFERENCE_KERNEL_S * 1000:g} ms)")
        print(f"  wall clock: {result['wall_requests_per_s']:.6g} 1/s, "
              f"p50 {result['wall_request_p50_ms']:.6g} ms, "
              f"p90 {result['wall_request_p90_ms']:.6g} ms, "
              f"worker set-up {result['wall_setup_s']:.6g} s")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"  failed_ratio = {failed / attempted:.6g} "
          f"({failed} of {attempted})")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
