"""One workload in one fresh Python process.

Started by run.py (or make_references.py) with PYTHONPATH pointing at the
source tree.  Modes:

  setup   time `import fcunits` plus loading and parsing the workload's
          instance files, and print it;
  run     set up, then run timed passes;
  trace   set up, warm up with one pass, run untraced passes for half
          the time, then one pass with the recorder of tracer.py
          installed;
  record  run one pass in list order and print each request's digest.

The last line of standard output is one JSON object.  Requests form a
closed loop: each starts when the previous one has finished.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time

from workloads import REFERENCES, ROOT, WORKLOADS, child_env, python

REFERENCE_KERNEL_S = 0.004
CALIBRATE_EVERY_S = 0.25
TRACED_CLI = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "traced_cli.py")


def report_digest(text):
    """SHA-256 of a report without its `tool` block, whose version reads
    "unknown" when the package runs uninstalled from the source tree."""
    report = json.loads(text)
    report.pop("tool", None)
    return hashlib.sha256(
        json.dumps(report, sort_keys=True).encode()).hexdigest()


def oracle_agree(text):
    oracle = json.loads(text)["sections"].get("oracle")
    return None if oracle is None else oracle["agree"]


def setup(workload):
    """Seconds spent importing fcunits and parsing the instance files."""
    start = time.perf_counter()
    import fcunits
    imported = time.perf_counter()
    for req in workload.requests:
        with open(os.path.join(ROOT, req.path), encoding="utf-8") as fh:
            fcunits.instance_from_json(json.load(fh))
    return time.perf_counter() - start, imported - start


# --- requests -----------------------------------------------------------------


class Outcome:
    __slots__ = ("key", "seconds", "status", "text", "error")

    def __init__(self, key, seconds, status, text, error=None):
        self.key = key
        self.seconds = seconds
        self.status = status
        self.text = text
        self.error = error


def run_in_process(req, recorder=None):
    from fcunits import cli

    out = io.StringIO()
    err = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if recorder is None:
                status = cli.main(req.argv())
            else:
                status = recorder.run_request(req.key, cli.main, req.argv())
    except Exception as exc:  # a crash is a failed request, not a crash here
        return Outcome(req.key, time.perf_counter() - start, None, "",
                       f"{type(exc).__name__}: {exc}")
    return Outcome(req.key, time.perf_counter() - start, status,
                   out.getvalue(), err.getvalue().strip() or None)


def run_cli(req, recorder=None):
    if recorder is None:
        argv = [python(), "-m", "fcunits.cli", *req.argv()]
    else:
        argv = [python(), TRACED_CLI, req.key, *req.argv()]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=child_env(),
                          capture_output=True, text=True)
    seconds = time.perf_counter() - start
    err = proc.stderr.strip()
    if recorder is not None and proc.returncode == 0:
        lines = err.splitlines()
        recorder.merge(json.loads(lines[-1]))
        recorder.calls["cli.process"] += 1
        recorder.total["cli.process"] += seconds
        err = "\n".join(lines[:-1])
    return Outcome(req.key, seconds, proc.returncode, proc.stdout,
                   err or None)


def check(outcome, references):
    """None when the request's output is correct, otherwise the reason."""
    if outcome.status is None:
        return f"raised {outcome.error}"
    if outcome.status != 0:
        return f"exit {outcome.status}: {outcome.error}"
    try:
        digest = report_digest(outcome.text)
        agree = oracle_agree(outcome.text)
    except (ValueError, KeyError) as exc:
        return f"unreadable report: {exc}"
    if agree is False:
        return "oracle reports agree: false"
    expected = references.get(outcome.key)
    if expected is None:
        return "no reference digest recorded"
    if digest != expected["digest"]:
        return "report differs from the reference digest"
    return None


class Speed:
    """Machine speed, measured by a fixed pure-Python kernel.

    The host's speed drifts by tens of percent over minutes, far more
    than the bounds of the benchmark.  A time t measured while the kernel
    takes c seconds is reported as t * REFERENCE_KERNEL_S / c: the time it
    would take where the kernel takes REFERENCE_KERNEL_S.  The kernel runs
    between requests, at most every CALIBRATE_EVERY_S, outside the timed
    regions.
    """

    def __init__(self):
        self.samples = []
        self._at = -math.inf

    @staticmethod
    def kernel_seconds():
        """The fastest of three runs of the kernel."""
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            acc, table = 0, {}
            for i in range(12_000):
                acc = (acc * 31 + i) % 65521
                table[i & 255] = (acc, table.get(acc & 255))
            best = min(best, time.perf_counter() - start)
        return best

    def current(self):
        """The kernel time now, measured again if the last is stale."""
        if time.perf_counter() - self._at > CALIBRATE_EVERY_S:
            self.samples.append(self.kernel_seconds())
            self._at = time.perf_counter()
        return self.samples[-1]


class Runner:
    def __init__(self, workload, seed, references):
        self.workload = workload
        self.references = references
        self.rng = random.Random(seed)
        self.execute = run_cli if workload.cli else run_in_process
        self.speed = Speed()
        self.attempted = 0
        self.failures = []

    def one_pass(self, recorder=None):
        """Runs every request once in a seeded order.  Returns the wall
        time of each request and its time scaled to the reference speed,
        by the mean kernel time just before and just after it.  Outputs
        are checked after the pass, outside the timed region."""
        order = list(self.workload.requests)
        self.rng.shuffle(order)
        outcomes, kernel = [], [self.speed.current()]
        for req in order:
            outcomes.append(self.execute(req, recorder))
            kernel.append(self.speed.current())
        for outcome in outcomes:
            self.attempted += 1
            reason = check(outcome, self.references)
            if reason is not None:
                self.failures.append(f"{outcome.key}: {reason}")
        wall = [o.seconds for o in outcomes]
        scaled = [t * 2 * REFERENCE_KERNEL_S / (before + after)
                  for t, before, after in zip(wall, kernel, kernel[1:])]
        return wall, scaled

    def timed_passes(self, budget):
        """Whole passes, as many as fit in `budget` seconds of wall time
        (at least one).  Returns the wall and scaled request times."""
        wall, scaled, passes = [], [], 0
        while True:
            pass_wall, pass_scaled = self.one_pass()
            wall += pass_wall
            scaled += pass_scaled
            passes += 1
            elapsed = sum(wall)
            if elapsed + elapsed / passes > budget:
                return wall, scaled, passes


def peak_rss_mb(workload):
    who = resource.RUSAGE_CHILDREN if workload.cli else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def percentile(samples, q):
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def layer_metrics(recorder):
    from tracer import COUNTED, SYMPY_FACTOR_LIST, TIMED

    out = {}
    for _, _, name in TIMED + (("", "", "request"),):
        out[f"{name}.calls"] = recorder.calls[name]
        out[f"{name}.total_s"] = recorder.total[name]
        out[f"{name}.self_s"] = recorder.self_time[name]
    for _, _, name in COUNTED:
        out[f"{name}.calls"] = recorder.calls[name]
    out[f"{SYMPY_FACTOR_LIST}.calls"] = recorder.calls[SYMPY_FACTOR_LIST]
    out["linalg.rref.cells"] = recorder.cells
    out["caps.hit.count"] = recorder.cap_hits
    out["cli.process_s"] = recorder.total["cli.process"]
    return out


def timed_setup(workload, with_sympy=False):
    """Set-up times, wall and scaled to the reference speed."""
    setup_s, import_s = setup(workload)
    wall = {"setup_s": setup_s, "import_fcunits_s": import_s}
    if with_sympy:
        start = time.perf_counter()
        import sympy  # noqa: F401
        wall["import_sympy_s"] = time.perf_counter() - start
    factor = REFERENCE_KERNEL_S / Speed.kernel_seconds()
    out = {name: seconds * factor for name, seconds in wall.items()}
    out["wall_setup_s"] = setup_s
    return out


def measure(workload, seed, seconds, references, traced, spans_path):
    result = timed_setup(workload)
    runner = Runner(workload, seed, references)
    if not traced:
        wall, scaled, passes = runner.timed_passes(seconds)
        result.update(
            requests_per_s=len(scaled) / sum(scaled),
            request_p50_ms=statistics.median(scaled) * 1000,
            request_p90_ms=percentile(scaled, 90) * 1000,
            wall_requests_per_s=len(wall) / sum(wall),
            wall_request_p50_ms=statistics.median(wall) * 1000,
            wall_request_p90_ms=percentile(wall, 90) * 1000,
            kernel_ms=statistics.median(runner.speed.samples) * 1000,
            samples=len(wall), passes=passes,
            peak_rss_mb=peak_rss_mb(workload))
    else:
        from tracer import Recorder

        runner.one_pass()  # warm-up, so both rates below see warm caches
        _, untraced, _ = runner.timed_passes(seconds / 2)
        recorder = Recorder()
        if not workload.cli:  # CLI children install their own recorder
            recorder.install()
        try:
            _, traced = runner.one_pass(recorder)
        finally:
            recorder.restore()
        untraced_rate = len(untraced) / sum(untraced)
        traced_rate = len(traced) / sum(traced)
        layers = layer_metrics(recorder)
        layers.update({
            "trace.untraced_requests_per_s": untraced_rate,
            "trace.traced_requests_per_s": traced_rate,
            "trace.overhead_requests_per_s": traced_rate - untraced_rate})
        result["layers"] = layers
        if spans_path:
            os.makedirs(os.path.dirname(spans_path), exist_ok=True)
            with open(spans_path, "w", encoding="utf-8") as fh:
                json.dump(recorder.to_json(), fh)
    result.update(attempted=runner.attempted, failed=len(runner.failures),
                  failures=runner.failures[:20])
    return result


def record(workload):
    """Digest and oracle agreement of every request, in list order."""
    execute = run_cli if workload.cli else run_in_process
    out = {}
    for req in workload.requests:
        outcome = execute(req)
        if outcome.status != 0:
            raise SystemExit(f"{req.key}: exit {outcome.status}: "
                             f"{outcome.error}")
        out[req.key] = {"digest": report_digest(outcome.text),
                        "oracle_agree": oracle_agree(outcome.text)}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("mode", choices=("setup", "run", "trace", "record"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--references", default=REFERENCES)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--with-sympy", action="store_true",
                        help="setup mode: also time `import sympy`")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.mode == "setup":
        out = timed_setup(workload, args.with_sympy)
    elif args.mode == "record":
        out = record(workload)
    else:
        with open(args.references, encoding="utf-8") as fh:
            references = json.load(fh)
        out = measure(workload, args.seed, args.seconds, references,
                      args.mode == "trace", args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
