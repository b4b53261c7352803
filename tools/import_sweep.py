"""Show where the time of `import fcunits.cli` goes in a fresh process.

Run from the repository root:

    python3 tools/import_sweep.py

It runs `python -S -X importtime -c "import fcunits.cli"` in a fresh
subprocess with PYTHONPATH=src and PYTHONDONTWRITEBYTECODE=1, the
environment of a benchmark checkout, and prints every module the import
loads with its self and cumulative microseconds, largest self time
first, then the total of the self times.  PYTHONDONTWRITEBYTECODE only
stops new bytecode from being written: delete src/fcunits/__pycache__
first to time the import as a fresh checkout pays it, compilation
included.  One run varies by a few milliseconds; the tool measures and
gates nothing.
"""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def import_times():
    """(module, self us, cumulative us) for each module, in load order."""
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    run = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", "-c", "import fcunits.cli"],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True,
        timeout=60)
    rows = []
    for line in run.stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        own, cumulative, name = line[len("import time:"):].split("|")
        rows.append((name.strip(), int(own), int(cumulative)))
    return rows


def main():
    rows = import_times()
    print(f"{'self_us':>9} {'cumul_us':>9}  module")
    for name, own, cumulative in sorted(rows, key=lambda r: (-r[1], r[0])):
        print(f"{own:9d} {cumulative:9d}  {name}")
    print(f"{sum(r[1] for r in rows):9d} {'':9}  total ({len(rows)} modules)")


if __name__ == "__main__":
    main()
