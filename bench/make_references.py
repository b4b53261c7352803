"""Record the reference digest of every benchmark request.

    python3 bench/make_references.py

Runs each workload's requests once, exactly as the benchmark runs them
(worker.py with PYTHONPATH=src, FC_UNITS_SEED unset; in-process through
fcunits.cli.main, or as `python -m fcunits.cli` for cli-cold), and writes
bench/references.json: per request, the SHA-256 of the report without
its `tool` block and, for --oracle requests, the oracle's agreement.
Refuses to write references in which the oracle disagrees.
"""

import json
import sys

from run import run_worker
from workloads import REFERENCES, WORKLOADS


def main():
    references = {}
    for name in WORKLOADS:
        recorded = run_worker(["record", "--workload", name], 900)
        for key, ref in recorded.items():
            if ref["oracle_agree"] is False:
                raise SystemExit(f"{key}: the oracle disagrees")
            if references.setdefault(key, ref) != ref:
                raise SystemExit(f"{key}: two workloads recorded different "
                                 f"reports")
    with open(REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(references, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(references)} references to {REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
