"""Find the certificates that no test can make fire.

Run from the repository root:

    python3 tools/mutation_sweep.py [extra pytest arguments]

On a copy of the repository in a temporary directory, every `certify(`
call site in src/fcunits/ in turn is made a no-op (the call is replaced
by one to a function that ignores its arguments), and the tier-1 suite
runs on the copy, stopping at its first failure.  A site whose no-op
passes the whole suite survives: no test depends on that certificate.
A no-op certificate can turn a loop infinite, so a suite that runs past
SITE_TIMEOUT seconds is stopped and the site counts as killed.  Each site
prints as killed, killed (timeout) or SURVIVED; the survivors are listed
last.
"""

import os
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
CALL = re.compile(r"\bcertify\(")
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis",
                                ".pytest_cache", "bench", "BENCH_*")
SITE_TIMEOUT = 300


def sites(root):
    for path in sorted((root / "src" / "fcunits").glob("*.py")):
        for n, line in enumerate(path.read_text().splitlines(), 1):
            if CALL.search(line) and not line.lstrip().startswith("def "):
                yield path.relative_to(root), n


def main(args):
    survivors = []
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    with tempfile.TemporaryDirectory() as tmp:
        copy = pathlib.Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=IGNORE)
        for rel, n in list(sites(copy)):
            target = copy / rel
            original = target.read_text()
            lines = original.splitlines(keepends=True)
            lines[n - 1] = CALL.sub("(lambda *a, **k: None)(", lines[n - 1],
                                    count=1)
            target.write_text("".join(lines))
            try:
                run = subprocess.run(
                    [sys.executable, "-m", "pytest", "-q", "-x",
                     "-p", "no:cacheprovider", *args],
                    cwd=copy, env=env, capture_output=True,
                    timeout=SITE_TIMEOUT)
                outcome = "killed" if run.returncode else "SURVIVED"
            except subprocess.TimeoutExpired:
                outcome = "killed (timeout)"
            target.write_text(original)
            print(f"{rel}:{n} {outcome}", flush=True)
            if outcome == "SURVIVED":
                survivors.append(f"{rel}:{n}")
    print("survivors:", " ".join(survivors) or "none")


if __name__ == "__main__":
    main(sys.argv[1:])
