"""`python -m fcunits.cli` with the recorder of tracer.py installed.

Usage: traced_cli.py REQUEST_KEY CLI_ARGS...  The report goes to standard
output as usual; the recorder's aggregates and spans follow as one JSON
line on standard error, after anything the CLI itself wrote there.
"""

import json
import sys

from tracer import Recorder


def main():
    key, argv = sys.argv[1], sys.argv[2:]
    recorder = Recorder()
    recorder.install()
    from fcunits import cli

    try:
        status = recorder.run_request(key, cli.main, argv)
    finally:
        recorder.restore()
    sys.stdout.flush()
    print(json.dumps(recorder.to_json()), file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
