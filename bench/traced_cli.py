"""Run one erlangreg CLI command with the benchmark's span wrappers installed.

    python bench/traced_cli.py SNAPSHOT.json -- <erlangreg arguments>

Writes the tracer snapshot to SNAPSHOT.json and exits with the command's
exit code.
"""

import json
import sys

from spans import Tracer


def main(argv):
    snapshot_path, argv = argv[0], argv[2:]
    import erlangreg.cli
    tracer = Tracer()
    tracer.install()
    try:
        code = erlangreg.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(snapshot_path, "w") as fh:
            json.dump(tracer.snapshot(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
