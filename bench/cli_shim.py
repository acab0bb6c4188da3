"""Run the gradedorders CLI in this interpreter with spans or call counts
recorded, for the traced run of the cli workload.

    python3 bench/cli_shim.py spans|count RECORD_FILE SPAWN_TIME CLI_ARGS...

Standard output and the exit code are the CLI's own; the record goes to
RECORD_FILE as JSON.  PYTHONPATH must reach the package source.
SPAWN_TIME is the parent's ``time.perf_counter()`` just before it started
this process (the clock is system-wide).  In spans mode, interpreter
start-up (``cli.startup``, from SPAWN_TIME until this script runs) and the
package import (``cli.import``) get spans of their own, and the record
holds the time at which this script hands over to interpreter shut-down,
so that the parent can span that too (``cli.exit``).
"""

import json
import sys
import time

from tracer import CallCounter, Tracer


def main() -> int:
    started = time.perf_counter()
    mode, record, spawned, argv = sys.argv[1], sys.argv[2], float(sys.argv[3]), sys.argv[4:]
    import gradedorders.cli as cli

    imported = time.perf_counter()
    recorder = Tracer() if mode == "spans" else CallCounter()
    if mode == "spans":
        recorder.add_span("cli.startup", spawned, started, None, None)
        recorder.add_span("cli.import", started, imported, None, None)
    recorder.install()
    try:
        code = cli.main(argv)
    finally:
        recorder.uninstall()
        sys.stdout.flush()
        if mode == "spans":
            data = {"spans": recorder.spans, "sums": recorder.sums, "exiting": time.perf_counter()}
        else:
            data = {"counts": recorder.counts}
        with open(record, "w") as fh:
            json.dump(data, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
