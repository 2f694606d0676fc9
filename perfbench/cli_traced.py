"""Run the rtfdoa CLI with the timing hooks installed.

``cli_traced.py SPANS_JSON <rtfdoa arguments...>`` installs the hooks of
``tracing.py``, runs ``rtfdoa.cli.main`` and writes the recorded spans to
SPANS_JSON. ``PERFBENCH_SPAWN_T`` (seconds since the epoch, set by the
parent just before it started this process) gives the start-up time.
"""
import json
import os
import sys
import time

from tracing import Tracer

if __name__ == "__main__":
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    import rtfdoa.cli

    tracer.startup_s.append(time.time() - float(os.environ["PERFBENCH_SPAWN_T"]))
    try:
        code = rtfdoa.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(spans_path, "w") as fh:
            json.dump(tracer.dump(), fh)
    sys.exit(code)
