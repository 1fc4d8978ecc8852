"""Run one cohdet CLI command with the benchmark's tracer installed.

usage: python cli_child.py TRACE_OUT CLI_ARG...

Behaves like ``python -m cohdet.cli CLI_ARG...`` (same stdout, stderr and
exit code, an uncaught exception included) and also writes the tracer's
stats plus the time taken to import ``cohdet.cli`` to TRACE_OUT as JSON.
"""

import json
import sys
import time

import tracer

stats = tracer.Tracer()
start = time.perf_counter()
import cohdet.cli  # noqa: E402  (timed import)

import_s = time.perf_counter() - start
stats.install()
try:
    code = cohdet.cli.main(sys.argv[2:])
finally:
    doc = stats.to_dict()
    doc["import_s"] = import_s
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
sys.exit(code)
