"""Start one traced CLI process: time the import, install the tracer, run main.

    python3 perfbench/cli_boot.py SPANS_JSON JOB_ID [logmonoid arguments...]

Behaves like `python -m logmonoid [arguments...]` (same exit code, same
output, an uncaught exception still prints its traceback) and writes the
import time and the span summary to SPANS_JSON, the raw spans beside it.
"""

import json
import os
import sys
import time

spans_path, job_id = sys.argv[1], int(sys.argv[2])
t0 = time.perf_counter()
import logmonoid.cli  # noqa: E402

import_s = time.perf_counter() - t0

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import tracer as tracing  # noqa: E402

trace = tracing.Tracer()
trace.current_job = job_id
tracing.install(trace)
try:
    code = logmonoid.cli.main(sys.argv[3:])
finally:
    trace.write(spans_path[: -len(".json")] + ".tsv")
    main_spans = trace.spans_by_job("cli.main").get(job_id, [])
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"job": job_id, "import_s": import_s, "layers": trace.summary(),
                   "main_s": sum(main_spans)}, fh)
sys.exit(code)
