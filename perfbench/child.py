"""One benchmark pass: a fresh interpreter runs qbgg CLI requests in order.

Reads a job from standard input as JSON::

    {"src": "<dir holding the qbgg package>", "requests": [[argv...], ...],
     "trace": false}

and calls ``qbgg.cli.main`` in-process for each request, capturing each JSON
report.  It writes one JSON object to standard output: the reports and exit
codes, the CLOCK_MONOTONIC time at which the last report was written, the
peak resident memory, and with ``"trace": true`` the per-layer summary from
`layertrace.LayerTracer`.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time


def main() -> int:
    job = json.load(sys.stdin)
    src = os.path.realpath(job["src"])
    sys.path.insert(0, src)
    import qbgg.cli

    if not os.path.realpath(qbgg.cli.__file__).startswith(src + os.sep):
        print("qbgg was imported from %s, not from %s"
              % (qbgg.cli.__file__, src), file=sys.stderr)
        return 2

    tracer = None
    if job["trace"]:
        from layertrace import LayerTracer
        tracer = LayerTracer()

    results = []
    with tracer if tracer is not None else contextlib.nullcontext():
        for argv in job["requests"]:
            buf = io.StringIO()
            try:
                with contextlib.redirect_stdout(buf):
                    rc = qbgg.cli.main(argv)
            except Exception as exc:  # a crash is a failed request
                print("request %r raised %s: %s"
                      % (argv, type(exc).__name__, exc), file=sys.stderr)
                rc = 1
            results.append({"argv": argv, "rc": rc, "report": buf.getvalue()})
        end = time.clock_gettime(time.CLOCK_MONOTONIC)

    out = {"end": end, "results": results,
           "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        out["layers"] = tracer.summary()
    sys.stdout.write(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
