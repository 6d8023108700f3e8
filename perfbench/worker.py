"""One benchmark round in a fresh interpreter, with no threads.

Protocol on the standard streams: import ``quiddity.cli`` and print
``ready`` (the parent times start-up up to that line), then read one JSON
request ``{"jobs": [argv, ...], "trace": bool}`` from stdin, call
``quiddity.cli.main(argv)`` once per job with stdout and stderr captured,
and print one JSON object with each job's exit code, output and time, the
round's wall time and the process's peak resident memory.
"""

import sys

import quiddity.cli

sys.stdout.write("ready\n")
sys.stdout.flush()

import contextlib  # noqa: E402  (after the timed set-up on purpose)
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402


def run_job(argv):
    out, err = io.StringIO(), io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = quiddity.cli.main(argv)
    except SystemExit as exc:  # exit status as the interpreter would report it
        code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a crash fails this job; the round goes on
        code, error = None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    return {"code": code, "out": out.getvalue(), "err": err.getvalue()[-500:],
            "error": error, "s": elapsed}


def main():
    request = json.loads(sys.stdin.read())
    tracer = None
    if request["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    t0 = time.perf_counter()
    results = [run_job(argv) for argv in request["jobs"]]
    wall = time.perf_counter() - t0
    reply = {"jobs": results, "wall_s": wall,
             "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        reply["trace"] = tracer.report()
    sys.stdout.write(json.dumps(reply))
    sys.stdout.flush()


main()
