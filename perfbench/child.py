"""A fresh interpreter that imports bhvphylo.cli once and runs commands in forks.

    python3 perfbench/child.py              serve commands (see below)
    python3 perfbench/child.py --probe      import, print the ready time, exit
    python3 perfbench/child.py --reference  the same for numpy and scipy.special

Each request is one JSON line on standard input:
{"argv": [...], "stdout": PATH, "result": PATH, "trace": 0|1}.  The server
forks; the fork runs `bhvphylo.cli.main(argv)` with standard output sent
to PATH, writes its timings to the result file and exits with the
command's code.  The server answers each request with one line once the
fork has ended.

A fork starts from the state right after import, with every cache the
program fills during a command still empty, as in a new `bhvphylo`
process; the import itself, which every real invocation pays, is timed
separately by --probe, and --reference times a fixed import of
third-party modules against which the host's speed is gauged.  All times use CLOCK_MONOTONIC, which every
process on the host shares, so the parent can subtract its own readings.
"""

import json
import os
import resource
import signal
import sys
import time
import traceback

# exit code that tells the parent the program itself could not be loaded
EXIT_NO_PROGRAM = 90
# seconds a single command may take
COMMAND_TIMEOUT = 100
# environment variables that size BLAS thread pools
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _load():
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    try:
        import bhvphylo.cli as cli
    except ImportError as exc:
        print(f"cannot import bhvphylo: {exc}", file=sys.stderr)
        sys.exit(EXIT_NO_PROGRAM)
    return cli


def _run_in_fork(cli, request) -> None:
    """Body of the forked process; never returns."""
    code = 1
    # a command that hangs is killed and counted as failed, so that the
    # run still ends in bounded time
    signal.alarm(COMMAND_TIMEOUT)
    try:
        tracer = None
        if request["trace"]:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
        with open(request["stdout"], "w") as out:
            sys.stdout = out
            start = time.monotonic()
            code = cli.main(request["argv"])
            out.flush()
            end = time.monotonic()
        result = {
            "start": start,
            "end": end,
            "code": code,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }
        if tracer is not None:
            result["missing"] = tracer.missing
            result["spans"] = tracer.spans
        with open(request["result"], "w") as handle:
            json.dump(result, handle)
    except SystemExit as exc:  # argparse rejects its arguments this way
        code = exc.code if isinstance(exc.code, int) else 1
    except BaseException:  # report, then leave the fork in any case
        traceback.print_exc()
        code = 1
    finally:
        sys.stderr.flush()
        os._exit(code if isinstance(code, int) and 0 <= code < 256 else 1)


def serve(cli) -> None:
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    for line in sys.stdin:
        request = json.loads(line)
        pid = os.fork()
        if pid == 0:
            _run_in_fork(cli, request)
        _, status = os.waitpid(pid, 0)
        print(json.dumps({"exit": os.waitstatus_to_exitcode(status)}), flush=True)


def main() -> None:
    if sys.argv[1:] == ["--probe"]:
        _load()
        print(json.dumps({"ready": time.monotonic()}))
        return
    if sys.argv[1:] == ["--reference"]:
        import numpy  # noqa: F401
        import scipy.special  # noqa: F401

        print(json.dumps({"ready": time.monotonic()}))
        return
    # the program is single-threaded; a BLAS thread pool would only make
    # the server's forks unsafe (the parent sets this for the probes too)
    for name in BLAS_THREADS:
        os.environ.setdefault(name, "1")
    serve(_load())


if __name__ == "__main__":
    main()
