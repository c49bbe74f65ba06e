"""Run one erasurechain CLI command in this fresh interpreter and report it.

Usage: python3 child.py PASS_ID TRACE -- CLI_ARGS...

Times a fixed reference loop, the cold ``import erasurechain.cli``
(set-up) and the ``cli.main`` call separately, captures the command's
stdout and stderr, and prints one JSON object to the real stdout: return
code, the three times, the process's max RSS and, when TRACE is 1, the
spans of every layer (see tracer.py).
"""

import contextlib
import io
import json
import resource
import sys
import traceback
from math import gcd
from time import perf_counter


def reference() -> float:
    """Seconds this interpreter takes for a fixed pure-Python loop of big-int
    arithmetic and tuple-keyed dict stores, the kinds of work the CLI does.
    It runs before erasurechain is imported, so the program cannot change
    it; it measures how fast the machine is at this moment."""
    t0 = perf_counter()
    table, num, den = {}, 0, 1
    for i in range(1, 1000):
        b = i * i + 7
        num, den = num * b + i * den, den * b
        g = gcd(num, den)
        num, den = num // g, den // g
        table[(i % 97, i % 89)] = num % 1000003
    return perf_counter() - t0


def main() -> None:
    pass_id, trace = int(sys.argv[1]), sys.argv[2] == "1"
    argv = sys.argv[sys.argv.index("--") + 1 :]

    ref_s = reference()
    t0 = perf_counter()
    import erasurechain.cli as cli

    import_s = perf_counter() - t0

    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer(pass_id)
        tracing.install(tracer)

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t1 = perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its input this way
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            rc = 1
        main_s = perf_counter() - t1

    report = {
        "rc": rc,
        "import_s": import_s,
        "main_s": main_s,
        "ref_s": ref_s,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "trace": tracer.dump() if tracer is not None else None,
    }
    sys.stdout.write(json.dumps(report))


if __name__ == "__main__":
    main()
