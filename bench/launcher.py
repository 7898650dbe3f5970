"""Traced stand-in for ``python -m realforms.cli``.

Usage: ``python3 bench/launcher.py <trace.json> <cli arguments...>``

Imports the CLI (timing the import), installs the tracing wrappers,
calls ``realforms.cli.main`` with the given arguments and writes the
spans and counters to ``<trace.json>`` before exiting with the CLI's
own exit code.  Standard output is the CLI's, untouched.
"""

import json
import os
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    out_path, args = sys.argv[1], sys.argv[2:]
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from bench import spans

    start = perf_counter()
    import realforms.cli as cli
    import_s = perf_counter() - start
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    code = 0
    try:
        tracer.call("cli.command", cli.main, args=args, prog_name="realforms")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(
            exc.code is not None)
    finally:
        uninstall()
        record = tracer.dump()
        record["import_s"] = import_s
        with open(out_path, "w") as fh:
            json.dump(record, fh)
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
