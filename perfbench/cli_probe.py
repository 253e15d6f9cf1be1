"""Run ``python -m repro ARGS`` under the benchmark's layer tracer.

Usage: ``python perfbench/cli_probe.py OUT.json ARGS...``.  The ``cli``
workload's traced pass starts each check through this script instead of
``python -m repro``: it installs the layer wrappers after the imports,
runs ``repro.__main__.main(ARGS)`` inside one ``engine`` span, removes the
wrappers and writes the spans and counters to ``OUT.json``.  The check's
own output and exit code pass through unchanged.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    sys.path[:1] = [ROOT]
    import repro.__main__ as cli
    from perfbench.layers import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_trace()
        code = tracer.span("engine", cli.main, argv)
    finally:
        tracer.remove()
    sys.stdout.flush()
    with open(out, "w", encoding="utf-8") as handle:
        json.dump({"spans": [list(span) for span in tracer.spans],
                   "counters": dict(tracer.counters)}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
