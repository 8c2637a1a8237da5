"""Run one ``repro`` command line in this fresh process, traced.

    python3 perfbench/launch.py --trace-out FILE <repro arguments...>

The ``cli-cold`` workload's traced run starts each command through
this launcher instead of ``python -m repro``: it times the import of
the CLI, installs the layer tracer in the child, then calls
``repro.campaign.cli.main`` under an ``obs.capture()`` collector, so
the child's cold state is preserved and its layer totals and obs
counters are written to FILE as JSON.
"""

from __future__ import annotations

import json
import sys
import time


def main(argv: list[str]) -> int:
    if argv[:1] != ["--trace-out"] or len(argv) < 2:
        sys.stderr.write(__doc__)
        return 2
    trace_out, command = argv[1], argv[2:]
    start = time.perf_counter()
    import repro.campaign.cli as cli

    import_s = time.perf_counter() - start
    from tracer import Tracer, harvest

    tracer = Tracer().install()
    stats = tracer.stats["cli.import"]
    stats.self_s = stats.total_s = import_s
    stats.calls = 1
    from repro import obs

    with obs.capture() as collector:
        code = tracer.wrap("cli.main", cli.main)(command)
    tracer.uninstall()
    payload = tracer.payload()
    payload["counters"].update(harvest(collector))
    with open(trace_out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
