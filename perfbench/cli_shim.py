"""Traced `rrlang` for the cli workload's traced run.

Usage: python perfbench/cli_shim.py STATS.json ARGS...

Times `import rrlang.cli`, installs the tracer, calls cli.main(ARGS)
and writes the import time, the main() time and the span totals to
STATS.json. Exits with main()'s code, like `python -m rrlang.cli`.
"""

from __future__ import annotations

import json
import sys
import time


def main() -> int:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter_ns()
    from rrlang import cli

    import_ns = time.perf_counter_ns() - start
    from tracer import Tracer, install

    tracer = Tracer()
    install(tracer, with_cli=True)
    start = time.perf_counter_ns()
    code = cli.main(argv)
    main_ns = time.perf_counter_ns() - start
    with open(stats_path, "w", encoding="utf-8") as handle:
        json.dump({"import_ns": import_ns, "main_ns": main_ns, "state": tracer.state()}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
