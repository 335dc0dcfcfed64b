"""Run one ``sfdnn`` command in this process, as the console script would.

    python3 perfbench/cli_child.py TRACE_FILE SUBCOMMAND [OPTIONS...]

TRACE_FILE is "-" for a plain call.  Otherwise the call is traced and the
file receives its spans, its counters and the time the package import took;
the exit code is the command's own.
"""

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def main() -> int:
    trace_file, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    from sfdnn import cli

    imported = time.perf_counter()
    if trace_file == "-":
        return cli.main(argv)

    from tracing import Tracer

    tracer = Tracer()
    tracer.spans.append(["cli.import", start, imported, None, None])
    tracer.install()
    code = cli.main(argv)
    tracer.uninstall()
    out_dir = argv[argv.index("--out-dir") + 1]
    if os.path.isdir(out_dir):
        tracer.count("cli.bytes_written", sum(e.stat().st_size for e in os.scandir(out_dir)))
    with open(trace_file, "w", encoding="utf-8") as fh:
        json.dump({"spans": [s[:4] for s in tracer.spans], "counts": tracer.counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
