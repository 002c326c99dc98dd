"""Run one torquo CLI command with span tracing (the traced cli workload).

Usage: python cli_child.py SUMMARY.json COMMAND [ARGS...]

Behaves like `python -m torquo COMMAND ARGS...` and additionally writes
the per-layer summary to SUMMARY.json and the raw spans beside it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from spans import Tracer


def main() -> int:
    summary_path, argv = Path(sys.argv[1]), sys.argv[2:]
    import torquo.cli

    tracer = Tracer()
    tracer.install()
    try:
        code = torquo.cli.run(argv)
    finally:
        tracer.uninstall()
    summary_path.write_text(json.dumps(tracer.summary()))
    tracer.dump(summary_path.with_suffix(".spans"))
    return code


if __name__ == "__main__":
    sys.exit(main())
