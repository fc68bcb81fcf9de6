"""Traced launcher: run a ``repro`` CLI command with span recorders.

Usage (from the root of a checkout)::

    python3 perfbench/launch.py --spans spans.json -- serve <corpus> --port 8123
    python3 perfbench/launch.py --spans spans.json -- index build <corpus>

The launcher puts ``src/`` on the import path, wraps the entry points
listed in :data:`spans.TARGETS`, calls ``repro.cli.main`` with the
arguments after ``--`` and, once it returns (``serve`` returns after
SIGTERM), writes every recorded span to ``--spans``.  The program's
own code is not modified.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="output JSON file")
    parser.add_argument("command", nargs=argparse.REMAINDER, help="-- repro CLI arguments")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(HERE.parent / "src"))
    import repro.cli
    import spans

    recorder = spans.Recorder()
    spans.install(recorder)
    try:
        return repro.cli.main(command)
    finally:
        recorder.dump(args.spans)


if __name__ == "__main__":
    raise SystemExit(main())
