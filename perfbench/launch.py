"""Run one padicelim CLI request under the outside-in tracer.

Usage, from the repository root with PYTHONPATH=src:

    python3 perfbench/launch.py SPANS_JSON ITEM_ID <padicelim arguments...>

Installs ``tracer.Tracer`` in this process, calls
``padicelim.cli.main(arguments)``, writes the spans and their summary to
SPANS_JSON and exits with main's code.
"""

from __future__ import annotations

import sys

import padicelim.cli
from tracer import Tracer


def main() -> int:
    path, item, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = Tracer().install()
    tracer.item = item
    try:
        return padicelim.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.write(path)


if __name__ == "__main__":
    sys.exit(main())
