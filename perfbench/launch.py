"""Start ``pdcunplugged serve`` for the benchmark.

Usage, from the root of a checkout::

    python perfbench/launch.py serve --port 0 ...

Runs the CLI with its temporary directory given as a relative path
(under ``$TMPDIR``), so the pre-fork control sockets inside it stay
within the 107-byte limit on unix socket paths however deep the
checkout is.
"""

from __future__ import annotations

import os
import sys
import tempfile


def main(argv: list[str]) -> int:
    tempfile.tempdir = os.path.relpath(os.environ["TMPDIR"])
    from repro.cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
