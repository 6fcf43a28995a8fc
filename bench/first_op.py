"""Run one spectralpath command in a fresh interpreter.

Usage: python3 first_op.py <src directory> <cli arguments...>

`run.py` times this script from outside to measure set-up time: interpreter
start, importing spectralpath from <src directory>, and one operation.  The
command's stdout and exit code pass through unchanged.
"""

import os
import sys

src = os.path.abspath(sys.argv[1])
sys.path.insert(0, src)

from spectralpath import cli  # noqa: E402

if not os.path.abspath(cli.__file__).startswith(src + os.sep):
    print(f"spectralpath imported from {cli.__file__}, not from {src}", file=sys.stderr)
    sys.exit(99)
sys.exit(cli.main(sys.argv[2:]))
