"""Set-up time of a fresh interpreter: import statjpeg and resolve tables.

    python3 setup_probe.py [--analyze CORPUS STATS] [TABLE_SPEC ...]

``--analyze`` first runs ``statjpeg analyze CORPUS --out STATS``, for
table specs that need statistics (``plm:STATS``).  Prints the seconds
from interpreter start-up to resolved tables as its last line.
"""

import sys
import time

start = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402

from statjpeg import cli  # noqa: E402

args = sys.argv[1:]
if args[:1] == ["--analyze"]:
    corpus, stats, *args = args[1:]
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(["analyze", corpus, "--out", stats]) != 0:
            sys.exit("analyze failed")
for spec in args:
    cli.resolve_table_source(spec)
print(time.perf_counter() - start)
