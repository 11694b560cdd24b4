"""`python -m pmsdelta`: run the command line and end the process once its
output is flushed.

The interpreter's teardown, freeing every module and object, costs a cold
command several milliseconds and writes nothing, so when the interpreter was
started as `python -m pmsdelta`, with no interpreter option before -m, the
process ends by os._exit as soon as main() has returned and stdout and
stderr are flushed; a table written with --out is closed before main()
returns.  A program that runs this module in its own process, as a profiler
or a tracer does through runpy, gets SystemExit and keeps its own exit.  An exception, and argparse's SystemExit,
take the normal exit path.  A reader that closes stdout early gets exit 1
and no traceback, as in the recipe of the signal module's documentation.
"""

import os
import sys

from .cli import main

try:
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
except BrokenPipeError:
    # Point stdout at devnull, so that the flush at exit does not fail again.
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(1)
if sys.orig_argv[1:3] == ["-m", "pmsdelta"]:
    os._exit(code)
sys.exit(code)
