"""`python -m pmsdelta`: the command line, run by cli.run, which ends this
process by os._exit once its output is flushed."""

from .cli import run

run()
