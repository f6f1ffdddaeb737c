"""The swapdisc process entry: `python -m swapdisc` and the `swapdisc`
console script both run `run`."""

import gc
import sys

from .cli import main


def run() -> int:
    """cli.main, then gc.freeze(): the process is about to end, so its live
    objects are moved out of the collector's reach and interpreter shutdown
    does not walk them all once more.  Only here, never in cli.main, so a
    caller of main in its own process keeps a normal collector."""
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
