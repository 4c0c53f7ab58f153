"""The ``levelflow`` command, as ``python -m levelflow`` and as the installed script."""

import os
import sys


def run():
    # before numpy loads: OpenBLAS then starts no thread pool, so `--jobs` is the only parallelism
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    from .cli import main

    sys.exit(main())


if __name__ == "__main__":
    run()
