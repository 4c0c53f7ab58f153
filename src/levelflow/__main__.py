"""The ``levelflow`` command, as ``python -m levelflow`` and as the installed script."""

import os
import sys


def run():
    # before numpy loads: OpenBLAS then starts no thread pool, so `--jobs` is the only parallelism
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    # numpy.random imports secrets -> hmac -> _hashlib, which maps OpenSSL's libcrypto (3.3 MB
    # resident) for hashes the program never computes; with _hashlib blocked, as in a CPython
    # built without OpenSSL, hashlib and hmac use the built-in _md5/_sha*/_blake2/_sha3 modules
    sys.modules.setdefault("_hashlib", None)
    from .cli import main

    sys.exit(main())


if __name__ == "__main__":
    run()
