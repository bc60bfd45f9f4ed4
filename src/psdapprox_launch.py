"""The ``psdapprox`` console script.

It sets ``OPENBLAS_NUM_THREADS`` to 1, unless the environment already sets
it, before numpy loads: the enumerated moments are BLAS dot products, whose
last bits depend on the number of threads that sum them, so a threaded BLAS
would make the printed digits depend on the core count.  One thread is also
faster for these single vector products.  It lives outside the package
because importing ``psdapprox`` imports numpy.
"""

import os
import sys


def main() -> int:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from psdapprox.cli import main as cli_main

    return cli_main()


if __name__ == "__main__":
    sys.exit(main())
