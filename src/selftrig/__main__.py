"""``python -m selftrig``: the command-line frontend of :mod:`selftrig.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
