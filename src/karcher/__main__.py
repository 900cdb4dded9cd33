"""``python -m karcher``: the same command line as the ``karcher`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
