"""``python -m nmqubit``: the command line of ``nmqubit.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
