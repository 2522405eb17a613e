"""Run the command-line driver: ``python -m ncinvert ...``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
