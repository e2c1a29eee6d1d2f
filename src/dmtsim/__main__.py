"""`python -m dmtsim scenario.ini [options]`: the scenario runner CLI."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
