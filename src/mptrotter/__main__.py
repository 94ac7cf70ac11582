"""`python -m mptrotter`: the same command line as the `mptrotter` script."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
