"""`python -m banded`: the `banded` command line (see `banded.cli`)."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
