"""`python -m rmas ARGS` runs the `rmas` command line."""

import sys

from .cli import main

sys.exit(main())
