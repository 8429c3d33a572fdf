"""`python -m minkdecomp`: the command line (`cli.main`)."""

import sys

from .cli import main

sys.exit(main())
