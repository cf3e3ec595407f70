"""python -m bridgeforge: the command-line front end, as the bridgeforge script."""

import sys

from .cli import main

sys.exit(main())
