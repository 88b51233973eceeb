"""``python -m boolebell ...`` runs the ``boolebell`` command line."""

import sys

from .cli import main

sys.exit(main())
