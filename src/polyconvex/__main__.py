"""``python -m polyconvex``: the same CLI as the ``polyconvex`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
