#!/usr/bin/env python3
"""The paper's experiments from one command (see ``repro.bench.paper``):
``run [ids...] [--scale quick|medium|paper] [--out rec.json]`` and
``compare A.json B.json``."""

import os
import sys

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.bench.paper import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
