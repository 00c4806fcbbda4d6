"""Cold set-up probe, run in a fresh interpreter by run.py.

    python3 bench/setup_probe.py SRC_DIR CONFIG...

Imports the opbandit CLI module from SRC_DIR, then parses and plans each
config file (threshold resolution and trace parsing included).  Prints the
seconds this took, less the speed sampler's own time, and the sampler's
speed factor.  Interpreter start-up itself is not counted.
"""

import sys

from speed import SpeedSampler

with SpeedSampler() as sampler:
    t0 = sampler.clock()
    sys.path.insert(0, sys.argv[1])
    import opbandit.cli  # noqa: F401  (the import is what is being timed)
    from opbandit.config import build_plan, load_config

    for path in sys.argv[2:]:
        build_plan(load_config(path))
    elapsed = sampler.clock() - t0
print(repr(elapsed), repr(sampler.speed))
