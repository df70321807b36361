# dest: src/repro/sim/fixture.py
"""Known-bad DET001 corpus: ambient wall-clock and entropy sources, under
their module names and under aliased or from-imported ones."""
import random
import time as clock
from datetime import datetime
from time import time

import numpy.random as npr


def jitter() -> float:
    random.seed(0)  # caught
    return time() + random.random() + datetime.now().timestamp()  # caught


def aliased() -> float:
    return clock.time_ns() + npr.rand()  # caught
