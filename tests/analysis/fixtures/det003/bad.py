# dest: src/repro/sched/fixture.py
"""Known-bad DET003 corpus: engine behaviour keyed off the environment,
read through the module or through names imported from it."""
import os
from os import environ, getenv

LIMIT = float(os.environ.get("REPRO_LIMIT", "1.0"))  # caught
SCALE = float(environ.get("REPRO_SCALE", "1.0"))  # caught


def depth() -> str | None:
    return os.getenv("REPRO_DEPTH")  # caught


def width() -> str | None:
    return getenv("REPRO_WIDTH")  # caught
