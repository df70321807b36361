"""The design-diet ratchet: ``src/**/*.py`` may not grow past ``CEILING``.

ROADMAP item 5 wants every PR net <= 0 in ``src/``.  A PR that shrinks
``src/`` lowers the constant to its new count; one with a stated budget
(ROADMAP items 1 and 3) raises it by that budget, in its own diff, where
review sees it.
"""

import sys
from pathlib import Path

# -15: the machine keeps its running jobs' release table, so the schedulers' copy,
# ``Scheduler.on_start`` and the ``RunningJob`` view went
CEILING = 14266

SRC = Path(__file__).resolve().parents[1] / "src"

if __name__ == "__main__":
    lines = sum(
        len(path.read_bytes().splitlines()) for path in sorted(SRC.rglob("*.py"))
    )
    print(f"src/: {lines} lines (ceiling {CEILING})")
    sys.exit(0 if lines <= CEILING else 1)
