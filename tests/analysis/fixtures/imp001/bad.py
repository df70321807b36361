# dest: src/repro/obs/fixture.py
"""Known-bad IMP001 corpus: obs reaching into other layers."""
import repro.spec  # caught
from ..sim.engine import ENGINE_VERSION  # caught


def version() -> int:
    return ENGINE_VERSION if repro.spec else 0
