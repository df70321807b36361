# dest: src/repro/sim/fixture.py
"""Known-bad OBS001 corpus: per-record registry calls (guarded or not)
and a batch hand-over outside the enabled guard."""


def record(tele, n: int) -> None:
    tele.inc("engine.events", n)


def guarded_is_still_per_record(tele, n: int) -> None:
    if tele.enabled:
        tele.inc("engine.events", n)


class Engine:
    def __init__(self, telemetry) -> None:
        self.telemetry = telemetry
        self.passes = 0

    def step(self, depth: int) -> None:
        self.telemetry.observe("engine.queue_depth", depth)

    def fold(self) -> None:
        self.telemetry.add_batch([("engine.sched.passes", self.passes)], {})
