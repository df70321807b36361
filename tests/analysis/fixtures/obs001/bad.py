# dest: src/repro/sim/fixture.py
"""Known-bad OBS001 corpus: per-record registry calls (guarded or not)
and batch hand-overs outside the body of an enabled guard."""


def record(tele, n: int) -> None:
    tele.inc("engine.events", n)  # caught


def guarded_is_still_per_record(tele, n: int) -> None:
    if tele.enabled:
        tele.inc("engine.events", n)  # caught


def under_the_disabled_branch(telemetry, counters: dict) -> None:
    if not telemetry.enabled:
        telemetry.add_batch(counters.items(), {})  # caught


def in_the_else_branch(telemetry, counters: dict) -> None:
    if telemetry.enabled:
        pass
    else:
        telemetry.add_batch(counters.items(), {})  # caught


class Engine:
    def __init__(self, telemetry) -> None:
        self.telemetry = telemetry
        self.passes = 0

    def step(self, depth: int) -> None:
        self.telemetry.observe("engine.queue_depth", depth)  # caught

    def fold(self) -> None:
        self.telemetry.add_batch([("engine.sched.passes", self.passes)], {})  # caught
