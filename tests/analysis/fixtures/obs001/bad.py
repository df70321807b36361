# dest: src/repro/sim/fixture.py
"""Known-bad OBS001 corpus: registry writes (guarded or not) and
attachments outside the body of an enabled guard."""


def record(tele, n: int) -> None:
    tele.inc("engine.events", n)  # caught


def guarded_is_still_per_record(tele, n: int) -> None:
    if tele.enabled:
        tele.inc("engine.events", n)  # caught


def under_the_disabled_branch(telemetry, tally, owner) -> None:
    if not telemetry.enabled:
        telemetry.attach(tally, owner)  # caught


def in_the_else_branch(telemetry, tally, owner) -> None:
    if telemetry.enabled:
        pass
    else:
        telemetry.attach(tally, owner)  # caught


class Engine:
    def __init__(self, telemetry) -> None:
        self.telemetry = telemetry

    def step(self, depth: int) -> None:
        self.telemetry.observe("engine.queue_depth", depth)  # caught
