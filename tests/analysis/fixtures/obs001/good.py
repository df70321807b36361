# dest: src/repro/sim/fixture.py
"""Known-good OBS001 corpus: count privately for the owner's whole life,
``attach`` the tally once behind the guard, and let the registry read it."""


def lifecycle(tele, reason: str) -> None:
    if tele.enabled:
        tele.event("engine_exit", reason=reason)


def spans(tele) -> None:
    # span() is inert when disabled; no guard required
    with tele.span("engine.sched_pass"):
        pass


class Tally:
    def __init__(self) -> None:
        self.passes = 0
        self.queue_depths: dict[int, int] = {}

    def report(self, counters, histograms) -> None:
        # the registry calls this on a read: nothing is handed over
        if self.passes:
            counters["engine.sched.passes"] += self.passes
        for depth, n in list(self.queue_depths.items()):
            histograms["engine.queue_depth"].observe(depth, n)


class Engine:
    def __init__(self, telemetry) -> None:
        self.telemetry = telemetry
        self.tally = None
        if telemetry.enabled:
            self.tally = Tally()
            telemetry.attach(self.tally, self)

    def step(self, depth: int) -> None:
        # the tally: plain fields, no registry call per pass
        tally = self.tally
        if tally is not None:
            tally.passes += 1
            tally.queue_depths[depth] = tally.queue_depths.get(depth, 0) + 1
