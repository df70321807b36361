# dest: src/repro/sim/fixture.py
"""Known-good OBS001 corpus: count privately, hand over in one guarded
``add_batch``."""


def lifecycle(tele, reason: str) -> None:
    if tele.enabled:
        tele.event("engine_exit", reason=reason)


def nothing_to_hand_over(telemetry, counters: dict) -> None:
    if counters and telemetry.enabled:
        telemetry.add_batch(counters.items(), {})


def spans(tele) -> None:
    # span() is inert when disabled; no guard required
    with tele.span("engine.sched_pass"):
        pass


class Engine:
    def __init__(self, telemetry) -> None:
        self.telemetry = telemetry
        self.passes = 0
        self.queue_depths: dict[int, int] = {}

    def step(self, depth: int) -> None:
        # the tally: plain fields, no registry call per pass
        self.passes += 1
        self.queue_depths[depth] = self.queue_depths.get(depth, 0) + 1

    def fold(self) -> None:
        tele = self.telemetry
        if tele.enabled:
            tele.add_batch(
                [("engine.sched.passes", self.passes)],
                {("engine.queue_depth", depth): n for depth, n in self.queue_depths.items()},
            )
            self.passes = 0
            self.queue_depths.clear()
