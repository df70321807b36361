# dest: src/repro/dist/fixture.py
"""Known-bad OBS002 corpus: stdout from a library layer."""


def harvest(shard: str) -> None:
    print(f"harvested {shard}")  # caught
