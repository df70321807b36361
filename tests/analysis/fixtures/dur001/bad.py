# dest: src/repro/dist/fixture.py
"""Known-bad DUR001 corpus: in-place write to a shared final path."""
import json


def save(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:  # caught
        json.dump(payload, fh)
