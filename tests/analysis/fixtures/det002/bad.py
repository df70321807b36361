# dest: src/repro/dist/fixture.py
"""Known-bad DET002 corpus: filesystem-ordered scans drive behaviour."""
import glob
import os


def scan(directory: str) -> list[str]:
    names = []
    for name in os.listdir(directory):  # caught
        names.append(name)
    names.extend(glob.glob(directory + "/*.json"))  # caught
    return names
