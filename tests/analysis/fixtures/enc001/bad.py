# dest: src/repro/workload/fixture.py
"""Known-bad ENC001 corpus: platform-default text encoding."""


def read(path: str) -> str:
    with open(path) as fh:  # caught
        return fh.read()


def write(path: str, text: str) -> None:
    with open(path, "w") as fh:  # caught
        fh.write(text)
