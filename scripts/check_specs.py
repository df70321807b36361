#!/usr/bin/env python
"""CI gate for the checked-in experiment spec files.

1. runs ``repro spec validate`` on every ``experiments/*.toml``;
2. runs ``repro spec expand --format keys`` on each (exercises the full
   CLI path, including the TOML fallback parser on Python 3.10);
3. asserts that ``experiments/paper.toml`` expands to **exactly** the
   package's built-in paper grid (:func:`repro.core.triples.paper_cells`):
   the same 128 triple labels then the 2 clairvoyant references, in
   order, and the same cell spec digests;
4. asserts that ``experiments/sweeps.toml`` exercises the list-sweep
   syntax: 3 tau values x (1 + 2-eta-sweep) predictors = 9 cells.

Exits non-zero on any failure.  Usage::

    python scripts/check_specs.py [--experiments DIR]
"""

from __future__ import annotations

import argparse
import glob
import os
import subprocess
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core.triples import paper_cells  # noqa: E402
from repro.spec import expand_spec_file, triple_keys_of  # noqa: E402


_SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))


def run_cli(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--experiments", default="experiments")
    args = parser.parse_args()

    spec_files = sorted(glob.glob(os.path.join(args.experiments, "*.toml")))
    if not spec_files:
        print(f"FAIL: no spec files under {args.experiments}/", file=sys.stderr)
        return 1

    failures = 0
    print(f"[check-specs] validating {len(spec_files)} spec file(s)")
    proc = run_cli("spec", "validate", *spec_files)
    print(proc.stdout, end="")
    if proc.returncode != 0:
        print(f"FAIL: repro spec validate exited {proc.returncode}\n{proc.stderr}",
              file=sys.stderr)
        failures += 1

    for path in spec_files:
        proc = run_cli("spec", "expand", path, "--format", "keys")
        if proc.returncode != 0:
            print(f"FAIL: repro spec expand {path} exited {proc.returncode}\n"
                  f"{proc.stderr}", file=sys.stderr)
            failures += 1
            continue
        keys = [
            line for line in proc.stdout.splitlines()
            if line and not line.startswith(("#", "..."))
        ]
        print(f"[check-specs] {path}: {len(keys)} unique triple key(s)")
        if os.path.basename(path) == "paper.toml":
            builtin = paper_cells()
            want = triple_keys_of(builtin)
            if keys != want:
                mismatch = next(
                    (i for i, (a, b) in enumerate(zip(keys, want, strict=False)) if a != b),
                    min(len(keys), len(want)),
                )
                print(
                    f"FAIL: paper.toml does not expand to the built-in "
                    f"grid's {len(want)} triple labels (first mismatch at "
                    f"index {mismatch})", file=sys.stderr,
                )
                failures += 1
            elif [c.digest() for c in expand_spec_file(path)] != [
                c.digest() for c in builtin
            ]:
                print(
                    "FAIL: paper.toml cells differ from the built-in grid's "
                    "(same labels, different spec digests: campaign block "
                    "drifted)", file=sys.stderr,
                )
                failures += 1
            else:
                print(
                    f"[check-specs] paper.toml == the built-in paper grid "
                    f"({len(want) - 2} triples + 2 references, "
                    f"{len(builtin)} cells), exactly"
                )
        if os.path.basename(path) == "sweeps.toml":
            proc_cells = run_cli("spec", "expand", path, "--format", "json")
            cells = [
                line for line in proc_cells.stdout.splitlines()
                if line.startswith("{")
            ]
            # 3 tau values x (requested + 2 swept ml etas) x 1 log x 1 seed
            if len(cells) != 9:
                print(
                    f"FAIL: sweeps.toml expanded to {len(cells)} cell(s), "
                    f"expected 9 (tau x eta sweep)", file=sys.stderr,
                )
                failures += 1
            else:
                print("[check-specs] sweeps.toml == 9 swept cells, exactly")

    if failures:
        print(f"[check-specs] {failures} failure(s)", file=sys.stderr)
        return 1
    print("[check-specs] all spec files OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
