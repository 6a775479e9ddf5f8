"""Mutation check: each mutant in mutants.json must be killed by the tests it names and by tier-1.

    python tests/run_mutants.py [NAME ...]

Each mutant is a plain text replacement in one file: old must occur in it
exactly once.  The runner copies src/, tests/, pyproject.toml and README.md
(a CLI test reads it) to a temporary directory and runs tier-1 there once
unmutated, to learn the failures that stand without any mutant.  Then,
mutant by mutant, it applies the replacement, runs the named tests, which
must all fail, runs tier-1, which must fail in some test beyond the standing
ones, and restores the file.  A mutant marked "equivalent" changes no result
on any input the tests use; only its old text is checked, and it is not run.
NAMEs pick mutants by name; the default is all of them.  The runner exits 1
on a survivor, on a named test that passes, on a mutant that names no test,
or on old text that no longer matches.  Its name keeps pytest from
collecting it.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = Path(__file__).with_name("mutants.json")
TIER1 = ("--continue-on-collection-errors",)


def pytest(copy: Path, args) -> set[str]:
    """Run pytest in copy; return the ids of the tests that failed or errored."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *args],
        cwd=copy, env=env, capture_output=True, text=True,
    )
    return set(re.findall(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.MULTILINE))


def main(names: list[str]) -> int:
    mutants = json.loads(MUTANTS.read_text())
    unknown = set(names) - {m["name"] for m in mutants}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    mutants = [m for m in mutants if not names or m["name"] in names]
    start, bad = time.perf_counter(), 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        shutil.copytree(ROOT / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "tests", copy / "tests", ignore=shutil.ignore_patterns("__pycache__"))
        for name in ("pyproject.toml", "README.md"):
            shutil.copy(ROOT / name, copy)
        standing = pytest(copy, TIER1)
        print(f"tier-1 unmutated: {len(standing)} standing failure(s) {sorted(standing)}")
        for m in mutants:
            path = copy / m["file"]
            text = path.read_text()
            if text.count(m["old"]) != 1:
                print(f"STALE    {m['name']}: old text occurs {text.count(m['old'])} times in {m['file']}")
                bad += 1
                continue
            if m.get("equivalent"):
                print(f"equivalent {m['name']}: not run")
                continue
            if not m["killed_by"]:
                print(f"UNNAMED  {m['name']}: names no test that kills it")
                bad += 1
                continue
            path.write_text(text.replace(m["old"], m["new"]))
            try:
                failed = pytest(copy, m["killed_by"])
                passing = [t for t in m["killed_by"] if t not in failed]
                tier1 = pytest(copy, TIER1)
            finally:
                path.write_text(text)
            new = tier1 - standing
            verdict = "SURVIVED" if not new else "PASSES" if passing else "killed"
            bad += verdict != "killed"
            print(f"{verdict:8s} {m['name']}: tier-1 fails {len(new)} more test(s)"
                  + (f"; named tests that pass: {passing}" if passing else ""))
    print(f"{len(mutants)} mutant(s), {bad} not killed as named, {time.perf_counter() - start:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
