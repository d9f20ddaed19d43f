"""Mutation checks: each row of MUTANTS is a defect that its tests catch.

    python tests/mutants.py

For each row, the script copies src/, tests/ and pyproject.toml into a
temporary directory, replaces the row's text there (it must occur exactly
once), and runs the row's tests with `pytest -x`.  The mutant is killed
when they fail or cannot be collected, and survives when they pass.  The
working tree is never edited.  Before the rows, the unchanged copy must
pass every named test and import crosscap4 from itself.  Exit status: 0
when every mutant is killed, 1 when one survives, 2 when the check itself
cannot run.  The file is not named test_*.py, so pytest does not collect
it.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PINCH = "src/crosscap4/pinch.py"
PERCENT = "tests/test_pinch.py::test_batches_equal_the_percent_format"

# (file, text, replacement, why the change is a defect, tests that fail)
MUTANTS = [
    (PINCH, "period = math.lcm(", "period = 1 + math.lcm(",
     "the narrow columns' tails repeat every lcm rows, not one more, so "
     "a part past the first period copies the tails of the wrong rows",
     [PERCENT]),
    (PINCH, "10000 // math.gcd(10000, du)", "5000 // math.gcd(10000, du)",
     "a column's tails repeat after 10^4 / gcd(10^4, step) rows, so a cycle "
     "half as long repeats the wrong digits down the pattern",
     [PERCENT]),
    (PINCH, "s = lo % period", "s = lo",
     "the pattern holds at most period + STEP_BATCH rows, so a part past "
     "them is copied short",
     [PERCENT]),
    (PINCH, "elif n > 4:", "elif n > 4 and lo < period:",
     "the pattern holds the first row's head digits, so a part past the "
     "first period keeps heads it should rewrite",
     [PERCENT, "tests/test_cli.py::test_pinch_pins"]),
    (PINCH, "end if end >= 0", "end if True",
     "a descending stretch ends below digit 0, and a negative slice end "
     "counts from the plane's end, so the slice comes out empty",
     [PERCENT, "tests/test_cli.py::test_pinch_pins"]),
    (PINCH, "if len(set(map(len, columns))) > 1:", "if False:",
     "a column longer or shorter than the first is cut to its length or "
     "cuts the text short, silently",
     ["tests/test_pinch.py::test_batches_check_column_lengths"]),
]


def copy_tree(dest):
    ignore = shutil.ignore_patterns("__pycache__", "*.egg-info")
    for name in ("src", "tests"):
        shutil.copytree(os.path.join(ROOT, name), os.path.join(dest, name),
                        ignore=ignore)
    shutil.copy(os.path.join(ROOT, "pyproject.toml"), dest)


def run(dest, *argv):
    """The exit code of python argv in the copy dest, its own src first."""
    env = dict(os.environ, PYTHONPATH=os.path.join(dest, "src"))
    return subprocess.run([sys.executable, *argv], cwd=dest, env=env,
                           stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL).returncode


def pytest(dest, tests):
    return run(dest, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               *tests)


def main():
    for path, old, _, _, _ in MUTANTS:
        with open(os.path.join(ROOT, path)) as f:
            if f.read().count(old) != 1:
                print("%s: %r does not occur exactly once" % (path, old))
                return 2
    with tempfile.TemporaryDirectory() as dest:
        copy_tree(dest)
        check = ("import crosscap4, sys; "
                 "sys.exit(not crosscap4.__file__.startswith(%r))" % dest)
        if run(dest, "-c", check):
            print("the copy does not import its own crosscap4")
            return 2
        named = sorted({t for row in MUTANTS for t in row[4]})
        if pytest(dest, named):
            print("the unchanged tree fails the named tests")
            return 2
    survived = 0
    for i, (path, old, new, why, tests) in enumerate(MUTANTS, 1):
        start = time.monotonic()
        with tempfile.TemporaryDirectory() as dest:
            copy_tree(dest)
            with open(os.path.join(dest, path)) as f:
                source = f.read()
            with open(os.path.join(dest, path), "w") as f:
                f.write(source.replace(old, new))
            code = pytest(dest, tests)
        # The named tests passed unchanged, so any failure is the mutant's.
        verdict = "killed (exit %d)" % code if code else "SURVIVED"
        print("%d. %s in %.1f s: %s: %r -> %r" % (
            i, verdict, time.monotonic() - start, path, old, new))
        if not code:
            print("   %s" % why)
            survived += 1
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
