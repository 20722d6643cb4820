"""Time loading and checking a saved KB file against the number of
individuals in it.

Each KB is the seeded world of ``ask_scaling.py`` (a category tree, N
individuals each in one category, two SPO edges per individual and one
rule), saved with ``qa.save_kb``.  The file is then read back
``--repeats`` times three ways: line by line through
``Session.assert_line`` on a fresh session (``qa.load_kb`` applies each
line the same way, less the triggers, and the world declares none);
whole, by ``qa.load_kb``; and by the ``check`` command, which loads the
file and then runs closure and the contradiction report.
Prints, per size, the file's statement lines, the p50 time of one line,
and the p50 per-file totals of the load and of the check, in
milliseconds and per line.

    python scripts/load_scaling.py [--individuals 60 600 3000]
                                   [--repeats 5] [--seed 1]
"""

import argparse
import contextlib
import io
import os
import random
import statistics
import sys
import tempfile
import time

from ask_scaling import world
from exigraph import cli, qa


def line_times(path: str) -> list[float]:
    """Microseconds per statement line, applied to a fresh session."""
    session, times = qa.Session(), []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            start = time.perf_counter()
            session.assert_line(line)
            times.append((time.perf_counter() - start) * 1e6)
    return times


def file_ms(run, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def check(path: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["check", "--kb", path])
    if code != 0:
        sys.exit(f"check {path} exited {code}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--individuals", type=int, nargs="+",
                        default=[60, 600, 3000])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    print(f"{'individuals':>11}  {'lines':>6}  {'line_p50_us':>11}"
          f"  {'load_ms':>8}  {'load_us/line':>12}"
          f"  {'check_ms':>8}  {'check_us/line':>13}")
    with tempfile.TemporaryDirectory() as tmp:
        for n in args.individuals:
            path = os.path.join(tmp, f"world-{n}.kb")
            qa.save_kb(world(n, random.Random(f"load_scaling:{args.seed}:{n}")),
                       path)
            per_line = [t for _ in range(args.repeats)
                        for t in line_times(path)]
            lines = len(per_line) // args.repeats
            load = file_ms(lambda: qa.load_kb(path), args.repeats)
            checked = file_ms(lambda: check(path), args.repeats)
            print(f"{n:>11}  {lines:>6}  {statistics.median(per_line):>11.2f}"
                  f"  {load:>8.2f}  {load * 1e3 / lines:>12.2f}"
                  f"  {checked:>8.2f}  {checked * 1e3 / lines:>13.2f}")


if __name__ == "__main__":
    main()
