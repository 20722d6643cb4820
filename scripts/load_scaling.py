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

Two more modes time the lexicon.  ``--mode chain`` loads, by
``qa.load_kb``, a file of K entries ``lexicon: a1 = a2.`` ...
``lexicon: aK = aK+1.`` (each link added before the next, so every entry
changes the normal form of all earlier ones) and then ``X is an a1.``;
it prints the p50 load time, the label the membership is stored under
and the answer to ``Is X an aK/2?``.  ``--mode entry`` adds one lexicon
entry, a new word each repeat, to each world above, and prints the p50
time of that one line.

    python scripts/load_scaling.py [--mode file|chain|entry]
                                   [--individuals 60 600 3000]
                                   [--links 500 2000]
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


def chain(links: list[int], repeats: int) -> None:
    print(f"{'links':>6}  {'load_ms':>8}  {'stored_as':>9}  answer")
    with tempfile.TemporaryDirectory() as tmp:
        for k in links:
            path = os.path.join(tmp, f"chain-{k}.kb")
            with open(path, "w", encoding="utf-8") as fh:
                fh.writelines(f"lexicon: a{i} = a{i + 1}.\n"
                              for i in range(1, k + 1))
                fh.write("X is an a1.\n")
            load = file_ms(lambda: qa.load_kb(path), repeats)
            session = qa.load_kb(path)
            (stored,) = session.kb.memberships()
            answer = session.ask_line(f"Is X an a{k // 2}?").render()
            print(f"{k:>6}  {load:>8.1f}  {session.kb.label(stored.set_):>9}"
                  f"  {answer}")


def entry(sizes: list[int], repeats: int, seed: int) -> None:
    print(f"{'individuals':>11}  {'entry_p50_ms':>12}")
    for n in sizes:
        session = world(n, random.Random(f"load_scaling:{seed}:{n}"))
        times = []
        for i in range(repeats):
            start = time.perf_counter()
            session.assert_line(f"lexicon: zebras{i} = zebra{i}.")
            times.append((time.perf_counter() - start) * 1e3)
        print(f"{n:>11}  {statistics.median(times):>12.2f}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("file", "chain", "entry"),
                        default="file")
    parser.add_argument("--individuals", type=int, nargs="+",
                        default=[60, 600, 3000])
    parser.add_argument("--links", type=int, nargs="+", default=[500, 2000])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    if args.mode == "chain":
        return chain(args.links, args.repeats)
    if args.mode == "entry":
        return entry(args.individuals, args.repeats, args.seed)

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
