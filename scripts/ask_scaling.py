"""Time questions, per kind, against the number of individuals in the KB.

Each KB is a seeded world: a category tree (roots c0 and c1, two
disjoint categories under each, linked by A and E statements, and one I
statement), N individuals each stated in one of the four lower
categories, and two SPO edges per individual to ten places, with a rule
that carries one verb to another.  Then the same number of questions of
each kind is asked: is-a, are-all, are-any, and did about an individual
(did-ind) or about a category (did-cat).  The two did kinds are timed
apart because they take different paths, about tenfold apart in latency
at 3,000 individuals, so a median over both would fall between the two
and swing from run to run.  Prints the p50 and p90 latency per kind and
size, in milliseconds, and the walks of the implication graph per
question: on average and at most when it is first asked, and on average
when it is asked again.  The KB keeps each walk until an A or E statement
changes the graph, so a question asked again walks only what it does not
read from the KB.  The walks are counted on a second world built from
the same seed, asked the same questions in the same order, so counting
costs the timings nothing; the counts repeat exactly from run to run,
where latencies do not.  Last, per size, every entity's
``existence_degree`` is taken once, each call timed alone, and the p50
of one call is printed in microseconds: a walk reads the rows of only
the entities it reaches, so this should not grow with the KB.

    python scripts/ask_scaling.py [--individuals 60 600 3000]
                                  [--questions 200] [--seed 1]
"""

import argparse
import random
import statistics
import time

from exigraph import syllogistics
from exigraph.qa import Session

PARENT = {"c2": "c0", "c3": "c0", "c4": "c1", "c5": "c1"}
CATEGORIES = ("c0", "c1", *PARENT)
VERBS = ("saw", "flew to")
PLACES = [f"l{j}" for j in range(10)]


def world(individuals: int, rng: random.Random) -> Session:
    session = Session()
    session.assert_line("rule: X flew to Y => X saw Y.")
    for low, root in PARENT.items():
        session.assert_line(f"All {low} are {root}.")
    session.assert_line("No c2 are c3.")
    session.assert_line("No c4 are c5.")
    session.assert_line("Some c0 are c2.")
    for i in range(individuals):
        session.assert_line(f"P{i} is a {rng.choice(list(PARENT))}.")
        for verb, place in zip(VERBS, rng.sample(PLACES, len(VERBS))):
            session.assert_line(f"P{i} {verb} {place}.")
    return session


def question(kind: str, individuals: int, rng: random.Random) -> str:
    if kind == "is-a":
        return f"Is P{rng.randrange(individuals)} a {rng.choice(CATEGORIES)}?"
    if kind in ("are-all", "are-any"):
        s, p = rng.sample(CATEGORIES, 2)
        return f"Are {kind[4:]} {s} {p}?"
    subject = f"P{rng.randrange(individuals)}" if kind == "did-ind" \
        else rng.choice(CATEGORIES)
    return f"Did {subject} {rng.choice(VERBS)} {rng.choice(PLACES)}?"


def walks_per_question(session: Session, lines: list[str]) -> list[int]:
    """The walks each question makes: every walk of the implication graph
    goes through ``syllogistics._reach``."""
    walk, walks, per_question = syllogistics._reach, 0, []

    def counted(*args):
        nonlocal walks
        walks += 1
        return walk(*args)

    syllogistics._reach = counted
    try:
        for line in lines:
            before = walks
            session.ask_line(line)
            per_question.append(walks - before)
    finally:
        syllogistics._reach = walk
    return per_question


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--individuals", type=int, nargs="+",
                        default=[60, 600, 3000])
    parser.add_argument("--questions", type=int, default=200)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    print(f"{'individuals':>11}  {'kind':<8}  {'p50_ms':>8}  {'p90_ms':>8}"
          f"  {'walks':>6}  {'max':>4}  {'again':>6}")
    kinds = ("is-a", "are-all", "are-any", "did-ind", "did-cat")
    for n in args.individuals:
        seed = f"ask_scaling:{args.seed}:{n}"
        rng = random.Random(seed)
        session = world(n, rng)
        timed = {}
        for kind in kinds:
            lines, times = [], []
            for _ in range(args.questions):
                lines.append(question(kind, n, rng))
                start = time.perf_counter()
                session.ask_line(lines[-1])
                times.append((time.perf_counter() - start) * 1e3)
            timed[kind] = lines, times
        counted = world(n, random.Random(seed))
        for kind in kinds:
            lines, times = timed[kind]
            deciles = statistics.quantiles(times, n=10, method="inclusive")
            first = walks_per_question(counted, lines)
            again = walks_per_question(counted, lines)
            print(f"{n:>11}  {kind:<8}  {statistics.median(times):>8.3f}  "
                  f"{deciles[8]:>8.3f}  {statistics.mean(first):>6.2f}  "
                  f"{max(first):>4}  {statistics.mean(again):>6.2f}")
        kb, times = session.kb, []
        for entity in kb.entities():
            start = time.perf_counter()
            kb.existence_degree(entity)
            times.append((time.perf_counter() - start) * 1e6)
        print(f"{n:>11}  existence_degree p50 {statistics.median(times):.2f} us"
              f" per call, over all {len(times)} entities")


if __name__ == "__main__":
    main()
