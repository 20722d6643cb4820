"""Time syllogistic closure on long categorical chains.

Each KB is an A chain a0 -> ... -> aN ("all a0 are a1", ...) with an E,
an I and an O proposition hanging off it, the shape `check` closes when a
KB states a long hierarchy.  Prints, per chain length, how many
propositions closure adds and the best wall time of three closures.

    python scripts/closure_scaling.py [--links 7 14 20 40 80]
"""

import argparse
import time

from exigraph.kb import KnowledgeBase
from exigraph.logic3 import TRUE
from exigraph.syllogistics import closure


def branched_chain(links: int) -> KnowledgeBase:
    kb = KnowledgeBase()
    terms = [kb.upsert_entity(f"a{i}") for i in range(links + 1)]
    for s, p in zip(terms, terms[1:]):
        kb.assert_proposition("A", s, p, TRUE)
    kb.assert_proposition("E", terms[-1], kb.upsert_entity("e"), TRUE)
    kb.assert_proposition("I", kb.upsert_entity("b"), terms[0], TRUE)
    kb.assert_proposition("O", kb.upsert_entity("c"), terms[-1], TRUE)
    return kb


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--links", type=int, nargs="+",
                        default=[7, 14, 20, 40, 80])
    args = parser.parse_args()

    print(f"{'links':>5}  {'added':>6}  {'seconds':>8}")
    for links in args.links:
        best = float("inf")
        for _ in range(3):
            kb = branched_chain(links)
            start = time.perf_counter()
            added = closure(kb)
            best = min(best, time.perf_counter() - start)
        print(f"{links:>5}  {added:>6}  {best:>8.4f}")


if __name__ == "__main__":
    main()
