"""Walk through the lunar dialogue end to end.

Builds the five-line KB, asks the question, and prints the verdict with
its full evidence trace.  Run with --existential-import on to answer as
if every term had a member (the 24-mood logic).
"""

import argparse

from exigraph.qa import Session

KB_LINES = [
    "lexicon: people = person.",
    "lexicon: been to = was at.",
    "rule: X flew to Y => X was at Y.",
    "All astronauts are people.",
    "American astronauts flew to the Moon.",
]

QUESTION = "Have people been to the Moon?"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--existential-import", choices=("on", "off"),
                        default="off")
    args = parser.parse_args()

    session = Session(existential_import=args.existential_import == "on")
    for line in KB_LINES:
        session.assert_line(line)
        print(f"  + {line}")
    print(f"\n? {QUESTION}")
    ans = session.ask_line(QUESTION)
    print(ans.render())
    for i, step in enumerate(ans.trace, start=1):
        print(f"  {i}. {step.render()}")
    if ans.suggestion is not None:
        print(f"  suggested: {ans.suggestion}")


if __name__ == "__main__":
    main()
