"""Census of the 256 syllogistic figure/form combinations.

Prints the valid moods per figure, flags the ones that hold only under
existential import (with the term whose non-emptiness they need), and
reports the countermodel-size distribution for the invalid rest.
"""

import argparse
import itertools
import pathlib
import sys
from collections import Counter

from exigraph.syllogistics import valid_moods

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tests"))
from oracles import oracle_countermodel  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--countermodels", action="store_true",
                        help="also survey countermodel sizes (slower)")
    args = parser.parse_args()

    strict = {m.name for m in valid_moods(False)}
    table = sorted(valid_moods(True), key=lambda m: (m.figure, m.forms))
    for figure in (1, 2, 3, 4):
        names = []
        for m in table:
            if m.figure != figure:
                continue
            tag = f"*{m.import_term}" if m.import_term is not None else ""
            names.append(m.name + tag)
        print(f"figure {figure}: {'  '.join(names)}")
    print(f"{len(strict)} unconditional, {len(table)} with existential "
          f"import (* marks the term that must be non-empty)")

    if args.countermodels:
        sizes = Counter()
        valid = {m.name for m in table}
        for figure in (1, 2, 3, 4):
            for forms in itertools.product("AEIO", repeat=3):
                name = f"{''.join(forms)}-{figure}"
                if name in valid:
                    continue
                cm = oracle_countermodel(figure, forms, True)
                sizes[cm[0]] += 1
        print("countermodel universe sizes for the invalid combinations:")
        for size in sorted(sizes):
            print(f"  {size} objects: {sizes[size]} combinations")


if __name__ == "__main__":
    main()
