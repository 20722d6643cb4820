"""Command-line interface: REPL, one-shot ask, and KB checking.

Exit codes: 0 ok, 1 parse or I/O error, 2 contradiction found by check.
All I/O is UTF-8 and line-buffered.
"""

from __future__ import annotations

import argparse
import sys

from . import lang, qa
from .abduction import abduce_membership
from .agency import classify_aim
from .kb import KbError
from .logic3 import Value3
from .syllogistics import closure, contradictions


def _load_session(path: str | None, existential_import: bool) -> qa.Session:
    session = qa.Session() if path is None else qa.load_kb(path)
    session.existential_import = existential_import
    return session


def _print_answer(ans: qa.Answer, show_trace: bool, out) -> None:
    print(ans.render(), file=out)
    if show_trace:
        for i, step in enumerate(ans.trace, start=1):
            print(f"  {i}. {step.render()}", file=out)
        if ans.suggestion is not None:
            print(f"  suggested: {ans.suggestion}", file=out)


def cmd_ask(args) -> int:
    session = _load_session(args.kb, args.existential_import == "on")
    ans = session.ask_line(args.question)
    _print_answer(ans, args.trace, sys.stdout)
    return 0


def cmd_check(args) -> int:
    session = _load_session(args.kb, False)
    added = closure(session.kb)
    print(f"closure added {added} propositions")
    problems = contradictions(session.kb)
    for line in problems:
        print(f"contradiction: {line}")
    if problems:
        return 2
    print("no contradictions")
    return 0


def cmd_repl(args) -> int:
    session = _load_session(args.kb, args.existential_import == "on")
    return repl(session, sys.stdin, sys.stdout)


def repl(session: qa.Session, stdin, stdout) -> int:
    """Read statements and questions line by line; ``:`` lines are commands.

    Errors are reported per line with offsets; the session survives them.
    """
    prompt = "> " if getattr(stdin, "isatty", lambda: False)() else ""
    while True:
        if prompt:
            stdout.write(prompt)
            stdout.flush()
        line = stdin.readline()
        if not line:
            return 0
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith(":"):
            code = _command(session, line, stdout)
            if code is not None:
                return code
            continue
        try:
            if line.endswith("?"):
                ans = session.ask_line(line)
                _print_answer(ans, session.show_trace, stdout)
            else:
                revision, aims = session.assert_line(line)
                print(f"ok #{revision}", file=stdout)
                for aim in aims:
                    print(f"aim: {aim.description}", file=stdout)
        except (lang.ParseError, qa.LoadError, KbError) as exc:
            print(f"error: {exc}", file=stdout)


def _command(session: qa.Session, line: str, stdout) -> int | None:
    parts = line.split()
    cmd, rest = parts[0], parts[1:]
    try:
        if cmd == ":quit":
            return 0
        if cmd == ":load" and len(rest) == 1:
            loaded = qa.load_kb(rest[0])
            session.kb = loaded.kb
            session.lexicon = loaded.lexicon
            session.rules = loaded.rules
            session.triggers = loaded.triggers
            print(f"ok #{session.kb.revision}", file=stdout)
        elif cmd == ":save" and len(rest) == 1:
            revision = qa.save_kb(session, rest[0])
            print(f"ok #{revision}", file=stdout)
        elif cmd == ":closure":
            added = closure(session.kb, session.existential_import)
            print(f"ok #{session.kb.revision} (+{added})", file=stdout)
        elif cmd == ":abduce" and rest:
            ent = session.kb.entity(" ".join(rest))
            if ent is None:
                print("error: unknown entity", file=stdout)
                return None
            for hyp in abduce_membership(ent, session.kb):
                print(f"may be: {ent.label} in {hyp.set_.label} "
                      f"(score {hyp.score[0]},{hyp.score[1]})", file=stdout)
        elif cmd == ":classify" and len(rest) == 2:
            verdicts = [Value3.parse(word) for word in rest]
            print(classify_aim(*verdicts).value, file=stdout)
        elif cmd == ":trace" and len(rest) == 1 and rest[0] in ("on", "off"):
            session.show_trace = rest[0] == "on"
            print("ok", file=stdout)
        else:
            print(f"error: unknown command {line!r}", file=stdout)
    except (ValueError, qa.LoadError, OSError) as exc:
        print(f"error: {exc}", file=stdout)
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="exigraph",
        description="three-valued knowledge engine with a dialogue front end")
    sub = parser.add_subparsers(dest="command", required=True)

    p_repl = sub.add_parser("repl", help="interactive dialogue")
    p_repl.add_argument("--kb", default=None)
    _common_flags(p_repl)
    p_repl.set_defaults(func=cmd_repl)

    p_ask = sub.add_parser("ask", help="answer one question")
    p_ask.add_argument("question")
    p_ask.add_argument("--kb", required=True)
    p_ask.add_argument("--trace", action="store_true")
    _common_flags(p_ask)
    p_ask.set_defaults(func=cmd_ask)

    p_check = sub.add_parser("check", help="closure and contradiction report")
    p_check.add_argument("--kb", required=True)
    p_check.set_defaults(func=cmd_check)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (lang.ParseError, qa.LoadError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _common_flags(p) -> None:
    p.add_argument("--existential-import", choices=("on", "off"),
                   default="off")


if __name__ == "__main__":
    sys.exit(main())
