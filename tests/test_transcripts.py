"""Golden transcripts: the REPL and the CLI print what they printed when
``tests/data/transcripts.txt`` was written, byte for byte.

The file holds ``cli.repl`` output with ``:trace on`` in both import modes
for the README Socrates and Moon dialogues and for seeded random scripts
over the vocabulary of ``test_qa.py`` plus one multi-word noun, then
``check`` and ``ask`` output with exit codes for KB files the dialogues
saved.  Each input line is echoed as ``> line`` above its output.  Files
are saved and loaded under relative names inside the working directory
the transcript is made in, so no temporary path reaches the file.

A change that alters output on purpose regenerates the file with
``python tests/test_transcripts.py --write`` and names the changed lines.
Run without ``--write``, the module prints the transcript.
"""

from __future__ import annotations

import contextlib
import io
import os
import pathlib
import random
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "transcripts.txt"

if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))

from exigraph import cli, qa  # noqa: E402

SOCRATES = ["All men are mortal.", "Socrates is a man.",
            "Is Socrates a mortal?", ":save socrates.kb"]

MOON = ["lexicon: people = person.", "lexicon: been to = was at.",
        "rule: X flew to Y => X was at Y.", "All astronauts are people.",
        "American astronauts flew to the Moon.",
        "Have people been to the Moon?", ":save moon.kb", ":load moon.kb",
        "Have people been to the Moon?"]

ABDUCTION = ["lexicon: see = saw.", "Plato is a man.", "Plato is a greek.",
             "Plato saw the sea.", "Socrates is a man.", "Socrates saw the sea.",
             "Is Socrates a greek?", ":abduce socrates", "Are all man greek?",
             "Did the greek see the sea?", "Did the man see the sea?"]

CONTRADICTION = ["All men are mortal.", "Some men are not mortal.",
                 "Are all men mortal?", ":save contra.kb"]

NOUNS = ("man", "men", "mortal", "bird", "fish", "astronauts", "people",
         "moon", "socrates", "universe", "american astronauts")
PROPERS = ("socrates", "plato", "armstrong", "gagarin")
VERBS = ("flew to", "was at", "asked", "saw")
LEXICON = ("fly to = flew to", "see = saw", "astronauts = astronaut",
           "people = person")
REACTIONS = ("see {object}", "tell {subject}", "{subject} {verb} {object}")
TRUTH_WORDS = ("yes", "no", "unknown", "maybe")
MALFORMED = ("All men are.", "Is Socrates?", "Did the?", "socrates",
             "No men are not mortal.", "Are all men?")
SCRIPTS = 13


def _random_script(rng: random.Random, name: str) -> list[str]:
    """One script: statements of every kind, then questions of every kind
    about the names they used, with the REPL commands among both."""
    nouns = rng.sample(NOUNS, 4)
    propers = rng.sample(PROPERS, 2) + ["american astronauts"]
    used: set[str] = set()

    def noun():
        used.add(word := rng.choice(nouns))
        return word

    def proper():
        used.add(word := rng.choice(propers))
        return word

    def verb():
        return rng.choice(VERBS)

    def slot():
        return rng.choice(("*", noun()))

    def trigger():
        return (f"trigger: when {slot()} {verb()} {slot()} "
                f'then "{rng.choice(REACTIONS)}".')

    def known(words):
        return rng.choice(sorted(used & set(words)) or words)

    statements = {  # maker: weight
        lambda: f"{proper().capitalize()} is a {noun()}.": 6,
        lambda: f"All {noun()} are {noun()}.": 4,
        lambda: f"No {noun()} are {noun()}.": 2,
        lambda: f"Some {noun()} are {noun()}.": 2,
        lambda: f"Some {noun()} are not {noun()}.": 2,
        lambda: f"{proper().capitalize()} {verb()} the {noun()}.": 3,
        lambda: f"{noun().capitalize()} {verb()} the {noun()}.": 2,
        lambda: f"lexicon: {rng.choice(LEXICON)}.": 1,
        lambda: f"lexicon: {noun()} = {noun()}.": 1,
        lambda: f"rule: X {verb()} Y => X {verb()} Y.": 2,
        trigger: 1,
        lambda: ":closure": 1,
        lambda: rng.choice(MALFORMED): 1,
    }
    questions = {
        lambda: f"Is {known(propers)} a {known(nouns)}?": 4,
        lambda: f"Are all {known(nouns)} {known(nouns)}?": 2,
        lambda: f"Are any {known(nouns)} {known(nouns)}?": 2,
        lambda: f"Did {known(propers)} {verb()} the {known(nouns)}?": 1,
        lambda: f"Did {known(nouns)} {verb()} the {known(nouns)}?": 1,
        lambda: f"Have {known(nouns)} been to the {known(nouns)}?": 1,
        lambda: f":abduce {known(propers)}": 1,
        lambda: f":classify {rng.choice(TRUTH_WORDS)} "
                f"{rng.choice(TRUTH_WORDS)}": 1,
    }
    lines = [make() for make in rng.choices(
        list(statements), list(statements.values()), k=rng.randint(8, 12))]
    # two triggers on one verb, then a line with that verb, spread over the
    # script in this order: both fire, in the order they were declared
    v = verb()
    later = [f'trigger: when * {v} * then "{reaction}".'
             for reaction in rng.sample(REACTIONS, 2)]
    later.append(f"{proper().capitalize()} {v} the {noun()}.")
    if rng.random() < 0.5:
        later[-1:-1] = [f":save {name}", f":load {name}"]
    spots = sorted(rng.randint(0, len(lines)) for _ in later)
    for shift, (spot, line) in enumerate(zip(spots, later)):
        lines.insert(spot + shift, line)
    if rng.random() < 0.7:
        lines.insert(0, "lexicon: been to = was at.")
    return lines + [make() for make in rng.choices(
        list(questions), list(questions.values()), k=rng.randint(4, 7))]


def _repl(lines: list[str], existential_import: bool) -> list[str]:
    """Feed the lines to one REPL session, echoing each above its output."""
    session = qa.Session(existential_import=existential_import)
    out: list[str] = []
    for line in [":trace on", *lines]:
        buf = io.StringIO()
        cli.repl(session, io.StringIO(line + "\n"), buf)
        out += [f"> {line}", *buf.getvalue().splitlines()]
    return out


def _cli(argv: list[str]) -> list[str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = cli.main(argv)
    return [f"$ exigraph {' '.join(argv)}", *buf.getvalue().splitlines(),
            f"exit {code}"]


def transcript() -> str:
    """The whole transcript, made in the current working directory."""
    out: list[str] = []
    dialogues = [("socrates", SOCRATES), ("moon", MOON),
                 ("abduction", ABDUCTION), ("contradiction", CONTRADICTION)]
    rng = random.Random(20261018)
    dialogues += [(f"script {n}", _random_script(rng, f"script-{n}.kb"))
                  for n in range(1, SCRIPTS + 1)]
    for name, lines in dialogues:
        for existential_import in (False, True):
            out.append(f"## {name}, existential import "
                       f"{'on' if existential_import else 'off'}")
            out += _repl(lines, existential_import)
    out.append("## cli")
    for path in ["socrates.kb", "moon.kb", "contra.kb",
                 *sorted(p for p in os.listdir() if p.startswith("script-"))]:
        out += _cli(["check", "--kb", path])
    out += _cli(["ask", "Have people been to the Moon?", "--kb", "moon.kb",
                 "--trace"])
    out += _cli(["ask", "Is Socrates a mortal?", "--kb", "socrates.kb",
                 "--existential-import", "on", "--trace"])
    return "\n".join(out) + "\n"


def _transcript_in(workdir) -> str:
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        return transcript()
    finally:
        os.chdir(cwd)


def test_transcript_matches_the_golden_file(tmp_path):
    got = _transcript_in(tmp_path).splitlines()
    want = GOLDEN.read_text(encoding="utf-8").splitlines()
    assert got == want


def test_transcript_does_not_depend_on_the_hash_seed():
    runs = []
    for seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        runs.append(subprocess.Popen(
            [sys.executable, str(pathlib.Path(__file__).resolve())],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env))
    outputs = [(proc.communicate(timeout=120), proc.returncode)
               for proc in runs]
    want = GOLDEN.read_bytes()
    for (stdout, stderr), code in outputs:
        assert code == 0, stderr.decode()
        assert stdout == want


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        text = _transcript_in(tmp)
    if sys.argv[1:] == ["--write"]:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
