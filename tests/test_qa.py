import io
import os
import pathlib
import re
import subprocess
import sys
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

from exigraph import abduction, cli, qa, syllogistics
from exigraph.agency import AimClass
from exigraph.kb import KbError, KnowledgeBase
from exigraph.logic3 import TRUE, UNKNOWN
from exigraph.qa import Answer, LoadError, Session, load_kb, save_kb

MOON_KB = """\
lexicon: people = person.
lexicon: been to = was at.
rule: X flew to Y => X was at Y.
All astronauts are people.
American astronauts flew to the Moon.
"""

MOON_Q = "Have people been to the Moon?"


@pytest.fixture
def moon_path(tmp_path):
    path = tmp_path / "moon.kb"
    path.write_text(MOON_KB)
    return str(path)


def socrates_session():
    s = Session()
    s.assert_line("Socrates is a man.")
    s.assert_line("All men are mortal.")
    return s


# -- staged answering ------------------------------------------------------

def test_moon_scenario_plausible(moon_path):
    session = load_kb(moon_path)
    ans = session.ask_line(MOON_Q)
    assert ans.verdict is UNKNOWN
    assert ans.modality == qa.PLAUSIBLE
    assert ans.suggestion is TRUE
    rendered = " | ".join(step.render() for step in ans.trace)
    assert "was at" in rendered
    assert any(step.provenance == "abduced" for step in ans.trace)
    assert "some person was at moon" in rendered


def test_socrates_proven():
    ans = socrates_session().ask_line("Is Socrates a mortal?")
    assert ans.verdict is TRUE
    assert ans.modality == qa.PROVEN
    assert len(ans.trace) == 2


def test_empty_kb_any_question():
    for q in ("Is Socrates a man?", "Are all men mortal?",
              "Did birds fly to the moon?"):
        ans = Session().ask_line(q)
        assert ans == Answer(UNKNOWN, None)
        assert ans.trace == []


def test_direct_membership_is_one_step():
    s = Session()
    s.assert_line("Socrates is a man.")
    ans = s.ask_line("Is Socrates a man?")
    assert ans.render() == "yes (proven)"
    assert len(ans.trace) == 1
    assert ans.trace[0].provenance == "asserted"


def test_proven_answers_carry_no_abduced_steps():
    s = Session()
    s.assert_line("lexicon: astronauts = astronaut.")
    s.assert_line("rule: X flew to Y => X was at Y.")
    s.assert_line("All astronauts are people.")
    s.assert_line("Gagarin is an astronaut.")
    s.assert_line("Gagarin flew to the Moon.")
    s.ask_line("Did people fly to the Moon?")  # rules conclude abduced edges
    ans = s.ask_line("Is Gagarin a person?")
    assert ans.modality == qa.PROVEN
    assert all(step.provenance in ("asserted", "deduced") for step in ans.trace)


def test_distributive_actor_reading():
    s = Session()
    s.assert_line("lexicon: astronauts = astronaut.")
    s.assert_line("lexicon: fly to = flew to.")
    s.assert_line("Gagarin is an astronaut.")
    s.assert_line("Gagarin flew to space.")
    ans = s.ask_line("Did astronauts fly to space?")
    assert ans.render() == "yes (proven)"


HYP_GREEK = "  1. [hypothesis] hypothesis: socrates may be in greek"
ABDUCED_MOON = "  1. [abduced] edge: armstrong was at moon (conjectured)"

# (input line, output lines); each question is labelled with the stage
# that settles it: lookup, entailment, conjecture (after rules) or unknown
STAGE_MATRIX = [
    (":trace on", ["ok"]),
    ("lexicon: fly to = flew to.", ["ok #0"]),
    ("lexicon: been to = was at.", ["ok #0"]),
    ("lexicon: see = saw.", ["ok #0"]),
    ("lexicon: astronauts = astronaut.", ["ok #0"]),
    ("rule: X flew to Y => X was at Y.", ["ok #0"]),
    ("Socrates is a man.", ["ok #1"]),
    ("Socrates saw the sea.", ["ok #2"]),
    ("All men are mortal.", ["ok #3"]),
    ("All mortal are animal.", ["ok #4"]),
    # did, unknown: a question writes nothing, so the revision stays
    ("Did the sea see Socrates?", ["unknown"]),
    ("Plato is a man.", ["ok #5"]),
    ("Plato is a greek.", ["ok #6"]),
    ("Plato saw the sea.", ["ok #7"]),
    ("Armstrong is an astronaut.", ["ok #8"]),
    ("Armstrong flew to the Moon.", ["ok #9"]),
    ("No fish are animal.", ["ok #10"]),
    # is-a: lookup, entailment citing a stored proposition and a deduced
    # one, conjecture, unknown, unknown entity
    ("Is Socrates a man?", [
        "yes (proven)",
        "  1. [asserted] membership: socrates in man = yes"]),
    ("Is Socrates a mortal?", [
        "yes (proven)",
        "  1. [asserted] membership: socrates in man = yes",
        "  2. [asserted] proposition: all man are mortal"]),
    ("Is Socrates a fish?", [
        "no (proven)",
        "  1. [asserted] membership: socrates in man = yes",
        "  2. [deduced] proposition: no man are fish"]),
    ("Is Socrates a greek?", [
        "unknown (plausible)",
        HYP_GREEK + " (shared properties: 2, members: 1)",
        "  2. [abduced] evidence: #1, #5, #2, #7",
        "  suggested: yes"]),
    ("Is Socrates a sea?", ["unknown"]),
    ("Is Zeus a man?", ["unknown"]),
    ("All animal are living.", ["ok #11"]),
    # are-all / are-any: entailment of a stored universal, of a derived
    # one and of a particular's denial, conjecture, unknown, one entity
    # twice, unknown entity
    ("Are all men mortal?", [
        "yes (proven)",
        "  1. [asserted] proposition: all man are mortal = yes"]),
    ("Are all men living?", [
        "yes (proven)",
        "  1. [deduced] proposition: all man are living = yes"]),
    ("Are any men fish?", [
        "no (proven)",
        "  1. [deduced] proposition: some man are fish = no"]),
    ("Are all men greek?", [
        "unknown (plausible)",
        HYP_GREEK,
        "  suggested: yes"]),
    ("Are any men sea?", ["unknown"]),
    ("Are all men men?", ["unknown"]),
    ("Are all gods men?", ["unknown"]),
    # did / have: lookup of the edge, lookup through a member,
    # conjecture through a member and through the subject itself,
    # unknown, unknown entity
    ("Did Armstrong fly to the Moon?", [
        "yes (proven)",
        "  1. [asserted] edge: armstrong flew to moon = yes"]),
    ("Did astronauts fly to the Moon?", [
        "yes (proven)",
        "  1. [asserted] edge: armstrong flew to moon = yes",
        "  2. [asserted] membership: armstrong in astronaut = yes"]),
    ("Have astronauts been to the Moon?", [
        "unknown (plausible)",
        ABDUCED_MOON,
        "  2. [asserted] membership: armstrong in astronaut",
        "  3. [hypothesis] hypothesis: some astronaut was at moon",
        "  suggested: yes"]),
    ("Have Armstrong been to the Moon?", [
        "unknown (plausible)",
        ABDUCED_MOON,
        "  2. [asserted] identity: armstrong is the asked subject",
        "  3. [hypothesis] hypothesis: some armstrong was at moon",
        "  suggested: yes"]),
    ("Did Socrates see the Moon?", ["unknown"]),
    ("Did Zeus see the Moon?", ["unknown"]),
    # entailment the mood table never drew: I/E conversion, a set that
    # can have no members, an element as the witness of a particular
    ("Some ka are kb.", ["ok #12"]),
    ("Are any kb ka?", [
        "yes (proven)",
        "  1. [deduced] proposition: some kb are ka = yes"]),
    ("No kb are kc.", ["ok #13"]),
    ("All kc are kb.", ["ok #14"]),
    ("Are all kc ka?", [
        "yes (proven)",
        "  1. [deduced] proposition: all kc are ka = yes"]),
    ("Are any man mortal?", [
        "yes (proven)",
        "  1. [deduced] proposition: some man are mortal = yes"]),
    # an inconsistent KB: zeno is a kc, and nothing can be a kc
    ("Zeno is a kc.", ["ok #15"]),
    ("Is Zeno a ka?", [
        "unknown",
        "  1. [deduced] witness: zeno reaches kb and not kb"]),
]


def test_stage_matrix_traced_output():
    script = "".join(line + "\n" for line, _ in STAGE_MATRIX)
    code, out = run_repl(script)
    assert code == 0
    assert out.splitlines() == [o for _, lines in STAGE_MATRIX for o in lines]


@pytest.mark.parametrize("lines, expected", [
    # a KB that entails both verdicts answers unknown, even when the asked
    # universal is stored, or a stored universal covers one of the sets
    (["All ka are kb.", "Some ka are not kb.", "Are all ka kb?"],
     ["unknown",
      "  1. [deduced] witness: some ka are not kb reaches ka and not ka"]),
    (["Socrates is a man.", "Socrates is a tk.", "All tk are mortal.",
      "No man are mortal.", "Is Socrates a mortal?"],
     ["unknown", "  1. [deduced] witness: socrates reaches man and not man"]),
    # a set whose universal is stored is cited before an earlier one
    # whose universal is only entailed
    (["Socrates is a ka.", "Socrates is a kb.", "All ka are kc.",
      "All kc are kd.", "All kb are kd.", "Is Socrates a kd?"],
     ["yes (proven)",
      "  1. [asserted] membership: socrates in kb = yes",
      "  2. [asserted] proposition: all kb are kd"]),
])
def test_derived_verdicts_come_from_entailment(lines, expected):
    code, out = run_repl(":trace on\n" + "".join(line + "\n" for line in lines))
    assert code == 0
    assert out.splitlines()[len(lines):] == expected


def test_questions_read_only_what_they_ask_about(monkeypatch):
    # 200 individuals over four categories, three of them A-linked to the
    # fourth; birds saw the sea, the rest saw the lake
    categories = ("animal", "bird", "fish", "snake")
    s = Session()
    s.assert_line("rule: X saw Y => X was at Y.")
    for c in categories[1:]:
        s.assert_line(f"All {c} are animal.")
    for i in range(200):
        c = categories[i % 4]
        s.assert_line(f"P{i} is a {c}.")
        s.assert_line(f"P{i} saw {'sea' if c == 'bird' else 'lake'}.")
    walks = 0
    clash = syllogistics._clash

    def counted(*args):
        nonlocal walks
        walks += 1
        return clash(*args)

    monkeypatch.setattr(syllogistics, "_clash", counted)
    assert s.ask_line("Are any bird fish?").verdict is UNKNOWN
    # one walk per distinct witness: the four units {category} of the
    # "some" check, and "some bird are fish" for the "none" check; a walk
    # per element would be 201
    assert walks <= len(categories) + 1

    def no_full_edge_read(*args):
        raise AssertionError("a did-question read every edge")

    monkeypatch.setattr(KnowledgeBase, "edges", no_full_edge_read)
    assert s.ask_line("Did bird saw sea?").render() == "yes (proven)"
    # the lookup and the conjecture over the rules both come up empty
    assert s.ask_line("Did fish saw sea?").render() == "unknown"


def _categories_world(individuals):
    """Two category trees (c2, c3 under c0; c4, c5 under c1, each pair
    disjoint) and individuals spread over the four lower categories, each
    of which saw one place and flew to another; members of one category
    share no place."""
    s = Session()
    s.assert_line("rule: X flew to Y => X saw Y.")
    for low, root in (("c2", "c0"), ("c3", "c0"), ("c4", "c1"), ("c5", "c1")):
        s.assert_line(f"All {low} are {root}.")
    s.assert_line("No c2 are c3.")
    s.assert_line("No c4 are c5.")
    s.assert_line("Some c0 are c2.")
    for i in range(individuals):
        s.assert_line(f"P{i} is a c{2 + i % 4}.")
        s.assert_line(f"P{i} saw l{i // 4 % 10}.")
        s.assert_line(f"P{i} flew to l{(i // 4 + 5) % 10}.")
    return s


SCALE_QUESTIONS = (
    "Is P5 a c0?", "Is P5 a c2?", "Is P5 a c4?", "Is P6 a c5?",
    "Are all c2 c0?", "Are all c0 c2?", "Are all c2 c4?", "Are all c2 c3?",
    "Are any c2 c3?", "Are any c0 c1?", "Are any c4 c1?", "Are any c2 c5?",
    # a c2 saw l3; no c0 is stated, so every actor into l3 is tried
    "Did c2 saw l3?", "Did c0 saw l3?", "Did c4 flew to l8?",
    "Did c1 flew to l8?",
)


def test_question_work_does_not_grow_with_the_individuals(monkeypatch):
    # is-a, are-all and are-any questions walk one witness per class of
    # elements and stop reading a set's members once they share nothing;
    # a did-question walks once for all the actors of the edges into the
    # object.  Walks are counted at _clash and at _reach, which _clash and
    # the did-question's walk go through.
    counts = {"walks": 0, "properties": 0}

    def counted(fn, name):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    for walk in ("_clash", "_reach"):
        monkeypatch.setattr(syllogistics, walk,
                            counted(getattr(syllogistics, walk), "walks"))
    monkeypatch.setattr(abduction, "_properties",
                        counted(abduction._properties, "properties"))
    per_size = []
    for individuals in (600, 3000):
        s = _categories_world(individuals)
        work = []
        for line in SCALE_QUESTIONS:
            counts.update(walks=0, properties=0)
            s.ask_line(line)
            work.append((line, counts["walks"], counts["properties"]))
        per_size.append(work)
    small, large = per_size
    for (line, walks, props), (_, big_walks, big_props) in zip(small, large):
        assert big_walks <= walks and big_props <= props, line


def test_answers_deterministic(moon_path):
    first = load_kb(moon_path).ask_line(MOON_Q)
    second = load_kb(moon_path).ask_line(MOON_Q)
    assert first == second


# -- persistence -----------------------------------------------------------

def test_save_load_save_byte_identical(moon_path, tmp_path):
    session = load_kb(moon_path)
    a, b = str(tmp_path / "a.kb"), str(tmp_path / "b.kb")
    save_kb(session, a)
    save_kb(load_kb(a), b)
    assert pathlib.Path(a).read_bytes() == pathlib.Path(b).read_bytes()


def test_round_trip_preserves_the_moon_answer(moon_path, tmp_path):
    session = load_kb(moon_path)
    before = session.ask_line(MOON_Q)
    out = str(tmp_path / "saved.kb")
    save_kb(session, out)
    after = load_kb(out).ask_line(MOON_Q)
    assert (before.verdict, before.modality) == (after.verdict, after.modality)


def test_bad_line_is_named_and_nothing_loads(tmp_path):
    path = tmp_path / "bad.kb"
    path.write_text("Socrates is a man.\nAll men are mortal.\nha.\n")
    with pytest.raises(LoadError) as err:
        load_kb(str(path))
    assert err.value.line_no == 3
    assert ":3:" in str(err.value)


def test_failed_save_leaves_previous_file(moon_path, tmp_path, monkeypatch):
    (tmp_path / "d").mkdir()
    path = str(tmp_path / "d" / "kept.kb")
    save_kb(load_kb(moon_path), path)
    before = pathlib.Path(path).read_bytes()

    real_open = open

    class Failing:
        """A file that takes one line and then fails, as a full disk would."""

        def __init__(self, fh):
            self.fh, self.written = fh, False

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            if self.written:
                raise OSError("disk full")
            self.written = True
            return self.fh.write(text)

        def writelines(self, lines):
            for line in lines:
                self.write(line)

    def failing_open(*args, **kwargs):
        return Failing(real_open(*args, **kwargs))

    monkeypatch.setattr(qa, "open", failing_open, raising=False)
    session = socrates_session()
    with pytest.raises(OSError, match="disk full"):
        save_kb(session, path)
    monkeypatch.undo()
    assert pathlib.Path(path).read_bytes() == before
    assert os.listdir(tmp_path / "d") == ["kept.kb"]


def test_derived_content_not_serialized(moon_path, tmp_path):
    session = load_kb(moon_path)
    session.ask_line(MOON_Q)  # rules conclude "was at" edges, not stored
    out = str(tmp_path / "after.kb")
    save_kb(session, out)
    text = pathlib.Path(out).read_text(encoding="utf-8")
    assert text == (
        "lexicon: been to = was at.\n"
        "lexicon: people = person.\n"
        "rule: X flew to Y => X was at Y.\n"
        "All astronauts are person.\n"
        "American astronauts flew to moon.\n")  # no abduced "was at" edges


# -- the repl --------------------------------------------------------------

def run_repl(script, session=None):
    out = io.StringIO()
    code = cli.repl(session or Session(), io.StringIO(script), out)
    return code, out.getvalue()


def test_repl_assert_then_ask():
    code, out = run_repl("Socrates is a man.\nIs Socrates a man?\n")
    assert code == 0
    assert out.splitlines() == ["ok #1", "yes (proven)"]


def test_repl_survives_parse_errors():
    code, out = run_repl("ha.\nAll men are men.\nSocrates is a man.\n")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("error:")
    assert lines[1].startswith("error:")  # rejected by the KB, not the parser
    assert lines[2] == "ok #1"


@pytest.mark.parametrize("line", ["All birds are birds.", "All men are man."])
def test_rejected_statement_creates_nothing(line):
    s = Session()
    with pytest.raises(KbError, match="trivial self-proposition rejected"):
        s.assert_line(line)
    assert [e.label for e in s.kb.entities()] == ["universe"]
    assert s.kb.revision == 0


def test_repl_unsupported_question_rejected_not_answered():
    _, out = run_repl("Have you stopped drinking cognac in the morning?\n")
    assert out.startswith("error:")
    assert "unknown" not in out


def test_repl_commands(tmp_path):
    path = tmp_path / "s.kb"
    script = (
        "Socrates is a man.\n"
        "All men are mortal.\n"
        ":closure\n"
        f":save {path}\n"
        ":classify yes no\n"
        ":trace on\n"
        "Is Socrates a mortal?\n"
        ":quit\n")
    code, out = run_repl(script)
    assert code == 0
    lines = out.splitlines()
    assert lines[:2] == ["ok #1", "ok #2"]
    assert lines[2].startswith("ok #")        # :closure
    assert lines[3].startswith("ok #")        # :save
    assert lines[4] == "goal"
    assert lines[5] == "ok"
    assert lines[6] == "yes (proven)"
    assert lines[7].startswith("  1. ")
    # the seed lexicon canonicalizes "men" to "man" on the way in
    assert path.read_text() == "Socrates is a man.\nAll man are mortal.\n"


def test_repl_load_command(moon_path):
    code, out = run_repl(f":load {moon_path}\n{MOON_Q}\n")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("ok #")
    assert lines[1] == "unknown (plausible)"


def test_repl_trigger_fires_aim():
    script = ('trigger: when * asked * then "answer {object}".\n'
              "User asked question.\n")
    _, out = run_repl(script)
    assert "aim: answer question" in out


def test_load_fires_no_trigger(tmp_path, monkeypatch):
    path = tmp_path / "t.kb"
    path.write_text('trigger: when * asked * then "answer {object}".\n'
                    "User asked question.\n")

    def no_fire(*args):
        raise AssertionError("a load fired a trigger")

    monkeypatch.setattr(qa, "fire_triggers", no_fire)
    session = load_kb(str(path))
    assert len(session.triggers) == 1
    assert session.ask_line("Did user asked question?").render() \
        == "yes (proven)"


def test_repl_triggers_fire_in_declaration_order(tmp_path):
    path = tmp_path / "t.kb"
    script = ('trigger: when user * * then "log {verb}".\n'
              'trigger: when * asked * then "answer {object}".\n'
              "User asked question.\n"
              f":save {path}\n:load {path}\n"
              "User asked question.\n")
    _, out = run_repl(script)
    assert out.splitlines() == [
        "ok #0", "ok #0", "ok #1", "aim: log asked", "aim: answer question",
        "ok #1", "ok #1", "ok #2", "aim: log asked", "aim: answer question"]


@pytest.mark.parametrize("entry, trigger, lines, aim", [
    ("lexicon: fly to = flew to.", 'when * fly to * then "visit {object}"',
     ["Armstrong fly to the moon.", "Armstrong flew to the moon."],
     "aim: visit moon"),
    ("lexicon: astronauts = astronaut.",
     'when astronauts flew to * then "welcome {subject}"',
     ["Astronauts flew to the moon.", "The astronaut flew to the moon."],
     "aim: welcome astronaut"),
])
def test_trigger_pattern_reads_through_the_lexicon(entry, trigger, lines, aim):
    script = "".join(f"{line}\n"
                     for line in [entry, f"trigger: {trigger}.", *lines])
    _, out = run_repl(script)
    assert out.splitlines()[2:] == ["ok #1", aim, "ok #2", aim]


_NOUNS = ("man", "men", "mortal", "bird", "fish", "astronauts", "people",
          "moon", "socrates", "universe")
_VERBS = ("flew to", "was at", "asked", "saw")


def _statement_line():
    noun = st.sampled_from(_NOUNS)
    verb = st.sampled_from(_VERBS)
    return st.one_of(
        st.builds("{} is a {}.".format, noun, noun),
        st.builds("All {} are {}.".format, noun, noun),
        st.builds("No {} are {}.".format, noun, noun),
        st.builds("Some {} are {}.".format, noun, noun),
        st.builds("Some {} are not {}.".format, noun, noun),
        st.builds("{} {} the {}.".format, noun, verb, noun),
        st.builds("lexicon: {} = {}.".format, noun, noun),
        st.builds("rule: X {} Y => X {} Y.".format, verb, verb),
        st.builds('trigger: when * {} * then "see {{object}}".'.format, verb))


def _repl_line():
    noun = st.sampled_from(_NOUNS)
    verb = st.sampled_from(_VERBS)
    word = st.sampled_from(("yes", "no", "unknown", "maybe", "on", "off"))
    questions = st.one_of(
        st.builds("Is {} a {}?".format, noun, noun),
        st.builds("Are all {} {}?".format, noun, noun),
        st.builds("Are any {} {}?".format, noun, noun),
        st.builds("Did {} {} the {}?".format, noun, verb, noun),
        st.builds("Have {} been to the {}?".format, noun, noun))
    commands = st.one_of(
        st.sampled_from((":closure", ":trace on", ":trace off", ":bogus",
                         ":load", ":save {dir}/s.kb", ":load {dir}/s.kb",
                         ":load {dir}/none.kb")),
        st.builds(":abduce {}".format, noun),
        st.builds(":classify {} {}".format, word, word))
    return st.one_of(_statement_line(), questions, commands,
                     st.text(max_size=30))


_REPL_OUTPUT = re.compile(
    r"(ok #|aim: |error: |may be: |(yes|no|unknown)( \((proven|plausible)\))?$"
    r"|ok$|  \d+\. |  suggested: |(%s)$)" % "|".join(c.value for c in AimClass))


@settings(max_examples=150, deadline=None)
@given(st.lists(_repl_line(), max_size=12))
def test_repl_fuzz_never_raises(lines):
    with tempfile.TemporaryDirectory() as tmp:
        script = "".join(line.replace("{dir}", tmp) + "\n" for line in lines)
        code, out = run_repl(script)
    assert code == 0
    for line in out.split("\n")[:-1]:
        assert _REPL_OUTPUT.match(line), line


@settings(max_examples=150, deadline=None)
@given(st.lists(_statement_line(), max_size=12))
@example(["Some astronauts are socrates.", "lexicon: socrates = astronauts."])
@example(["Plato is a philosopher.", "lexicon: plato = socrates."])
@example(["lexicon: men = mortal.", "lexicon: man = men."])
@example(["lexicon: x y = z.", "lexicon: w = x y.", "lexicon: x = w."])
def test_save_load_save_byte_identical_after_any_script(lines):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = os.path.join(tmp, "1.kb"), os.path.join(tmp, "2.kb")
        run_repl("".join(line + "\n" for line in lines) + f":save {first}\n")
        save_kb(load_kb(first), second)
        with open(first, "rb") as a, open(second, "rb") as b:
            assert a.read() == b.read()


@settings(max_examples=150, deadline=None)
@given(st.lists(_statement_line(), max_size=12))
@example(["Some astronauts are socrates.", "lexicon: socrates = astronauts."])
@example(["Plato is a philosopher.", "lexicon: plato = socrates."])
def test_save_load_save_byte_identical_after_any_kb_file(lines):
    """A hand-written file is read as if typed: it loads to what a save
    writes back, or it is refused."""
    with tempfile.TemporaryDirectory() as tmp:
        script, first, second = (os.path.join(tmp, name)
                                 for name in ("0.kb", "1.kb", "2.kb"))
        with open(script, "w", encoding="utf-8") as fh:
            fh.writelines(line + "\n" for line in lines)
        try:
            session = load_kb(script)
        except LoadError:
            return
        save_kb(session, first)
        save_kb(load_kb(first), second)
        with open(first, "rb") as a, open(second, "rb") as b:
            assert a.read() == b.read()


def test_blank_and_comment_lines_of_a_kb_file_are_skipped(tmp_path):
    statements = ["Socrates is a man.", 'All men are mortal.  # see "#2"']
    path = tmp_path / "commented.kb"
    path.write_text(f"   # an indented comment\n{statements[0]}\n\t\n"
                    f"{statements[1]}\n")
    typed = Session()
    for line in statements:
        typed.assert_line(line)
    loaded = load_kb(str(path))
    assert list(loaded.kb.items()) == list(typed.kb.items())
    save_kb(typed, str(tmp_path / "typed.kb"))
    save_kb(loaded, str(tmp_path / "loaded.kb"))
    assert (tmp_path / "loaded.kb").read_text() \
        == (tmp_path / "typed.kb").read_text()


def test_late_lexicon_entry_in_a_file_is_refused_at_its_line(tmp_path,
                                                              monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "late.kb").write_text(
        "Plato is a philosopher.\nlexicon: plato = socrates.\n")
    with pytest.raises(LoadError) as err:
        load_kb("late.kb")
    assert err.value.line_no == 2
    message = ("late.kb:2: lexicon entry would change "
               "'Plato is a philosopher.' at offset 0")
    assert str(err.value) == message
    _, out = run_repl(":load late.kb\n")
    assert out == f"error: {message}\n"


@pytest.mark.parametrize("stored, entry, question", [
    ("Some astronauts are socrates.", "lexicon: socrates = astronauts.",
     "Are any astronauts socrates?"),
    ("Plato is a philosopher.", "lexicon: plato = socrates.",
     "Is Plato a philosopher?"),
    ("Bob is a man.", "lexicon: bob = big bob.", "Is Bob a man?"),
])
def test_refused_lexicon_entry_leaves_the_session_unchanged(
        stored, entry, question, tmp_path):
    path = tmp_path / "s.kb"
    _, out = run_repl(f"{stored}\n{entry}\n{question}\n:save {path}\n"
                      f":load {path}\n{question}\n")
    lines = out.splitlines()
    assert lines[0] == "ok #1"
    assert lines[1].startswith("error: ")
    assert lines[2:] == ["yes (proven)", "ok #1", "ok #1", "yes (proven)"]
    assert path.read_text() == stored + "\n"  # no lexicon line


# -- the cli ---------------------------------------------------------------

def test_ask_exit_zero_and_output(moon_path, capsys):
    assert cli.main(["ask", MOON_Q, "--kb", moon_path, "--trace"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("unknown (plausible)\n")
    assert "suggested: yes" in out


def test_ask_twice_byte_identical(moon_path, capsys):
    cli.main(["ask", MOON_Q, "--kb", moon_path, "--trace"])
    first = capsys.readouterr().out
    cli.main(["ask", MOON_Q, "--kb", moon_path, "--trace"])
    assert capsys.readouterr().out == first


def test_ask_parse_error_exit_one(moon_path, capsys):
    assert cli.main(["ask", "Why moon?", "--kb", moon_path]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_ask_missing_kb_exit_one(tmp_path, capsys):
    missing = str(tmp_path / "nope.kb")
    assert cli.main(["ask", "Is Socrates a man?", "--kb", missing]) == 1


def test_non_utf8_kb_is_an_error_not_a_traceback(tmp_path):
    path = tmp_path / "bad.kb"
    path.write_bytes(b"Socrates is a man.\nAll men are \xff.\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.dirname(os.path.dirname(qa.__file__)),
                      env.get("PYTHONPATH")]))
    for argv in (["ask", "Is Socrates a man?"], ["check"], ["repl"]):
        proc = subprocess.run(
            [sys.executable, "-m", "exigraph.cli", *argv, "--kb", str(path)],
            input="", capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 1, argv
        assert proc.stderr.startswith(f"error: {path}:2: "), proc.stderr
        assert "Traceback" not in proc.stderr
    _, out = run_repl(f":load {path}\n")
    assert out.startswith(f"error: {path}:2: ")


def test_check_clean_kb(moon_path, capsys):
    assert cli.main(["check", "--kb", moon_path]) == 0
    assert "no contradictions" in capsys.readouterr().out


def test_check_contradiction_exit_two(tmp_path, capsys):
    path = tmp_path / "contra.kb"
    path.write_text("All men are mortal.\nSome men are not mortal.\n")
    assert cli.main(["check", "--kb", str(path)]) == 2
    assert "contradiction" in capsys.readouterr().out
