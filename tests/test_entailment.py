"""Answers checked against the exact model oracle.

Random small KBs (3 terms, 2 individuals, 1-4 statements) are typed into a
session and every is-a, are-all and are-any question is asked.  Soundness
is a hard gate: a ``yes (proven)`` or ``no (proven)`` must hold in every
model of the statements.  The completeness gap is printed: the entailed
answers that still come back ``unknown``.  So is the number of proven
answers on KBs with no model, which hold only vacuously; a KB that entails
both verdicts should answer ``unknown``, so this number should go down.

The reaches the KB keeps between A/E writes are checked differentially:
a live session that takes writes and questions in turn must answer as a
session rebuilt from the same writes, and its I/O checks as a walk of
every witness over the graph with the denial.
"""

import itertools
import random

import pytest

from exigraph import cli
from exigraph.kb import Kind, KnowledgeBase, Provenance, clauses
from exigraph.lang import READS
from exigraph.logic3 import FALSE, TRUE, UNKNOWN
from exigraph.qa import PROVEN, Session
from exigraph.syllogistics import (_reach, closure, contradictions,
                                   entails, inconsistency, subset_of)

from oracles import oracle_entailment

TERMS = ["ka", "kb", "kc"]
INDIVIDUALS = ["socrates", "plato"]
QUESTIONS = ([("is", x, s) for x in INDIVIDUALS for s in TERMS]
             + [(kind, s, p) for kind in ("all", "any")
                for s, p in itertools.permutations(TERMS, 2)])
CATEGORICAL = {"A": "All {} are {}.", "E": "No {} are {}.",
               "I": "Some {} are {}.", "O": "Some {} are not {}."}
ASK = {"is": "Is {} a {}?", "all": "Are all {} {}?", "any": "Are any {} {}?"}


def _random_statements(rng):
    """1-4 statements; an individual's membership of a term is stated once
    (``out`` has no sentence, so the test writes it through the KB)."""
    out, placed = [], set()
    while len(out) < rng.randint(1, 4):
        form = rng.choice(["A", "E", "I", "O"] * 2 + ["in", "out"])
        if form in ("in", "out"):
            pair = (rng.choice(INDIVIDUALS), rng.choice(TERMS))
            if pair in placed:
                continue
            placed.add(pair)
            out.append((form, *pair))
        else:
            out.append((form, *rng.sample(TERMS, 2)))
    return out


def _session(statements, existential_import):
    session = Session(existential_import=existential_import)
    kb = session.kb
    for form, a, b in statements:
        if form == "in":
            session.assert_line(f"{a} is a {b}.")
        elif form == "out":
            kb.assert_membership(kb.upsert_entity(a), kb.upsert_entity(b),
                                 FALSE)
        else:
            session.assert_line(CATEGORICAL[form].format(a, b))
    return session


def _survey(existential_import, kbs=300, seed=11):
    """(unsound, proven, entailed, gap, gap naming an unknown entity,
    KBs with no model, proven answers on them)"""
    rng = random.Random(seed)
    unsound, proven, entailed, gap, unmentioned = [], 0, 0, 0, 0
    no_model, vacuous = 0, 0
    for _ in range(kbs):
        statements = _random_statements(rng)
        session = _session(statements, existential_import)
        truth = oracle_entailment(TERMS, INDIVIDUALS, statements, QUESTIONS,
                                  existential_import)
        revision = session.kb.revision
        no_model += truth is None
        for question in QUESTIONS:
            kind, a, b = question
            ans = session.ask_line(ASK[kind].format(a, b))
            assert session.kb.revision == revision
            got = None
            if ans.modality == PROVEN:
                got = "yes" if ans.verdict is TRUE else "no"
                proven += 1
            if truth is None:
                vacuous += got is not None
                continue  # no model: every verdict holds vacuously
            if got is not None and got != truth[question]:
                unsound.append((statements, question, got))
            if truth[question] != "open":
                entailed += 1
                if got is None:
                    gap += 1
                    if session.kb.entity(a) is None \
                            or session.kb.entity(b) is None:
                        unmentioned += 1
    return unsound, proven, entailed, gap, unmentioned, no_model, vacuous


@pytest.mark.parametrize("existential_import", [False, True])
def test_answers_sound_and_complete_against_the_model_oracle(
        existential_import, capsys):
    unsound, proven, entailed, gap, unmentioned, no_model, vacuous = \
        _survey(existential_import)
    with capsys.disabled():
        print(f"\nentailment vs oracle (import "
              f"{'on' if existential_import else 'off'}, 300 KBs): "
              f"{len(unsound)} unsound of {proven} proven; "
              f"{gap} of {entailed} entailed answers unknown, "
              f"{unmentioned} of them naming an entity no statement mentions; "
              f"{vacuous} proven on the {no_model} KBs with no model")
    assert unsound == []
    # an unknown entity answers unknown at once; every other entailed
    # answer is proven
    assert gap == unmentioned


def test_check_flags_exactly_the_kbs_with_no_model():
    """``check`` runs closure, then reports contradictions: it must find
    one on every KB the oracle finds no model for, and on no other."""
    rng = random.Random(11)
    for _ in range(300):
        statements = _random_statements(rng)
        session = _session(statements, False)
        no_model = oracle_entailment(TERMS, INDIVIDUALS, statements,
                                     QUESTIONS, False) is None
        closure(session.kb)
        assert bool(contradictions(session.kb)) == no_model, statements


def test_check_reports_a_kb_with_no_model(tmp_path, capsys):
    path = tmp_path / "clash.kb"
    path.write_text("Some ka are kc.\nAll kc are kb.\nNo kb are kc.\n")
    assert cli.main(["check", "--kb", str(path)]) == 2
    assert capsys.readouterr().out.splitlines() == [
        "closure added 4 propositions",
        "contradiction: some ka are kc reaches kb and not kb"]


def test_no_question_changes_the_revision():
    session = Session()
    for line in ("lexicon: fly to = flew to.", "lexicon: been to = was at.",
                 "rule: X flew to Y => X was at Y.", "Socrates is a man.",
                 "All men are mortal.", "Some mortal are greek.",
                 "Socrates flew to the moon."):
        session.assert_line(line)
    revision, items = session.kb.revision, len(list(session.kb.items()))
    for question in ("Is Socrates a mortal?", "Is Socrates a greek?",
                     "Are all men mortal?", "Are any greek man?",
                     "Are any man greek?", "Did Socrates fly to the moon?",
                     "Have men been to the moon?",
                     "Did mortal fly to the moon?"):
        session.ask_line(question)
        assert session.kb.revision == revision, question
    assert len(list(session.kb.items())) == items


# -- entails on its own ----------------------------------------------------

def _kb(*statements):
    kb = KnowledgeBase()
    for form, a, b in statements:
        if form in ("in", "out"):
            kb.assert_membership(kb.upsert_entity(a), kb.upsert_entity(b),
                                 TRUE if form == "in" else FALSE)
        else:
            kb.assert_proposition(form, kb.upsert_entity(a),
                                  kb.upsert_entity(b), TRUE)
    return kb, kb.entity


def test_entails_names_the_clash_that_proves_it():
    kb, e = _kb(("A", "a", "b"), ("A", "b", "c"))
    assert entails(kb, "A", e("a"), e("c")) \
        == "some a are not c reaches a and not a"
    assert entails(kb, "A", e("c"), e("a")) is None


def test_entails_conversion_emptiness_and_derived_witnesses():
    kb, e = _kb(("I", "a", "b"))
    assert entails(kb, "I", e("b"), e("a"))
    kb, e = _kb(("E", "b", "c"), ("A", "c", "b"), ("in", "x", "a"))
    assert entails(kb, "A", e("c"), e("a"))  # nothing is a c
    assert entails(kb, "out", e("x"), e("c"))
    kb, e = _kb(("in", "x", "a"), ("A", "a", "b"))
    assert entails(kb, "I", e("a"), e("b"))
    assert entails(kb, "I", e("b"), e("a"))


def test_entails_reads_false_memberships_as_negative_units():
    kb, e = _kb(("out", "x", "b"), ("A", "a", "b"))
    assert entails(kb, "out", e("x"), e("a"))
    assert entails(kb, "in", e("x"), e("a")) is None


def test_one_walk_answers_each_all_question_as_entails_does():
    # a did-question asks "all t are s" for every actor t: subset_of
    # answers them all from one walk, and must agree with entails, also on
    # KBs with no model
    rng = random.Random(5)
    terms, individuals = ["k0", "k1", "k2", "k3", "k4"], ["x", "y"]
    no_model = 0
    for _ in range(400):
        statements = []
        for _ in range(rng.randint(1, 8)):
            form = rng.choice("AAEEIO" + "io")
            if form in "io":
                statements.append(("in" if form == "i" else "out",
                                   rng.choice(individuals), rng.choice(terms)))
            else:
                statements.append((form, *rng.sample(terms, 2)))
        kb, _ = _kb(*statements)
        no_model += inconsistency(kb) is not None
        for s in kb.entities():
            # no clause leads from "not s" to a positive literal
            assert _reach(kb.implications(), [(s.id, False)])[1] is None
            within = subset_of(kb, s)
            for t in kb.entities():
                assert within(t) == (entails(kb, "A", t, s) is not None), \
                    (statements, t.label, s.label)
    assert no_model > 0


def test_existential_import_makes_every_set_a_witness():
    kb, e = _kb(("A", "a", "b"))
    assert entails(kb, "I", e("a"), e("b")) is None
    assert entails(kb, "I", e("a"), e("b"), existential_import=True)
    kb, e = _kb(("A", "a", "b"), ("E", "a", "b"))
    assert entails(kb, "O", e("b"), e("a")) is None
    assert entails(kb, "O", e("b"), e("a"), existential_import=True) \
        == "some a reaches b and not b"


def test_abduced_and_unknown_items_never_enter():
    kb, e = _kb(("A", "a", "b"))
    kb.assert_membership(kb.upsert_entity("x"), e("a"), TRUE,
                         Provenance(Kind.ABDUCED, ("#1",)))
    kb.assert_membership(e("x"), kb.upsert_entity("c"), UNKNOWN)
    assert entails(kb, "in", e("x"), e("b")) is None


def test_a_clash_names_the_lowest_label_of_the_first_clashing_class():
    # zed and bea hold {s, not p}, amy {s, not p, q}: all three clash when
    # "some s are not p" is denied, and the lowest label is named
    kb, e = _kb(("in", "zed", "s"), ("out", "zed", "p"),
                ("in", "bea", "s"), ("out", "bea", "p"),
                ("in", "amy", "s"), ("out", "amy", "p"), ("in", "amy", "q"))
    assert entails(kb, "O", e("s"), e("p")) == "amy reaches p and not p"
    # amy moves to a class that does not clash: the next class is named
    kb.assert_membership(e("amy"), e("p"), TRUE)
    assert entails(kb, "O", e("s"), e("p")) == "bea reaches p and not p"
    # bea, its class's lowest label, leaves it: zed is named
    kb.assert_membership(e("bea"), e("p"), UNKNOWN)
    assert entails(kb, "O", e("s"), e("p")) == "zed reaches p and not p"
    kb.assert_membership(e("zed"), e("s"), FALSE)
    assert entails(kb, "O", e("s"), e("p")) is None
    # with nothing denied, {not s, not p, q} and {s, not p, q} clash
    kb.assert_proposition("A", e("q"), e("p"), TRUE)
    kb.assert_membership(e("zed"), e("q"), TRUE)
    assert inconsistency(kb) == "zed reaches p and not p"
    kb.assert_membership(e("bea"), e("p"), FALSE)
    kb.assert_membership(e("bea"), e("q"), TRUE)
    assert inconsistency(kb) == "bea reaches p and not p"


def test_with_import_a_class_clash_comes_before_an_import_witness():
    # "some s" would clash too, and "some s" < "zed" in label order
    kb, e = _kb(("E", "s", "p"), ("in", "zed", "s"))
    assert entails(kb, "O", e("s"), e("p"), existential_import=True) \
        == "zed reaches p and not p"
    kb.assert_membership(e("zed"), e("s"), UNKNOWN)
    assert entails(kb, "O", e("s"), e("p"), existential_import=True) \
        == "some s reaches p and not p"


def test_a_kb_that_contradicts_itself_answers_unknown_naming_the_witness():
    session = Session()
    for line in ("Some ka are kc.", "All kc are kb.", "No kb are kc."):
        session.assert_line(line)
    ans = session.ask_line("Are all kc ka?")  # both yes and no entailed
    assert ans.render() == "unknown"
    assert [step.render() for step in ans.trace] == [
        "[deduced] witness: some ka are kc reaches kb and not kb"]


# -- stored reaches --------------------------------------------------------

def _walk(graph, units):
    """The first set ``units`` reach both in and out of, or None, walked as
    ``entails`` walks."""
    seen, todo = set(units), list(units)
    while todo:
        set_, inside = todo.pop()
        if (set_, not inside) in seen:
            return set_
        for lit in graph.get((set_, inside), ()):
            if lit not in seen:
                seen.add(lit)
                todo.append(lit)
    return None


def _every_witness_walk(kb, form, s, p, existential_import):
    """``entails`` for I and O with no stored reach: every witness is
    walked over a copy of the graph that holds the denial."""
    graph = dict(kb.implications())
    for src, dst in clauses("E" if form == "I" else "A", s.id, p.id):
        graph[src] = [*graph.get(src, ()), dst]
    witnesses = [(READS[q.form].format(kb.label(q.subject),
                                       kb.label(q.predicate)),
                  [(q.subject, True), (q.predicate, q.form == "I")])
                 for q in kb.particulars()]
    witnesses += sorted((first, list(units))
                        for units, first in kb.unit_classes().items())
    if existential_import:
        witnesses += [(f"some {kb.label(t)}", [(t, True)])
                      for t in sorted({t for t, _ in graph}, key=kb.label)]
    for label, units in witnesses:
        set_ = _walk(graph, units)
        if set_ is not None:
            return f"{label} reaches {kb.label(set_)} and not {kb.label(set_)}"
    return None


def test_a_class_that_loses_its_last_element_drops_its_reach():
    kb = KnowledgeBase()
    x, a, b = (kb.upsert_entity(label) for label in ("x", "a", "b"))
    kb.assert_proposition("A", a, b, TRUE)
    kb.assert_membership(x, a, TRUE)
    in_a = kb.units(x)
    assert inconsistency(kb) is None
    assert set(kb.reaches()) == {in_a}
    # x leaves the class {a} for {a, b}, and {a} has no element left
    kb.assert_membership(x, b, TRUE)
    assert inconsistency(kb) is None
    assert set(kb.reaches()) == {kb.units(x)}
    # a walk that reaches the same units stores them again
    kb.assert_membership(x, b, UNKNOWN)
    assert inconsistency(kb) is None
    assert set(kb.reaches()) == {in_a}


RANDOM_TERMS = [f"k{c}" for c in "abcdefghijkl"]
RANDOM_INDIVIDUALS = ["xa", "xb", "xc"]


def _random_write(rng, terms, universals):
    """One write ``(form, a, b, value)``: an A/E/I/O row, a TRUE or FALSE
    membership, or a new value over an A or E row written before, which
    files the row again or takes it out of the graph."""
    kind = rng.choice("AAAEEIOiiiff=")
    if kind == "=" and universals:
        return (*rng.choice(universals), rng.choice([TRUE, FALSE, UNKNOWN]))
    if kind in "if":
        return ("in", rng.choice(RANDOM_INDIVIDUALS), rng.choice(terms),
                TRUE if kind == "i" else FALSE)
    form = kind if kind in "AEIO" else "A"
    if form in "AE":
        universals.append((form, *rng.sample(terms, 2)))
        return (*universals[-1], TRUE)
    return (form, *rng.sample(terms, 2), TRUE)


def _write(kb, write):
    form, a, b, value = write
    if form == "in":
        kb.assert_membership(kb.entity(a), kb.entity(b), value)
    else:
        kb.assert_proposition(form, kb.entity(a), kb.entity(b), value)


def _rebuilt(terms, writes):
    """A session with every term and individual, mentioned by a row or
    not, and ``writes`` applied in order."""
    session = Session()
    for label in RANDOM_INDIVIDUALS + terms:
        session.kb.upsert_entity(label)
    for write in writes:
        _write(session.kb, write)
    return session


def _checks(session, x, s, p, existential_import):
    """What ``entails`` says of x in s, x out of s and A/E/I/O(s, p)."""
    kb = session.kb
    x, s, p = kb.entity(x), kb.entity(s), kb.entity(p)
    return [entails(kb, form, x if form in ("in", "out") else s,
                    s if form in ("in", "out") else p, existential_import)
            for form in ("in", "out", "A", "E", "I", "O")]


def _said(session, line):
    ans = session.ask_line(line)
    return ans.render(), [step.render() for step in ans.trace]


def test_stored_reaches_answer_as_a_session_rebuilt_fresh():
    # one live session takes writes and questions in turn; after every
    # write it must answer as a session rebuilt from the same writes, and
    # its I and O checks must name the clash that a walk of every witness
    # over the graph with the denial names
    rng = random.Random(25)
    clashed = 0
    for _ in range(60):
        terms = RANDOM_TERMS[:rng.randint(3, 12)]
        writes, universals = [], []
        live = _rebuilt(terms, writes)
        for _ in range(rng.randint(4, 12)):
            writes.append(_random_write(rng, terms, universals))
            _write(live.kb, writes[-1])
            fresh = _rebuilt(terms, writes)
            for _ in range(2):
                x = rng.choice(RANDOM_INDIVIDUALS)
                s, p = rng.sample(terms, 2)
                for existential_import in (False, True):
                    got = _checks(live, x, s, p, existential_import)
                    assert got == _checks(fresh, x, s, p, existential_import), \
                        (writes, x, s, p)
                    kb = live.kb
                    for form, said in zip("IO", got[4:]):
                        assert said == _every_witness_walk(
                            kb, form, kb.entity(s), kb.entity(p),
                            existential_import), (writes, form, s, p)
                        clashed += said is not None
                    live.existential_import = existential_import
                    fresh.existential_import = existential_import
                    for line in (f"Is {x} a {s}?", f"Are all {s} {p}?",
                                 f"Are any {s} {p}?"):
                        assert _said(live, line) == _said(fresh, line), \
                            (writes, line)
                within = [subset_of(session.kb, session.kb.entity(s))
                          for session in (live, fresh)]
                assert [within[0](live.kb.entity(t)) for t in terms] \
                    == [within[1](fresh.kb.entity(t)) for t in terms]
            assert inconsistency(live.kb) == inconsistency(fresh.kb)
    assert clashed > 0
