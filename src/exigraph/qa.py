"""Question answering: staged evaluation over a session.

Stage 1 reads only the asked item: the stored membership of an is-a
question, or the stored edge of a did/have question (its own, or that of a
known member of the asked subject); a definite result is Proven.  Stage 2
asks :func:`~exigraph.syllogistics.entails` whether every model of the
stored propositions and memberships settles the question, and every other
definite verdict comes from here: if one verdict is entailed the answer is
Proven, and if both are the KB contradicts itself and the answer is
UNKNOWN, naming the witness that clashes.  Stage 3 applies the defeasible
rules and abduces memberships; any support found this way leaves the
verdict UNKNOWN but marks the answer Plausible, with the suggested answer
and the full evidence trail in the trace.  A definite verdict is therefore
never backed by an abduced step: the engine does not decide where it could
decide wrongly, and a human reading the trace upgrades plausibility to
belief.  :func:`answer` is the one place where this stage order lives;
each question kind lists its stages.  No stage writes to the KB: a
question leaves the KB and its revision as they were.

Multi-word noun phrases are linked to their head noun ("american
astronauts" are astronauts) with DEDUCED provenance when asserted, which
is what lets set-level evidence answer questions about broader sets.
"""

from __future__ import annotations

import codecs
import contextlib
import itertools
import os
from dataclasses import dataclass, field
from typing import Callable, Optional

from . import lang
from .abduction import candidate, premise_verbs, rule_edges
from .agency import fire_triggers
from .kb import (ASSERTED, Entity, KbError, Kind, KnowledgeBase, Provenance,
                 settled, stated)
from .logic3 import TRUE, FALSE, UNKNOWN, Value3
from .syllogistics import CONTRADICTORY, entails, subset_of

PROVEN = "proven"
PLAUSIBLE = "plausible"


@dataclass(frozen=True)
class TraceStep:
    op: str
    detail: str
    provenance: str  # asserted / deduced / abduced / hypothesis

    def render(self) -> str:
        return f"[{self.provenance}] {self.op}: {self.detail}"


@dataclass
class Answer:
    verdict: Value3
    modality: Optional[str]  # PROVEN / PLAUSIBLE / None
    trace: list[TraceStep] = field(default_factory=list)
    suggestion: Optional[Value3] = None

    def render(self) -> str:
        word = str(self.verdict)
        return f"{word} ({self.modality})" if self.modality else word


@dataclass
class Session:
    """One dialogue: a KB plus lexicon, rules, triggers and flags.

    Triggers fire, and are saved, in the order they were declared.
    """

    kb: KnowledgeBase = field(default_factory=KnowledgeBase)
    lexicon: lang.Lexicon = lang.DEFAULT_LEXICON
    rules: list[lang.RuleStmt] = field(default_factory=list)
    triggers: list[lang.TriggerStmt] = field(default_factory=list)
    existential_import: bool = False
    show_trace: bool = False

    # -- asserting --------------------------------------------------------

    def assert_line(self, line: str) -> tuple[int, list]:
        """Parse and apply one statement line; returns (revision, fired aims).

        The REPL and the CLI apply a typed statement here.
        :func:`load_kb` applies each line of a KB file through
        :meth:`_apply_line`, the same steps without the triggers, since a
        load prints nothing per line.  A refused line raises
        (:class:`~exigraph.lang.ParseError` or
        :class:`~exigraph.kb.KbError`) and leaves the session as it was.
        """
        event = self._apply_line(line)
        aims = fire_triggers(event, self.triggers) if event else []
        return self.kb.revision, aims

    def _apply_line(self, line: str) -> Optional[tuple[str, str, str]]:
        """Parse and apply one statement line; returns the (subject, verb,
        object) an SPO statement states, for the triggers, else None.

        A lexicon entry is refused when :meth:`~exigraph.lang.Lexicon.add`
        refuses it (some phrase would rewrite forever, to two normal forms
        or to too many words), or when a stored statement would read back
        as another one, or be refused: a saved file lists the lexicon
        first.  Each stored line is parsed once, under the new lexicon,
        and compared with the statement it was rendered from; under the
        current lexicon it reads as that statement, since every stored
        term is a normal form.
        """
        ast = lang.parse_statement(line, self.lexicon)
        if isinstance(ast, lang.LexiconStmt):
            try:
                trial = self.lexicon.add(ast.surface, ast.canonical)
            except ValueError as exc:
                raise lang.ParseError(str(exc)) from exc
            for line, statement in _stored_lines(self):
                with contextlib.suppress(lang.ParseError):  # or refuses it
                    if lang.parse_statement(line, trial) == statement:
                        continue
                raise lang.ParseError(f"lexicon entry would change {line!r}")
            self.lexicon = trial
        elif isinstance(ast, lang.RuleStmt):
            if ast not in self.rules:
                self.rules.append(ast)
        elif isinstance(ast, lang.TriggerStmt):
            self.triggers.append(ast)
        elif isinstance(ast, lang.MembershipStmt):
            elem = self.kb.upsert_entity(ast.proper)
            set_ = self.kb.upsert_entity(ast.set_)
            item = self.kb.assert_membership(elem, set_, TRUE, ASSERTED)
            self._head_link(set_, item)
        elif isinstance(ast, lang.CategoricalStmt):
            # checked before any upsert, so a rejected line adds no entity
            if ast.subject == ast.predicate:
                raise KbError("trivial self-proposition rejected")
            subj = self.kb.upsert_entity(ast.subject)
            pred = self.kb.upsert_entity(ast.predicate)
            item = self.kb.assert_proposition(ast.form, subj, pred, TRUE, ASSERTED)
            self._head_link(subj, item)
            self._head_link(pred, item)
        else:  # lang.SpoStmt, the last kind of statement
            subj = self.kb.upsert_entity(ast.subject)
            obj = self.kb.upsert_entity(ast.obj)
            item = self.kb.assert_edge(ast.verb, subj, obj, TRUE, ASSERTED)
            self._head_link(subj, item)
            self._head_link(obj, item)
            return subj.label, ast.verb, obj.label
        return None

    def _head_link(self, phrase: Entity, source: Optional[str]) -> None:
        """A multi-word noun phrase denotes a subset of its head noun."""
        words = phrase.label.split()
        if len(words) < 2 or source is None:
            return
        head = self.kb.upsert_entity(words[-1])
        if self.kb.proposition("A", phrase, head) is None:
            self.kb.assert_proposition("A", phrase, head, TRUE,
                                       Provenance(Kind.DEDUCED, (source,)))

    # -- asking -----------------------------------------------------------

    def ask_line(self, line: str) -> Answer:
        return answer(lang.parse_question(line, self.lexicon), self)


def answer(q: lang.Question, session: Session) -> Answer:
    """Answer one question by the first of its kind's stages that settles
    it; each stage gets the statement the question asks.

    Is-a: lookup, entailment, conjecture.  Are-all/are-any: entailment,
    conjecture.  Did/have: lookup, conjecture (edges are not categorical).
    An unknown entity answers UNKNOWN at once.  Nothing is written to the
    KB, so a question never moves the revision.
    """
    asks = q.asks
    if isinstance(asks, lang.MembershipStmt):
        labels = asks.proper, asks.set_
        stages = (_membership_lookup, _membership_entailment,
                  _membership_conjecture)
    elif isinstance(asks, lang.CategoricalStmt):
        # no categorical proposition relates a term to itself
        if asks.subject == asks.predicate:
            return Answer(UNKNOWN, None)
        labels = asks.subject, asks.predicate
        stages = _categorical_entailment, _categorical_conjecture
    else:  # lang.SpoStmt
        labels = asks.subject, asks.obj
        stages = _edge_lookup, _edge_conjecture
    a, b = session.kb.entity(labels[0]), session.kb.entity(labels[1])
    if a is None or b is None:
        return Answer(UNKNOWN, None)
    for stage in stages:
        found = stage(session, asks, a, b)
        if found is not None:
            return found
    return Answer(UNKNOWN, None)


def _proven(verdict: Value3, trace: list[TraceStep]) -> Answer:
    return Answer(verdict, PROVEN, trace)


def _plausible(trace: list[TraceStep], suggestion: Value3) -> Answer:
    return Answer(UNKNOWN, PLAUSIBLE, trace, suggestion)


def _proposition_kind(kb: KnowledgeBase, form: str, s: Entity, p: Entity
                      ) -> Kind:
    """Provenance kind of the stored proposition; DEDUCED when none is
    stored and only entailment supports it."""
    stored = kb.proposition(form, s, p)
    return stored.provenance.kind if stored else Kind.DEDUCED


def _contradiction(description: str) -> Answer:
    """Both verdicts are entailed, so the KB contradicts itself: say where."""
    return Answer(UNKNOWN, None, [TraceStep("witness", description,
                                            Kind.DEDUCED.value)])


# -- is-a questions -------------------------------------------------------

def _membership_lookup(session: Session, q: lang.MembershipStmt, x: Entity,
                       s: Entity) -> Optional[Answer]:
    item = session.kb.membership(x, s)
    if item is None or not settled(item):
        return None
    return _proven(item.value, [TraceStep(
        "membership", f"{x.label} in {s.label} = {item.value}",
        item.provenance.kind.value)])


def _membership_entailment(session: Session, q: lang.MembershipStmt,
                           x: Entity, s: Entity) -> Optional[Answer]:
    """x's own memberships and the A/E implications settle it.  The trace
    names the first of x's sets whose relation to ``s`` carries the
    verdict: TRUE ones first, those whose A (or E) to ``s`` is stored
    before those where it is only entailed, then FALSE ones, each group in
    label order."""
    kb = session.kb
    yes, no = entails(kb, "in", x, s), entails(kb, "out", x, s)
    if yes and no:
        return _contradiction(yes)
    if not (yes or no):
        return None
    verdict = TRUE if yes else FALSE
    universal = "A" if yes else "E"

    def cited_first(mem) -> int:
        if mem.value is not TRUE:
            return 2
        stored = kb.proposition(universal, kb.by_id(mem.set_), s)
        return 0 if stored is not None and stated(stored) else 1

    for mem in sorted(kb.memberships(x), key=cited_first):
        if mem.set_ == s.id or not settled(mem):
            continue
        t = kb.by_id(mem.set_)
        if mem.value is TRUE:  # all t are s, or no t are s
            form, subject, predicate = universal, t, s
        elif no:  # x is not a t, and all s are t
            form, subject, predicate = "A", s, t
        else:
            continue
        if entails(kb, form, subject, predicate):
            reads = lang.READS[form].format(subject.label, predicate.label)
            return _proven(verdict, [
                TraceStep("membership", f"{x.label} in {t.label} = {mem.value}",
                          mem.provenance.kind.value),
                TraceStep("proposition", reads, _proposition_kind(
                    kb, form, subject, predicate).value),
            ])
    # x has no membership to cite: s itself can have no members
    return _proven(verdict, [TraceStep("witness", no, Kind.DEDUCED.value)])


def _membership_conjecture(session: Session, q: lang.MembershipStmt,
                           x: Entity, s: Entity) -> Optional[Answer]:
    kb = session.kb
    hyp = candidate([x], s, kb)
    if hyp is not None:
        return _plausible([
            TraceStep("hypothesis",
                      f"{x.label} may be in {s.label} "
                      f"(shared properties: {hyp.score[0]}, "
                      f"members: {hyp.score[1]})", "hypothesis"),
            TraceStep("evidence", ", ".join(hyp.evidence), "abduced"),
        ], TRUE)
    item = kb.membership(x, s)
    if item is not None and item.provenance.kind is Kind.ABDUCED:
        return _plausible([TraceStep(
            "membership", f"{x.label} in {s.label} conjectured",
            "abduced")], TRUE)
    return None


# -- categorical questions ------------------------------------------------

def _categorical_entailment(session: Session, q: lang.CategoricalStmt,
                            s: Entity, p: Entity) -> Optional[Answer]:
    kb, existential_import = session.kb, session.existential_import
    form, contrary = q.form, CONTRADICTORY[q.form]
    yes = entails(kb, form, s, p, existential_import)
    no = entails(kb, contrary, s, p, existential_import)
    if yes and no:
        # the I or O check read every witness: it names the one that clashes
        return _contradiction(no if form == "A" else yes)
    if not (yes or no):
        return None
    verdict = TRUE if yes else FALSE
    return _proven(verdict, [TraceStep(
        "proposition", f"{lang.READS[form].format(s.label, p.label)} "
                       f"= {verdict}",
        _proposition_kind(kb, form, s, p).value)])


def _categorical_conjecture(session: Session, q: lang.CategoricalStmt,
                            s: Entity, p: Entity) -> Optional[Answer]:
    kb = session.kb
    hyp = candidate((kb.by_id(m.element) for m in kb.members(s)
                     if m.value is TRUE), p, kb)
    if hyp is None:
        return None
    return _plausible([TraceStep(
        "hypothesis", f"{hyp.element.label} may be in {p.label}",
        "hypothesis")], TRUE)


# -- spo questions --------------------------------------------------------

def _edge_lookup(session: Session, q: lang.SpoStmt, s: Entity, o: Entity
                 ) -> Optional[Answer]:
    kb, verb = session.kb, q.verb
    edge = kb.edge(verb, s, o)
    if edge is not None and settled(edge):
        return _proven(edge.value, [TraceStep(
            "edge", f"{s.label} {verb} {o.label} = {edge.value}",
            edge.provenance.kind.value)])
    # a known member of s did it: the distributive reading is proven
    for edge in kb.edges_into(o, verb):
        if not stated(edge):
            continue
        actor = kb.by_id(edge.from_)
        mem = kb.membership(actor, s)
        if mem is not None and stated(mem):
            return _proven(TRUE, [
                TraceStep("edge", f"{actor.label} {verb} {o.label} = yes",
                          edge.provenance.kind.value),
                TraceStep("membership", f"{actor.label} in {s.label} = yes",
                          mem.provenance.kind.value),
            ])
    return None


def _edge_conjecture(session: Session, q: lang.SpoStmt, s: Entity,
                     o: Entity) -> Optional[Answer]:
    """Look for an actor linked to the asked subject, through stored edges
    and the edges the rules would conclude; actors are tried in label
    order.

    A rule keeps an edge's subject and object, so the rules draw from each
    actor's edges into ``o`` on their own, and only for an actor with a
    link.  They draw only from the verbs that reach the asked one
    (:func:`~exigraph.abduction.premise_verbs`), read per verb from
    ``kb.edges_into`` and kept in verb order, the order that decides which
    premise a drawn edge cites.  Whether all of an actor are the asked
    subject is read off one walk for the whole question
    (:func:`~exigraph.syllogistics.subset_of`)."""
    kb = session.kb
    into = sorted(itertools.chain.from_iterable(
        kb.edges_into(o, verb)
        for verb in sorted(premise_verbs(session.rules, q.verb))),
        key=lambda e: kb.label(e.from_))
    within = subset_of(kb, s)
    for actor_id, own in itertools.groupby(into, key=lambda e: e.from_):
        actor = kb.by_id(actor_id)
        link = _subject_link(kb, actor, s, within)
        if link is None:
            continue
        own = list(own)
        for edge in own + rule_edges(session.rules, own):
            abduced_here = edge.provenance.kind is Kind.ABDUCED
            if edge.name != q.verb or edge.value is FALSE \
                    or (actor.id == s.id and not abduced_here):
                continue  # the last was handled by direct lookup
            trace = [TraceStep("edge",
                               f"{actor.label} {q.verb} {o.label}"
                               + (" (conjectured)" if abduced_here
                                  else " = yes"),
                               edge.provenance.kind.value),
                     link,
                     TraceStep("hypothesis",
                               f"some {s.label} {q.verb} {o.label}",
                               "hypothesis")]
            return _plausible(trace, TRUE)
    return None


def _subject_link(kb: KnowledgeBase, actor: Entity, s: Entity,
                  within: Callable[[Entity], bool]) -> Optional[TraceStep]:
    """How the acting entity relates to the asked-about set, if at all;
    ``within`` tests whether all of an entity are ``s``."""
    if actor.id == s.id:
        return TraceStep("identity", f"{actor.label} is the asked subject",
                         "asserted")
    mem = kb.membership(actor, s)
    if mem is not None and mem.value is not FALSE:
        return TraceStep("membership", f"{actor.label} in {s.label}",
                         mem.provenance.kind.value)
    if within(actor):
        return TraceStep("proposition",
                         lang.READS["A"].format(actor.label, s.label),
                         _proposition_kind(kb, "A", actor, s).value)
    return None


# -- persistence ----------------------------------------------------------

class LoadError(Exception):
    def __init__(self, path: str, line_no: int, cause: Exception):
        self.line_no = line_no
        super().__init__(f"{path}:{line_no}: {cause}")


def _stored_lines(session: Session) -> list[tuple[str, lang.StatementAst]]:
    """Everything a saved file holds after the lexicon, as (line,
    statement) pairs: each line is the statement rendered.

    Order is deterministic: rules alphabetical, triggers in the order they
    were declared, then memberships, categorical propositions and SPO
    edges, each group alphabetical.  Only asserted, language-expressible
    content is written; deduced and abduced items are recomputed on demand
    after a load.
    """
    kb, label = session.kb, session.kb.label
    lines = [(lang.render(rule), rule)
             for rule in sorted(session.rules, key=lambda r: (r.premise_verb,
                                                              r.conclusion_verb))]
    lines += [(lang.render(trig), trig) for trig in session.triggers]
    # each entity's rows come unsorted, so each group is sorted once
    own = [kb.rows(entity) for entity in kb.entities()]
    groups = [
        ((m for ms, _ in own for m in ms), lambda m: lang.MembershipStmt(
            label(m.element), label(m.set_))),
        (kb.propositions(), lambda p: lang.CategoricalStmt(
            p.form, label(p.subject), label(p.predicate))),
        ((e for _, es in own for e in es), lambda e: lang.SpoStmt(
            label(e.from_), e.name, label(e.to))),
    ]
    for rows, statement in groups:
        stored = (statement(item) for item in rows
                  if item.provenance.kind is Kind.ASSERTED
                  and item.value is TRUE)
        lines += sorted(((lang.render(ast), ast) for ast in stored),
                        key=lambda pair: pair[0])
    return lines


def save_kb(session: Session, path: str) -> int:
    """Write the lexicon's :meth:`~exigraph.lang.Lexicon.entries`, then
    :func:`_stored_lines`, to a temp file beside ``path`` and rename it
    over ``path``: a failed save leaves the old file."""
    lines = [lang.render(lang.LexiconStmt(*entry))
             for entry in session.lexicon.entries()]
    lines += [line for line, _ in _stored_lines(session)]
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(line + "\n" for line in lines)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return session.kb.revision


def load_kb(path: str) -> Session:
    """Read a KB file as a script: every line that is not blank or a
    comment is applied to a fresh session as :meth:`Session.assert_line`
    applies a typed line, so a file is refused where the REPL would refuse
    the line; no trigger fires.  Atomic (a bad line leaves nothing
    loaded); the error names the first bad line.  A leading UTF-8
    byte-order mark is dropped."""
    with open(path, "rb") as fh:
        # dropped before decoding, so a bad byte's offset counts lines in
        # ``data``; "utf-8-sig" would give it an offset that skips the mark
        data = fh.read().removeprefix(codecs.BOM_UTF8)
    try:
        raw = data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise LoadError(path, data.count(b"\n", 0, exc.start) + 1, exc) from exc
    session = Session()
    for line_no, line in enumerate(raw, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            session._apply_line(line)
        except Exception as exc:
            raise LoadError(path, line_no, exc) from exc
    return session
