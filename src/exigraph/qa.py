"""Question answering: staged evaluation over a session.

Stage 1 answers from direct lookups (membership, stored propositions,
relation edges); a definite result is Proven.  Stage 2 runs syllogistic
closure and retries.  Stage 3 applies the defeasible rules and abduces
memberships; any support found this way leaves the verdict UNKNOWN but
marks the answer Plausible, with the suggested answer and the full
evidence trail in the trace.  A definite verdict is therefore never backed
by an abduced step: the engine does not decide where it could decide
wrongly, and a human reading the trace upgrades plausibility to belief.

Singular statements live in the KB as memberships; they are promoted to
propositions over singleton sets only here, when a syllogistic step needs
them.  Multi-word noun phrases are linked to their head noun ("american
astronauts" are astronauts) with DEDUCED provenance when asserted, which
is what lets set-level evidence answer questions about broader sets.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional, Union

from . import lang
from .abduction import DefeasibleRule, abduce_membership, apply_rules
from .agency import Observation, Trigger, fire_triggers
from .kb import ASSERTED, Entity, Kind, KnowledgeBase, Provenance
from .logic3 import TRUE, FALSE, UNKNOWN, Value3
from .syllogistics import (CategoricalProposition, closure, eval_proposition)

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

    Flags are immutable for the duration of a single question.
    """

    kb: KnowledgeBase = field(default_factory=KnowledgeBase)
    lexicon: lang.Lexicon = field(default_factory=lang.Lexicon.with_defaults)
    rules: list[DefeasibleRule] = field(default_factory=list)
    triggers: list[Trigger] = field(default_factory=list)
    existential_import: bool = False
    show_trace: bool = False

    # -- asserting --------------------------------------------------------

    def assert_line(self, line: str) -> tuple[int, list]:
        """Parse and apply one statement line; returns (revision, fired aims)."""
        ast = lang.parse_statement(line, self.lexicon)
        return self.apply_statement(ast)

    def apply_statement(self, ast: lang.StatementAst) -> tuple[int, list]:
        aims: list = []
        if isinstance(ast, lang.LexiconStmt):
            try:
                self.lexicon.add(ast.surface, ast.canonical)
            except ValueError as exc:
                raise lang.ParseError(str(exc)) from exc
        elif isinstance(ast, lang.RuleStmt):
            rule = DefeasibleRule(ast.premise_verb, ast.conclusion_verb)
            if rule not in self.rules:
                self.rules.append(rule)
        elif isinstance(ast, lang.TriggerStmt):
            self.triggers.append(Trigger(len(self.triggers) + 1, "edge",
                                         (ast.subject, ast.verb, ast.obj),
                                         ast.reaction))
        elif isinstance(ast, lang.MembershipStmt):
            elem = self.kb.upsert_entity(ast.proper)
            set_ = self.kb.upsert_entity(ast.set_)
            item = self.kb.assert_membership(elem, set_, TRUE, ASSERTED)
            self._head_link(set_, item)
            aims = fire_triggers(Observation.membership(elem.label, set_.label),
                                 self.triggers)
        elif isinstance(ast, lang.CategoricalStmt):
            subj = self.kb.upsert_entity(ast.subject)
            pred = self.kb.upsert_entity(ast.predicate)
            item = self.kb.assert_proposition(ast.form, subj, pred, TRUE, ASSERTED)
            self._head_link(subj, item)
            self._head_link(pred, item)
        elif isinstance(ast, lang.SpoStmt):
            subj = self.kb.upsert_entity(ast.subject)
            obj = self.kb.upsert_entity(ast.obj)
            item = self.kb.assert_edge(ast.verb, subj, obj, TRUE, ASSERTED)
            self._head_link(subj, item)
            self._head_link(obj, item)
            aims = fire_triggers(Observation.edge(subj.label, ast.verb, obj.label),
                                 self.triggers)
        else:
            raise TypeError(f"not a statement AST: {ast!r}")
        return self.kb.revision, aims

    def _head_link(self, phrase: Entity, source: Optional[str]) -> None:
        """A multi-word noun phrase denotes a subset of its head noun."""
        words = phrase.label.split()
        if len(words) < 2 or source is None:
            return
        head = self.kb.upsert_entity(words[-1])
        if head.id == phrase.id:
            return
        if self.kb.proposition("A", phrase, head) is None:
            self.kb.assert_proposition("A", phrase, head, TRUE,
                                       Provenance(Kind.DEDUCED, (source,)))

    # -- asking -----------------------------------------------------------

    def ask_line(self, line: str) -> Answer:
        return answer(lang.parse_question(line, self.lexicon), self)


def answer(q: lang.QuestionAst, session: Session) -> Answer:
    if isinstance(q, lang.IsAQ):
        return _answer_is_a(q, session)
    if isinstance(q, (lang.AreAllQ, lang.AreAnyQ)):
        return _answer_categorical(q, session)
    if isinstance(q, lang.DidSpoQ):
        return _answer_spo(q, session)
    raise TypeError(f"not a question AST: {q!r}")


def _proven(verdict: Value3, trace: list[TraceStep]) -> Answer:
    return Answer(verdict, PROVEN, trace)


def _plausible(trace: list[TraceStep], suggestion: Value3) -> Answer:
    return Answer(UNKNOWN, PLAUSIBLE, trace, suggestion)


# -- is-a questions -------------------------------------------------------

def _membership_lookup(session: Session, x: Entity, s: Entity
                       ) -> Optional[Answer]:
    kb = session.kb
    item = kb.membership(x, s)
    if item is not None and item.value.is_definite():
        step = TraceStep("membership", f"{x.label} in {s.label} "
                         f"= {item.value}", item.provenance.kind.value)
        if item.provenance.kind is Kind.ABDUCED:
            return None
        return _proven(item.value, [step])
    # singleton promotion: x's known sets feed the categorical store
    for t in kb.entities():
        if kb.exists(x, t) is not TRUE or t.id == s.id:
            continue
        mem = kb.membership(x, t)
        for form, verdict in (("A", TRUE), ("E", FALSE)):
            try:
                prop = CategoricalProposition(form, t, s)
            except ValueError:
                continue
            if eval_proposition(kb, prop) is TRUE:
                stored = kb.proposition(form, t, s)
                prov = stored.provenance.kind if stored else Kind.DEDUCED
                if prov is Kind.ABDUCED:
                    continue
                word = "all" if form == "A" else "no"
                return _proven(verdict, [
                    TraceStep("membership", f"{x.label} in {t.label} = yes",
                              mem.provenance.kind.value),
                    TraceStep("proposition",
                              f"{word} {t.label} are {s.label}",
                              prov.value),
                ])
    return None


def _answer_is_a(q: lang.IsAQ, session: Session) -> Answer:
    kb = session.kb
    x, s = kb.entity(q.proper), kb.entity(q.set_)
    if x is not None and s is not None:
        found = _membership_lookup(session, x, s)
        if found:
            return found
        closure(kb, session.existential_import)
        found = _membership_lookup(session, x, s)
        if found:
            return found
        apply_rules(session.rules, kb)
        for hyp in abduce_membership(x, kb):
            if hyp.proposition.set_.id == s.id:
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
    return Answer(UNKNOWN, None)


# -- categorical questions ------------------------------------------------

def _categorical_lookup(session: Session, form: str, s: Entity, p: Entity
                        ) -> Optional[Answer]:
    kb = session.kb
    prop = CategoricalProposition(form, s, p)
    verdict = eval_proposition(kb, prop)
    if not verdict.is_definite():
        return None
    stored = kb.proposition(form, s, p)
    if stored is not None and stored.provenance.kind is Kind.ABDUCED:
        return None
    prov = stored.provenance.kind if stored else Kind.DEDUCED
    word = {"A": "all", "E": "no", "I": "some", "O": "some-not"}[form]
    return _proven(verdict, [TraceStep(
        "proposition", f"{word} {s.label} are {p.label} = {verdict}",
        prov.value)])


def _answer_categorical(q: Union[lang.AreAllQ, lang.AreAnyQ],
                        session: Session) -> Answer:
    kb = session.kb
    form = "A" if isinstance(q, lang.AreAllQ) else "I"
    s, p = kb.entity(q.subject), kb.entity(q.predicate)
    if s is None or p is None or s.id == p.id:
        return Answer(UNKNOWN, None)
    found = _categorical_lookup(session, form, s, p)
    if found:
        return found
    closure(kb, session.existential_import)
    found = _categorical_lookup(session, form, s, p)
    if found:
        return found
    apply_rules(session.rules, kb)
    trace: list[TraceStep] = []
    for member in kb.members_true(s):
        for hyp in abduce_membership(member, kb):
            if hyp.proposition.set_.id == p.id:
                trace.append(TraceStep(
                    "hypothesis", f"{member.label} may be in {p.label}",
                    "hypothesis"))
                break
        if trace:
            break
    if trace:
        return _plausible(trace, TRUE)
    return Answer(UNKNOWN, None)


# -- spo questions --------------------------------------------------------

def _edge_lookup(session: Session, s: Entity, verb: str, o: Entity
                 ) -> Optional[Answer]:
    kb = session.kb
    edge = kb.edge(verb, s, o)
    if edge is not None and edge.value.is_definite() \
            and edge.provenance.kind is not Kind.ABDUCED:
        return _proven(edge.value, [TraceStep(
            "edge", f"{s.label} {verb} {o.label} = {edge.value}",
            edge.provenance.kind.value)])
    # a known member of s did it: the distributive reading is proven
    for edge in kb.edges():
        if edge.name != verb or edge.to != o.id or edge.value is not TRUE:
            continue
        if edge.provenance.kind is Kind.ABDUCED:
            continue
        actor = kb.by_id(edge.from_)
        mem = kb.membership(actor, s)
        if mem is not None and mem.value is TRUE \
                and mem.provenance.kind is not Kind.ABDUCED:
            return _proven(TRUE, [
                TraceStep("edge", f"{actor.label} {verb} {o.label} = yes",
                          edge.provenance.kind.value),
                TraceStep("membership", f"{actor.label} in {s.label} = yes",
                          mem.provenance.kind.value),
            ])
    return None


def _answer_spo(q: lang.DidSpoQ, session: Session) -> Answer:
    kb = session.kb
    s, o = kb.entity(q.subject), kb.entity(q.obj)
    if s is None or o is None:
        return Answer(UNKNOWN, None)
    found = _edge_lookup(session, s, q.verb, o)
    if found:
        return found
    closure(kb, session.existential_import)
    found = _edge_lookup(session, s, q.verb, o)
    if found:
        return found
    apply_rules(session.rules, kb)
    # look for a (possibly abduced) actor linked to the asked subject
    for edge in kb.edges():
        if edge.name != q.verb or edge.to != o.id or edge.value is FALSE:
            continue
        actor = kb.by_id(edge.from_)
        link = _subject_link(kb, actor, s)
        if link is None:
            continue
        abduced_here = edge.provenance.kind is Kind.ABDUCED
        if not abduced_here and link.provenance == "asserted" \
                and actor.id == s.id:
            continue  # already handled by direct lookup
        trace = [TraceStep("edge",
                           f"{actor.label} {q.verb} {o.label}"
                           + (" (conjectured)" if abduced_here else " = yes"),
                           edge.provenance.kind.value),
                 link,
                 TraceStep("hypothesis",
                           f"some {s.label} {q.verb} {o.label}",
                           "hypothesis")]
        return _plausible(trace, TRUE)
    return Answer(UNKNOWN, None)


def _subject_link(kb: KnowledgeBase, actor: Entity, s: Entity
                  ) -> Optional[TraceStep]:
    """How the acting entity relates to the asked-about set, if at all."""
    if actor.id == s.id:
        return TraceStep("identity", f"{actor.label} is the asked subject",
                         "asserted")
    mem = kb.membership(actor, s)
    if mem is not None and mem.value is not FALSE:
        return TraceStep("membership", f"{actor.label} in {s.label}",
                         mem.provenance.kind.value)
    try:
        prop = CategoricalProposition("A", actor, s)
    except ValueError:
        return None
    if eval_proposition(kb, prop) is TRUE:
        stored = kb.proposition("A", actor, s)
        prov = stored.provenance.kind if stored else Kind.DEDUCED
        return TraceStep("proposition", f"all {actor.label} are {s.label}",
                         prov.value)
    return None


# -- persistence ----------------------------------------------------------

class LoadError(Exception):
    def __init__(self, path: str, line_no: int, cause: Exception):
        self.line_no = line_no
        super().__init__(f"{path}:{line_no}: {cause}")


def save_kb(session: Session, path: str) -> int:
    """Serialize the asserted content as controlled-language lines.

    A temp file beside ``path`` is written, then renamed over it, so a
    save that fails part-way leaves the previous file as it was.

    Order is deterministic: lexicon, rules, triggers, memberships,
    categorical propositions, SPO edges, each group alphabetical.  Only
    asserted, language-expressible content is written; deduced and
    abduced items are recomputed on demand after a load.
    """
    kb = session.kb
    lines: list[str] = []
    for surface, canonical in session.lexicon.entries():
        lines.append(lang.render(lang.LexiconStmt(surface, canonical)))
    for rule in sorted(session.rules, key=lambda r: (r.premise_verb,
                                                     r.conclusion_verb)):
        lines.append(lang.render(lang.RuleStmt(rule.premise_verb,
                                               rule.conclusion_verb)))
    for trig in sorted(session.triggers, key=lambda t: t.id):
        lines.append(lang.render(lang.TriggerStmt(*trig.pattern, trig.reaction)))

    group: list[str] = []
    for m in kb.memberships():
        if m.provenance.kind is Kind.ASSERTED and m.value is TRUE:
            group.append(lang.render(lang.MembershipStmt(
                kb.label(m.element), kb.label(m.set_))))
    lines.extend(sorted(group))
    group = []
    for p in kb.propositions():
        if p.provenance.kind is Kind.ASSERTED and p.value is TRUE:
            group.append(lang.render(lang.CategoricalStmt(
                p.form, kb.label(p.subject), kb.label(p.predicate))))
    lines.extend(sorted(group))
    group = []
    for e in kb.edges():
        if e.provenance.kind is Kind.ASSERTED and e.value is TRUE:
            group.append(lang.render(lang.SpoStmt(
                kb.label(e.from_), e.name, kb.label(e.to))))
    lines.extend(sorted(group))

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


def load_kb(path: str, existential_import: bool = False) -> Session:
    """Parse a KB file into a fresh session; atomic (a bad line leaves
    nothing loaded) and errors name the offending line."""
    with open(path, encoding="utf-8") as fh:
        raw = fh.read().splitlines()
    session = Session(existential_import=existential_import)
    staged: list[tuple[int, lang.StatementAst]] = []
    for line_no, line in enumerate(raw, start=1):
        if not lang._strip_comment(line).strip():
            continue
        try:
            ast = lang.parse_statement(line, session.lexicon)
        except lang.ParseError as exc:
            raise LoadError(path, line_no, exc) from exc
        staged.append((line_no, ast))
        if isinstance(ast, lang.LexiconStmt):
            # later lines canonicalize through earlier lexicon entries
            try:
                session.lexicon.add(ast.surface, ast.canonical)
            except ValueError as exc:
                raise LoadError(path, line_no, exc) from exc
    for line_no, ast in staged:
        if isinstance(ast, lang.LexiconStmt):
            continue
        try:
            session.apply_statement(ast)
        except Exception as exc:  # validation that only shows at apply time
            raise LoadError(path, line_no, exc) from exc
    return session
