"""Categorical propositions and syllogistic inference.

The mood table is not transcribed from a textbook: it is generated once, at
first use, by asking :func:`entails` about each figure and form triple.  A
triple is a mood iff its two premises, stored in a KB of three terms, entail
its conclusion; failing that, it is an import mood iff they entail it once
one term is known to have a member, and the first such term of S, M and P
is the mood's import term.

Without existential import 15 moods survive; the import assumption admits
9 more, each with the one term that needs a known member.  The table drives
:func:`closure`, which ``check`` and ``:closure`` run; questions are settled
by :func:`entails` directly, so the logic has one decision procedure.

Moods are looked up by (figure, major form, minor form).  Closure is
semi-naive (Bancilhon & Ramakrishnan 1986): after the first round it joins
only pairs with a premise the previous round added, and it finds a
premise's partners through an index of the stored propositions by term,
position and form.  Its output is that of a naive pass over all pairs and
all moods: the same propositions, ids and sources.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import (Callable, Collection, Iterable, Iterator, Optional,
                    Sequence)

from .kb import (Entity, Kind, KnowledgeBase, Literal, Proposition,
                 Provenance, Reach, clauses)
from .lang import READS
from .logic3 import FALSE, TRUE, UNKNOWN, Value3

FORMS = ("A", "E", "I", "O")

# each form's contradictory: exactly one of the pair holds in any model
CONTRADICTORY = {"A": "O", "O": "A", "E": "I", "I": "E"}

# term layout of the two premises per figure: (major pair, minor pair)
FIGURES = {
    1: (("M", "P"), ("S", "M")),
    2: (("P", "M"), ("S", "M")),
    3: (("M", "P"), ("M", "S")),
    4: (("P", "M"), ("M", "S")),
}

# per figure, where the major and the minor premise hold the middle term
# (0 subject, 1 predicate); the major's other term is P, the minor's S
_MIDDLE = {figure: (maj.index("M"), mnr.index("M"))
           for figure, (maj, mnr) in FIGURES.items()}


@dataclass(frozen=True)
class Mood:
    figure: int
    forms: tuple[str, str, str]  # major, minor, conclusion
    import_term: Optional[str] = None  # S/M/P that needs a known member

    @property
    def name(self) -> str:
        return f"{''.join(self.forms)}-{self.figure}"


class InvalidMoodError(Exception):
    pass


def _entailed(figure: int, forms: tuple[str, str, str],
              known: Optional[str]) -> bool:
    """Whether the premises ``forms[:2]`` laid out as in ``figure``, plus
    one member of term ``known`` if it is given, entail the conclusion."""
    kb = KnowledgeBase()
    terms = {t: kb.upsert_entity(t) for t in "SMP"}
    for form, (subj, pred) in zip(forms, FIGURES[figure]):
        kb.assert_proposition(form, terms[subj], terms[pred], TRUE)
    if known is not None:
        kb.assert_membership(kb.upsert_entity("x"), terms[known], TRUE)
    return entails(kb, forms[2], terms["S"], terms["P"]) is not None


@lru_cache(maxsize=None)
def _mood_table() -> tuple[Mood, ...]:
    moods: list[Mood] = []
    for figure in sorted(FIGURES):
        for forms in itertools.product(FORMS, repeat=3):
            for term in (None, "S", "M", "P"):
                if _entailed(figure, forms, term):
                    moods.append(Mood(figure, forms, term))
                    break
    return tuple(moods)


def valid_moods(existential_import: bool = False) -> list[Mood]:
    """The mood table, in figure and form order: 15 unconditional moods,
    and 24 once the moods that need a known member are admitted."""
    table = _mood_table()
    if existential_import:
        return list(table)
    return [m for m in table if m.import_term is None]


@lru_cache(maxsize=None)
def _moods_by_premises(existential_import: bool
                       ) -> dict[tuple[int, str, str], tuple[Mood, ...]]:
    """:func:`valid_moods` keyed by (figure, major form, minor form), each
    entry in table order."""
    out: dict[tuple[int, str, str], tuple[Mood, ...]] = {}
    for mood in valid_moods(existential_import):
        key = (mood.figure, *mood.forms[:2])
        out[key] = out.get(key, ()) + (mood,)
    return out


def infer_syllogism(major: Proposition, minor: Proposition, mood: Mood,
                    inhabited: Collection[int]
                    ) -> Optional[tuple[str, int, int]]:
    """Apply one mood to two stored premises; None if they don't fit.

    The conclusion is ``(form, subject id, predicate id)``, the key the KB
    stores a proposition under.  A mood with an import term fires only
    when that term is in ``inhabited``, the ids of the sets known to have
    a member.  Raises :class:`InvalidMoodError` for a mood not in the table.
    """
    if mood not in _moods_by_premises(True).get(
            (mood.figure, *mood.forms[:2]), ()):
        raise InvalidMoodError(mood.name)
    if (major.form, minor.form) != mood.forms[:2]:
        return None
    at, mid = _MIDDLE[mood.figure]
    maj_terms = (major.subject, major.predicate)
    min_terms = (minor.subject, minor.predicate)
    m = maj_terms[at]
    s, p = min_terms[1 - mid], maj_terms[1 - at]
    if min_terms[mid] != m or s == p:
        return None
    if mood.import_term is not None \
            and {"S": s, "M": m, "P": p}[mood.import_term] not in inhabited:
        return None
    return mood.forms[2], s, p


def eval_proposition(kb: KnowledgeBase, form: str, s: Entity,
                     p: Entity) -> Value3:
    """Three-valued status of ``form(s, p)`` over sets ``s`` and ``p``,
    read off the stored memberships and propositions with no inference.
    It takes :func:`entails`'s arguments and serves ``check`` through
    :func:`contradictions`; questions are settled by :func:`entails`.

    A membership counterexample defeats a universal even when the
    proposition is also stored TRUE (the pair then shows up in
    :func:`contradictions` instead of being silently resolved); a
    membership witness settles a particular.
    """
    # A and O look for a known member outside the predicate, E and I inside
    witness = FALSE if form in ("A", "O") else TRUE
    if any(kb.exists(e, p) is witness for e in kb.members_true(s)):
        return FALSE if form in ("A", "E") else TRUE
    stored = kb.proposition(form, s, p)
    if stored is not None and stored.value.is_definite():
        return stored.value
    stored_contrary = kb.proposition(CONTRADICTORY[form], s, p)
    if stored_contrary is not None and stored_contrary.value is TRUE:
        return FALSE
    return UNKNOWN


def closure(kb: KnowledgeBase, existential_import: bool = False) -> int:
    """Forward-chain all valid moods over stored TRUE propositions to a
    fixpoint; derived conclusions are stored with DEDUCED provenance.
    Returns the number of propositions added.

    Semi-naive: the first round joins every pair of stored TRUE
    propositions, each later round only the pairs with a premise the round
    before added.  An older pair was joined in an earlier round, and the
    store only grows, so its conclusions are all stored already.  A major
    premise finds its minors through an index by (term, position, form):
    each figure has the two share the middle term, in known places.  Pairs
    are visited in ``kb.propositions()`` order, major then minor, and each
    pair tries its figure's moods in table order, so the same conclusions
    fire, in the same order and from the same sources, as in a pass over
    all pairs and all moods.
    """
    inhabited = {m.set_ for m in kb.memberships() if m.value is TRUE} \
        if existential_import else frozenset()
    # an import mood needs a known member, so none fires while no set has one
    moods = _moods_by_premises(bool(inhabited))
    # per major form: (figure, major's middle slot, minor's middle slot,
    # minor form, moods) of every figure and minor form some mood takes
    joins = {form: [(figure, *_MIDDLE[figure], other, moods[key])
                    for figure in sorted(FIGURES) for other in FORMS
                    if (key := (figure, form, other)) in moods]
             for form in FORMS}
    added = 0
    fresh: Optional[set[str]] = None  # ids the previous round added
    while True:
        stored = [s for s in kb.propositions() if s.value is TRUE]
        # (term id, 0 subject / 1 predicate, form) -> positions in stored,
        # over every stored proposition and over the previous round's
        every: dict[tuple[int, int, str], list[int]] = {}
        delta: dict[tuple[int, int, str], list[int]] = {}
        for i, s in enumerate(stored):
            for key in ((s.subject, 0, s.form), (s.predicate, 1, s.form)):
                every.setdefault(key, []).append(i)
                if fresh is None or s.id in fresh:
                    delta.setdefault(key, []).append(i)
        fired: set[str] = set()
        for maj in stored:
            index = every if fresh is None or maj.id in fresh else delta
            terms = (maj.subject, maj.predicate)
            # (j, figure) is unique, so the moods are never compared
            for j, _, fits in sorted(
                    (j, figure, fits)
                    for figure, at, mid, form, fits in joins[maj.form]
                    for j in index.get((terms[at], mid, form), ())):
                mnr = stored[j]
                for mood in fits:
                    concl = infer_syllogism(maj, mnr, mood, inhabited)
                    if concl is None:
                        continue
                    form, s, p = concl
                    s, p = kb.by_id(s), kb.by_id(p)
                    if kb.proposition(form, s, p) is None:
                        fired.add(kb.assert_proposition(
                            form, s, p, TRUE,
                            Provenance(Kind.DEDUCED, (maj.id, mnr.id))))
        if not fired:
            return added
        added += len(fired)
        fresh = fired


def contradictions(kb: KnowledgeBase) -> list[str]:
    """Diagnostics for stored universals defeated by membership facts or
    by a stored contrary; reported, never auto-resolved.  When there are
    none and the KB still has no model, the one line names the witness
    that clashes (:func:`inconsistency`), so, abduced items aside, the list
    is empty iff the KB has a model."""
    out = []
    for q in kb.propositions():
        if q.value is not TRUE or q.form not in ("A", "E"):
            continue
        s, p = kb.by_id(q.subject), kb.by_id(q.predicate)
        # stored TRUE, so only a membership counterexample makes it FALSE
        if eval_proposition(kb, q.form, s, p) is FALSE:
            out.append(f"{q.form}({s.label}, {p.label}) "
                       f"stored true but defeated by a membership counterexample")
        other = kb.proposition(CONTRADICTORY[q.form], s, p)
        if other is not None and other.value is TRUE:
            out.append(f"{q.form}({s.label}, {p.label}) "
                       f"and its contrary {CONTRADICTORY[q.form]} are both stored true")
    if not out and (clash := inconsistency(kb)) is not None:
        out.append(clash)
    return out


# -- entailment: one 2-SAT check per witness -------------------------------
#
# A/E propositions are 2-clauses over "is in set t" literals: A(s,p) gives
# the implications s -> p and not p -> not s, E(s,p) gives s -> not p and
# p -> not s.  Everything the KB says exists is a *witness*, a set of unit
# literals: each I(s,p) is {s, p}, each O(s,p) is {s, not p}, each element
# is its definite memberships.  The KB has a model iff no witness reaches
# both t and not t along the implications: witnesses do not constrain one
# another, and every clause has a negative literal, so following the
# implications from the units is a complete check (Aspvall, Plass & Tarjan
# 1979; Pratt-Hartmann & Moss 2009).  A claim is entailed iff the KB plus
# its denial has no model.  Whether a walk clashes depends only on the
# graph and the units, so witnesses with the same units share one walk.
#
# The KB keeps the implications, the stated I and O rows and the classes of
# elements with the same units, each with its lowest label, filed by the
# writes that store the rows (see ``kb``).  It also keeps the reach of each
# witness and literal walked over the implications, until an A or E row
# changes them.  The denial of A, E, in or out is one more witness, walked
# on its own.  The denial of I or O is one more clause, so every witness
# must be checked against it, and the stored reaches decide which clashes.
# The denial of I(s,p) is s -> not p and p -> not s, that of O(s,p) is
# s -> p and not p -> not s: both are s -> q with its contrapositive.
# Every clause is filed with its contrapositive, so a walk from not t
# reaches not u exactly when a walk from u reaches t.  Take a witness whose
# reach R does not clash already.  If R holds s, the walk with the denial
# adds the reach of q, and it clashes iff R merged with that reach holds
# some set in and out, or the reach of q clashes alone.  If R holds not q
# but not s, the walk adds the reach of not s, which holds only negative
# literals; a clash there is some not t with t in R, and then t reaches s,
# so s is in R after all.  A reach with neither uses no new clause.  For I,
# q is not p, whose reach holds only negative literals, and not t for each
# t that reaches p; so R merged with it clashes iff R holds p, and the
# reach of not p need not be walked.
#
# Only the first witness that clashes is walked again, over a copy of the
# graph's top level with the denial laid over it, so the set it names is
# the one a walk with the denial finds; the KB's lists are never written.
# Witnesses are taken in one fixed order and the first clash is the one
# reported, so a check is deterministic.  A did-question asks A(t, s) for
# every actor t: :func:`subset_of` answers them all from the stored reach
# of not s.


def _reach(graph: dict[Literal, list[Literal]], units: Sequence[Literal]
           ) -> Reach:
    """The literals the units reach, and a set they reach both in and out
    of, or None; the walk stops at the first such set."""
    seen = set(units)
    todo = list(units)
    while todo:
        set_, inside = todo.pop()
        if (set_, not inside) in seen:
            return seen, set_
        for lit in graph.get((set_, inside), ()):
            if lit not in seen:
                seen.add(lit)
                todo.append(lit)
    return seen, None


def _clash(graph: dict[Literal, list[Literal]], units: Sequence[Literal]
           ) -> Optional[int]:
    """A set the units reach both in and out of, or None."""
    return _reach(graph, units)[1]


def _stored_reach(kb: KnowledgeBase, units: tuple[Literal, ...]) -> Reach:
    """The reach of ``units`` over the KB's implications, walked only when
    the KB does not hold it already."""
    reaches = kb.reaches()
    found = reaches.get(units)
    if found is None:
        found = reaches[units] = _reach(kb.implications(), units)
    return found


def subset_of(kb: KnowledgeBase, s: Entity) -> Callable[[Entity], bool]:
    """A test of whether the KB entails "all t are s", for any entity t,
    from one walk: it agrees with ``entails(kb, "A", t, s)``.

    The denial of A(t, s) is the witness {t, not s}, and a walk from two
    units reaches the union of their two reaches.  Every clause is filed
    with its contrapositive, so t's reach holds a literal whose complement
    the reach of (s, out) holds exactly when the latter reaches (t, out).
    So A(t, s) is entailed iff (s, out) reaches (t, out), or (t, in)
    clashes alone; a literal with no implications cannot clash.  (s, out)
    never clashes alone: A and E give only not p -> not s and positive ->
    negative implications, so a walk from a negative literal reaches only
    negative ones.
    """
    graph = kb.implications()
    reached = _stored_reach(kb, ((s.id, False),))[0]
    return lambda t: (t.id, False) in reached or (
        (t.id, True) in graph
        and _stored_reach(kb, ((t.id, True),))[1] is not None)


def _some(s: Entity, p: Entity, inside: bool
          ) -> tuple[str, tuple[Literal, ...]]:
    """The witness of "some s are p" (or "are not p"), with its label."""
    return (READS["I" if inside else "O"].format(s.label, p.label),
            ((s.id, True), (p.id, inside)))


def entails(kb: KnowledgeBase, form: str, s: Entity, p: Entity,
            existential_import: bool = False) -> Optional[str]:
    """Whether the KB's stored TRUE propositions and definite memberships
    entail ``form(s, p)``: form is A/E/I/O over two sets, or "in"/"out"
    for element ``s`` being in or not in set ``p``.

    Returns None when they do not, else the clash that proves it, as
    "<witness> reaches <set> and not <set>".  The denial of A, E, in and
    out is one more witness, checked alone (an element's own memberships
    first, so a KB that contradicts itself there says so); the denial of
    I and O is one more clause, checked against every witness's stored
    reach.  With ``existential_import`` every set is nonempty: one witness
    {t} per set.  The check writes nothing to the KB but the reaches it
    walks, so its cost follows the number of distinct witnesses not yet
    walked over the graph, not of elements.
    """
    graph = kb.implications()
    if form in ("in", "out"):
        units = list(kb.units(s))
        return _first_clash(kb, graph, [
            (s.label, units), (s.label, units + [(p.id, form == "out")])])
    if form in ("A", "E"):
        return _first_clash(kb, graph, [_some(s, p, form == "E")])
    # the denial is s -> q with its contrapositive; ``opposite`` holds the
    # complements of q's reach, which for I is just p
    s_in = (s.id, True)
    if form == "I":
        q_clash, opposite = None, {(p.id, True)}
    else:
        q_seen, q_clash = _stored_reach(kb, ((p.id, True),))
        opposite = {(set_, not inside) for set_, inside in q_seen}
    for label, units in _witnesses(kb, existential_import, (s.id, p.id)):
        seen, set_ = _stored_reach(kb, units)
        if set_ is not None or (s_in in seen and (
                q_clash is not None or not opposite.isdisjoint(seen))):
            graph = dict(graph)
            for src, dst in clauses("E" if form == "I" else "A", s.id, p.id):
                graph[src] = [*graph.get(src, ()), dst]
            return _render(kb, label, _clash(graph, units))
    return None


def inconsistency(kb: KnowledgeBase) -> Optional[str]:
    """The first witness that clashes with nothing denied, as
    "<witness> reaches <set> and not <set>"; None iff the KB has a model."""
    for label, units in _witnesses(kb, False):
        set_ = _stored_reach(kb, units)[1]
        if set_ is not None:
            return _render(kb, label, set_)
    return None


def _witnesses(kb: KnowledgeBase, existential_import: bool,
               denied: Collection[int] = ()
               ) -> Iterator[tuple[str, tuple[Literal, ...]]]:
    """Every witness with its label: each stated I and O, then the classes
    of elements by their lowest label, then with existential import each
    set the graph or the ``denied`` proposition mentions.  A class is named
    by its lowest-label element, the one a walk per element in label order
    would meet first."""
    for q in kb.particulars():
        yield _some(kb.by_id(q.subject), kb.by_id(q.predicate), q.form == "I")
    yield from sorted((first, units)
                      for units, first in kb.unit_classes().items())
    if existential_import:
        sets = {set_ for set_, _ in kb.implications()}.union(denied)
        for set_ in sorted(sets, key=kb.label):
            yield f"some {kb.label(set_)}", ((set_, True),)


def _first_clash(kb: KnowledgeBase, graph: dict[Literal, list[Literal]],
                 witnesses: Iterable[tuple[str, Sequence[Literal]]]
                 ) -> Optional[str]:
    """The first of ``witnesses`` whose units clash, rendered."""
    for label, units in witnesses:
        set_ = _clash(graph, units)
        if set_ is not None:
            return _render(kb, label, set_)
    return None


def _render(kb: KnowledgeBase, witness: str, set_: int) -> str:
    return f"{witness} reaches {kb.label(set_)} and not {kb.label(set_)}"
