"""Categorical propositions and syllogistic inference.

The mood table is not transcribed from a textbook: it is generated once, at
first use, by brute-force model enumeration.  A mood (figure + form triple)
is admitted iff no assignment of the three terms to subsets of a small
universe makes both premises true and the conclusion false; universes of
size up to 3 suffice to find a countermodel for every invalid combination.

Without existential import 15 moods survive; allowing the import assumption
(each term denotes a nonempty set) admits 9 more, each tagged with the one
term whose nonemptiness it needs.  The table drives :func:`closure`, which
``check`` and ``:closure`` run; questions are settled by :func:`entails`,
a complete decision procedure for the same fragment.

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
from typing import Collection, Iterable, Iterator, Optional

from .kb import (Entity, Kind, KnowledgeBase, Membership, Proposition,
                 Provenance)
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

# universes up to this size already separate the valid moods; the tests
# check the table against an independent enumeration up to four elements
_MAX_UNIVERSE = 3


@dataclass(frozen=True)
class CategoricalProposition:
    """A/E/I/O statement over two set-denoting entities."""

    form: str
    subject: Entity
    predicate: Entity

    def __post_init__(self):
        if self.form not in FORMS:
            raise ValueError(f"bad form {self.form!r}")
        if self.subject.id == self.predicate.id:
            raise ValueError("trivial self-proposition rejected")


@dataclass(frozen=True)
class Mood:
    figure: int
    forms: tuple[str, str, str]  # major, minor, conclusion
    requires_import: bool
    import_term: Optional[str] = None  # S/M/P whose nonemptiness is needed

    @property
    def name(self) -> str:
        return f"{''.join(self.forms)}-{self.figure}"


class InvalidMoodError(Exception):
    pass


def _holds(form: str, s: frozenset, p: frozenset) -> bool:
    if form == "A":
        return s <= p
    if form == "E":
        return not (s & p)
    if form == "I":
        return bool(s & p)
    return bool(s - p)  # O


def _premise_sets(figure: int, s, m, p):
    terms = {"S": s, "M": m, "P": p}
    (maj, mnr) = FIGURES[figure]
    return (terms[maj[0]], terms[maj[1]]), (terms[mnr[0]], terms[mnr[1]])


def _countermodel(figure: int, forms: tuple[str, str, str], *,
                  nonempty: frozenset[str] = frozenset()) -> Optional[tuple]:
    """Search assignments of S, M, P to subsets of universes of size
    0.._MAX_UNIVERSE for one where the premises hold and the conclusion
    fails; ``nonempty`` names terms constrained to be nonempty."""
    maj_form, min_form, concl_form = forms
    for n in range(_MAX_UNIVERSE + 1):
        universe = frozenset(range(n))
        subsets = [frozenset(c) for k in range(n + 1)
                   for c in itertools.combinations(sorted(universe), k)]
        for s, m, p in itertools.product(subsets, repeat=3):
            if "S" in nonempty and not s:
                continue
            if "M" in nonempty and not m:
                continue
            if "P" in nonempty and not p:
                continue
            (a1, a2), (b1, b2) = _premise_sets(figure, s, m, p)
            if (_holds(maj_form, a1, a2) and _holds(min_form, b1, b2)
                    and not _holds(concl_form, s, p)):
                return (n, s, m, p)
    return None


@lru_cache(maxsize=None)
def _mood_table() -> tuple[Mood, ...]:
    moods: list[Mood] = []
    for figure in sorted(FIGURES):
        for forms in itertools.product(FORMS, repeat=3):
            if _countermodel(figure, forms) is None:
                moods.append(Mood(figure, forms, requires_import=False))
                continue
            if _countermodel(figure, forms, nonempty=frozenset("SMP")) is None:
                # valid only with import; find the single term that carries it
                term = next(t for t in ("S", "M", "P")
                            if _countermodel(figure, forms,
                                             nonempty=frozenset({t})) is None)
                moods.append(Mood(figure, forms, requires_import=True,
                                  import_term=term))
    return tuple(moods)


def valid_moods(existential_import: bool = False) -> list[Mood]:
    """The oracle-derived mood table: 15 unconditional, 24 with import."""
    table = _mood_table()
    if existential_import:
        return list(table)
    return [m for m in table if not m.requires_import]


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


def infer_syllogism(major: CategoricalProposition,
                    minor: CategoricalProposition, mood: Mood,
                    inhabited: Collection[int]
                    ) -> Optional[CategoricalProposition]:
    """Apply one mood to a premise pair; None if the premises don't fit.

    A mood that requires existential import fires only when its restricted
    term is in ``inhabited``, the ids of the sets known to have a member.
    Raises :class:`InvalidMoodError` for a mood not in the table.
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
    if min_terms[mid].id != m.id:
        return None
    s, p = min_terms[1 - mid], maj_terms[1 - at]
    if s.id == p.id:
        return None
    if mood.requires_import:
        restricted = {"S": s, "M": m, "P": p}[mood.import_term]
        if restricted.id not in inhabited:
            return None
    return CategoricalProposition(mood.forms[2], s, p)


def eval_proposition(kb: KnowledgeBase, p: CategoricalProposition) -> Value3:
    """Three-valued status of a categorical proposition read off the stored
    memberships and propositions, with no inference.  It serves ``check``
    through :func:`contradictions`; questions are settled by :func:`entails`.

    A membership counterexample defeats a universal even when the
    proposition is also stored TRUE (the pair then shows up in
    :func:`contradictions` instead of being silently resolved); a
    membership witness settles a particular.
    """
    subj, pred = p.subject, p.predicate
    # A and O look for a known member outside the predicate, E and I inside
    witness = FALSE if p.form in ("A", "O") else TRUE
    if any(kb.exists(e, pred) is witness for e in kb.members_true(subj)):
        return FALSE if p.form in ("A", "E") else TRUE
    stored = kb.proposition(p.form, subj, pred)
    if stored is not None and stored.value.is_definite():
        return stored.value
    stored_contrary = kb.proposition(CONTRADICTORY[p.form], subj, pred)
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
    props: dict[str, CategoricalProposition] = {}
    added = 0
    fresh: Optional[set[str]] = None  # ids the previous round added
    while True:
        stored = [s for s in kb.propositions() if s.value is TRUE]
        for s in stored:
            if s.id not in props:
                props[s.id] = CategoricalProposition(
                    s.form, kb.by_id(s.subject), kb.by_id(s.predicate))
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
            major = props[maj.id]
            # (j, figure) is unique, so the moods are never compared
            for j, _, fits in sorted(
                    (j, figure, fits)
                    for figure, at, mid, form, fits in joins[maj.form]
                    for j in index.get((terms[at], mid, form), ())):
                mnr = stored[j]
                minor = props[mnr.id]
                for mood in fits:
                    concl = infer_syllogism(major, minor, mood, inhabited)
                    if concl is None or kb.proposition(
                            concl.form, concl.subject,
                            concl.predicate) is not None:
                        continue
                    fired.add(kb.assert_proposition(
                        concl.form, concl.subject, concl.predicate, TRUE,
                        Provenance(Kind.DEDUCED, (maj.id, mnr.id))))
        if not fired:
            return added
        added += len(fired)
        fresh = fired


def contradictions(kb: KnowledgeBase) -> list[str]:
    """Diagnostics for stored universals defeated by membership facts or
    by a stored contrary; reported, never auto-resolved."""
    out = []
    for s in kb.propositions():
        if s.value is not TRUE or s.form not in ("A", "E"):
            continue
        p = CategoricalProposition(s.form, kb.by_id(s.subject), kb.by_id(s.predicate))
        # stored TRUE, so only a membership counterexample makes it FALSE
        if eval_proposition(kb, p) is FALSE:
            out.append(f"{s.form}({kb.label(s.subject)}, {kb.label(s.predicate)}) "
                       f"stored true but defeated by a membership counterexample")
        other = kb.proposition(CONTRADICTORY[s.form], p.subject, p.predicate)
        if other is not None and other.value is TRUE:
            out.append(f"{s.form}({kb.label(s.subject)}, {kb.label(s.predicate)}) "
                       f"and its contrary {CONTRADICTORY[s.form]} are both stored true")
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
# its denial has no model.

Literal = tuple[int, bool]  # (set entity id, in the set?)


def _stated(q: Proposition, forms: str) -> bool:
    """A stored TRUE, non-abduced proposition of one of ``forms``."""
    return q.form in forms and q.value is TRUE \
        and q.provenance.kind is not Kind.ABDUCED


def _units(rows: Iterable[Membership]) -> list[Literal]:
    """An element's definite, non-abduced memberships as unit literals."""
    return [(m.set_, m.value is TRUE) for m in rows
            if m.value.is_definite() and m.provenance.kind is not Kind.ABDUCED]


def _implications(kb: KnowledgeBase) -> dict[Literal, list[Literal]]:
    graph: dict[Literal, list[Literal]] = {}
    for q in kb.propositions():
        if _stated(q, "AE"):
            _add_clause(graph, q.form, q.subject, q.predicate)
    return graph


def _add_clause(graph: dict[Literal, list[Literal]], form: str, s: int,
                p: int) -> None:
    inside = form == "A"
    graph.setdefault((s, True), []).append((p, inside))
    graph.setdefault((p, not inside), []).append((s, False))


def _clash(graph: dict[Literal, list[Literal]], units: list[Literal]
           ) -> Optional[int]:
    """A set the units reach both in and out of, or None."""
    seen = set(units)
    todo = list(units)
    while todo:
        set_, inside = todo.pop()
        if (set_, not inside) in seen:
            return set_
        for lit in graph.get((set_, inside), ()):
            if lit not in seen:
                seen.add(lit)
                todo.append(lit)
    return None


def _some(s: Entity, p: Entity, inside: bool) -> tuple[str, list[Literal]]:
    """The witness of "some s are p" (or "are not p"), with its label."""
    return (f"some {s.label} are {'' if inside else 'not '}{p.label}",
            [(s.id, True), (p.id, inside)])


def _witnesses(kb: KnowledgeBase, graph: dict[Literal, list[Literal]],
               existential_import: bool) -> Iterator[tuple[str, list[Literal]]]:
    """(label, units) of every witness: each I and O, each element, and
    with existential import each set the implications mention."""
    for q in kb.propositions():
        if _stated(q, "IO"):
            yield _some(kb.by_id(q.subject), kb.by_id(q.predicate),
                        q.form == "I")
    for element, rows in itertools.groupby(kb.memberships(),
                                           key=lambda m: m.element):
        units = _units(rows)
        if units:
            yield kb.label(element), units
    if existential_import:
        for set_ in sorted({s for s, _ in graph}, key=kb.label):
            yield f"some {kb.label(set_)}", [(set_, True)]


def entails(kb: KnowledgeBase, form: str, s: Entity, p: Entity,
            existential_import: bool = False) -> Optional[str]:
    """Whether the KB's stored TRUE propositions and definite memberships
    entail ``form(s, p)``: form is A/E/I/O over two sets, or "in"/"out"
    for element ``s`` being in or not in set ``p``.

    Returns None when they do not, else the clash that proves it, as
    "<witness> reaches <set> and not <set>".  The denial of A, E, in and
    out is one more witness, checked alone (an element's own memberships
    first, so a KB that contradicts itself there says so); the denial of
    I and O is one more clause, checked against every witness.  With
    ``existential_import`` every set is nonempty: one witness {t} per set.
    Nothing is cached or written: each call reads the KB afresh.
    """
    graph = _implications(kb)
    if form in ("in", "out"):
        units = _units(kb.memberships(s))
        witnesses = [(s.label, units),
                     (s.label, units + [(p.id, form == "out")])]
    elif form in ("A", "E"):
        witnesses = [_some(s, p, form == "E")]
    else:
        _add_clause(graph, "E" if form == "I" else "A", s.id, p.id)
        witnesses = _witnesses(kb, graph, existential_import)
    for label, units in witnesses:
        set_ = _clash(graph, units)
        if set_ is not None:
            return f"{label} reaches {kb.label(set_)} and not {kb.label(set_)}"
    return None
