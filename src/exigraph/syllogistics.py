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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Optional

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


def infer_syllogism(kb: KnowledgeBase, major: CategoricalProposition,
                    minor: CategoricalProposition,
                    mood: Mood) -> Optional[CategoricalProposition]:
    """Apply one mood to a premise pair; None if the premises don't fit.

    Moods that require existential import only fire when the restricted
    term has at least one known-TRUE member in the KB.
    """
    if mood not in _mood_table():
        raise InvalidMoodError(mood.name)
    if (major.form, minor.form) != mood.forms[:2]:
        return None
    (maj_pair, min_pair) = FIGURES[mood.figure]
    slots: dict[str, Entity] = {}
    for (t1, t2), prop in ((maj_pair, major), (min_pair, minor)):
        for term, ent in ((t1, prop.subject), (t2, prop.predicate)):
            if term in slots and slots[term].id != ent.id:
                return None
            slots[term] = ent
    if len({slots["S"].id, slots["M"].id, slots["P"].id}) != 3:
        return None
    if mood.requires_import:
        restricted = slots[mood.import_term]
        if not kb.members_true(restricted):
            return None
    return CategoricalProposition(mood.forms[2], slots["S"], slots["P"])


def eval_proposition(kb: KnowledgeBase, p: CategoricalProposition) -> Value3:
    """Three-valued status of a categorical proposition against the KB.

    A membership counterexample defeats a universal even when the
    proposition is also stored TRUE (the pair then shows up in
    :func:`contradictions` instead of being silently resolved); a
    membership witness settles a particular.
    """
    subj, pred = p.subject, p.predicate
    counter = _fact_counterexample(kb, p)
    if counter is not None:
        return counter
    stored = kb.proposition(p.form, subj, pred)
    if stored is not None and stored.value.is_definite():
        return stored.value
    stored_contrary = kb.proposition(CONTRADICTORY[p.form], subj, pred)
    if stored_contrary is not None and stored_contrary.value is TRUE:
        return FALSE
    return UNKNOWN


def _fact_counterexample(kb: KnowledgeBase, p: CategoricalProposition) -> Optional[Value3]:
    """Definite verdict derivable from membership facts alone, if any."""
    # A and O look for a known member outside the predicate, E and I inside
    witness = FALSE if p.form in ("A", "O") else TRUE
    if any(kb.exists(e, p.predicate) is witness
           for e in kb.members_true(p.subject)):
        return FALSE if p.form in ("A", "E") else TRUE
    return None


def closure(kb: KnowledgeBase, existential_import: bool = False) -> int:
    """Forward-chain all valid moods over stored TRUE propositions to a
    fixpoint; derived conclusions are stored with DEDUCED provenance.
    Returns the number of propositions added."""
    moods = valid_moods(existential_import)
    added = 0
    while True:
        fired = 0
        stored = [s for s in kb.propositions() if s.value is TRUE]
        props = {s.id: CategoricalProposition(s.form, kb.by_id(s.subject),
                                              kb.by_id(s.predicate))
                 for s in stored}
        for maj in stored:
            for mnr in stored:
                for mood in moods:
                    concl = infer_syllogism(kb, props[maj.id], props[mnr.id], mood)
                    if concl is None:
                        continue
                    old = kb.proposition(concl.form, concl.subject, concl.predicate)
                    if old is not None:
                        continue
                    prov = Provenance(Kind.DEDUCED, (maj.id, mnr.id))
                    if kb.assert_proposition(concl.form, concl.subject,
                                             concl.predicate, TRUE, prov):
                        fired += 1
        if not fired:
            return added
        added += fired


def contradictions(kb: KnowledgeBase) -> list[str]:
    """Diagnostics for stored propositions defeated by membership facts or
    by a stored contrary; reported, never auto-resolved."""
    out = []
    for s in kb.propositions():
        if s.value is not TRUE:
            continue
        p = CategoricalProposition(s.form, kb.by_id(s.subject), kb.by_id(s.predicate))
        facts = _fact_counterexample(kb, p)
        if p.form in ("A", "E") and facts is FALSE:
            out.append(f"{s.form}({kb.label(s.subject)}, {kb.label(s.predicate)}) "
                       f"stored true but defeated by a membership counterexample")
        other = kb.proposition(CONTRADICTORY[s.form], p.subject, p.predicate)
        if other is not None and other.value is TRUE and s.form in ("A", "E"):
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
