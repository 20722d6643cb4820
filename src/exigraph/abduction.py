"""Abductive hypothesis generation.

Membership is conjectured for an element when it shares a property held by
every known member of a candidate set; SPO rules are applied defeasibly.
Nothing in this module ever writes a definite truth value: hypotheses and
rule conclusions carry UNKNOWN and ABDUCED provenance, and may never
displace asserted facts.  Scores are lexicographic (shared property count,
then supporting member count) so rankings stay explainable and
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .kb import Edge, Entity, Kind, KnowledgeBase, Provenance
from .logic3 import TRUE, UNKNOWN


@dataclass(frozen=True)
class Hypothesis:
    """Conjectured element-in-set membership: always "may be", never "must
    be" (value UNKNOWN)."""

    element: Entity
    set_: Entity
    evidence: tuple[str, ...]
    score: tuple[int, int]  # (shared_property_count, supporting_member_count)

    def __post_init__(self):
        if not self.evidence:
            raise ValueError("hypothesis without evidence")


@dataclass(frozen=True)
class DefeasibleRule:
    """SPO template rule ``X <premise_verb> Y => X <conclusion_verb> Y``."""

    premise_verb: str
    conclusion_verb: str

    @property
    def name(self) -> str:
        return f"rule:{self.premise_verb}=>{self.conclusion_verb}"


# property tags: ("rel", verb, object_id) or ("mem", set_id)
def _properties(kb: KnowledgeBase, ent: Entity) -> dict[tuple, str]:
    """TRUE-valued properties of an entity, mapped to the item id holding them."""
    memberships, edges = kb.rows(ent)
    props = {("rel", e.name, e.to): e.id for e in edges if e.value is TRUE}
    props.update((("mem", m.set_), m.id) for m in memberships if m.value is TRUE)
    return props


def _prop_sort_key(kb: KnowledgeBase, tag: tuple) -> tuple:
    if tag[0] == "rel":
        return ("rel", tag[1], kb.label(tag[2]))
    return ("mem", kb.label(tag[1]), "")


def abduce_membership(x: Entity, kb: KnowledgeBase) -> list[Hypothesis]:
    """Conjecture sets ``x`` may belong to, from properties shared with all
    known members; sorted by score descending, ties by set label."""
    out = [hyp for set_ in kb.entities()
           if (hyp := candidate([x], set_, kb)) is not None]
    out.sort(key=lambda h: (-h.score[0], -h.score[1], h.set_.label))
    return out


def candidate(elements: Iterable[Entity], set_: Entity, kb: KnowledgeBase
              ) -> Optional[Hypothesis]:
    """The hypothesis :func:`abduce_membership` makes about ``set_`` for
    the first of ``elements``, in label order, it makes one for, or None.

    The members of ``set_`` are read once, in any order, however many
    elements are tried, and only until they share nothing; they are put in
    label order, and item ids fetched for the properties that make the
    hypothesis, only for the hypothesis returned.  ``elements`` may come
    in any order: they are read up to the first that could be tried, and
    put in label order only once the members share something.  So asking
    about one set costs the same whatever else the KB holds, and a set
    whose members share nothing costs a few of them.
    """
    def open_(x: Entity) -> bool:
        return x.id != set_.id and kb.exists(x, set_) is not TRUE

    elements = iter(elements)
    first = next(filter(open_, elements), None)
    if first is None:
        return None
    common = _shared(kb, (kb.by_id(m.element) for m in kb.members(set_)
                          if m.value is TRUE), but=[("mem", set_.id)])
    if not common:
        return None
    for x in sorted([first, *filter(open_, elements)], key=lambda e: e.label):
        x_props = _properties(kb, x)
        shared = sorted(common & x_props.keys(),
                        key=lambda t: _prop_sort_key(kb, t))
        if not shared:
            continue
        members = kb.members_true(set_)
        evidence = []
        for tag in shared:
            evidence.append(x_props[tag])
            evidence.extend(_holder(kb, m, tag) for m in members)
        return Hypothesis(x, set_, tuple(dict.fromkeys(evidence)),
                          (len(shared), len(members)))
    return None


def _shared(kb: KnowledgeBase, entities: Iterable[Entity],
            but: Iterable[tuple]) -> set[tuple]:
    """The tags all of ``entities`` hold, less those in ``but`` (none when
    there are no entities): intersected one entity at a time, until none
    is left."""
    common: Optional[set[tuple]] = None
    for ent in entities:
        props = _properties(kb, ent).keys()
        common = set(props).difference(but) if common is None \
            else common & props
        if not common:
            break
    return common or set()


def _holder(kb: KnowledgeBase, ent: Entity, tag: tuple) -> str:
    """The id of the item that gives ``ent`` the property ``tag``."""
    if tag[0] == "rel":
        return kb.edge(tag[1], ent, kb.by_id(tag[2])).id
    return kb.membership(ent, kb.by_id(tag[1])).id


def rule_edges(rules: list[DefeasibleRule], edges: list[Edge]) -> list[Edge]:
    """The edges the rules conclude from ``edges``, to a fixpoint, without
    storing them.

    Each rule fires over TRUE or abduced edges; a conclusion is UNKNOWN,
    ABDUCED, names its rule and the premise edge its chain starts from,
    and is drawn only where no premise edge has its verb, subject and
    object.  Conclusions have no item id.  A rule keeps an edge's subject
    and object, so the premises may be cut to the pairs of interest.
    """
    known = {(e.name, e.from_, e.to) for e in edges}
    todo = [e for e in edges
            if e.value is TRUE or e.provenance.kind is Kind.ABDUCED]
    out: list[Edge] = []
    while todo:
        premise = todo.pop()
        origin = premise.id or premise.provenance.sources[-1]
        for rule in rules:
            key = (rule.conclusion_verb, premise.from_, premise.to)
            if rule.premise_verb != premise.name or key in known:
                continue
            known.add(key)
            edge = Edge("", rule.conclusion_verb, premise.from_, premise.to,
                        UNKNOWN, Provenance(Kind.ABDUCED, (rule.name, origin)))
            out.append(edge)
            todo.append(edge)
    return out


def premise_verbs(rules: list[DefeasibleRule], verb: str) -> set[str]:
    """``verb`` and every verb whose rule chain reaches it.  An edge of any
    other verb leads :func:`rule_edges` to no ``verb`` edge, so the
    ``verb`` edges it draws over only these premises are the same, in the
    same order and from the same premises."""
    verbs, todo = {verb}, [verb]
    while todo:
        conclusion = todo.pop()
        for rule in rules:
            if rule.conclusion_verb == conclusion \
                    and rule.premise_verb not in verbs:
                verbs.add(rule.premise_verb)
                todo.append(rule.premise_verb)
    return verbs


def apply_rules(rules: list[DefeasibleRule], kb: KnowledgeBase) -> int:
    """Store what :func:`rule_edges` concludes; asserted triples are left
    alone and a re-run adds nothing.  Returns the number of edges added."""
    added = rule_edges(rules, kb.edges())
    for edge in added:
        kb.assert_edge(edge.name, kb.by_id(edge.from_), kb.by_id(edge.to),
                       edge.value, edge.provenance)
    return len(added)

