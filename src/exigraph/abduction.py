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
from typing import Optional, Union

from .kb import Edge, Entity, Kind, KnowledgeBase, Provenance
from .logic3 import TRUE, UNKNOWN


class TooFewElementsError(ValueError):
    pass


@dataclass(frozen=True)
class MembershipProposal:
    """Conjectured element-in-set membership."""

    element: Entity
    set_: Entity


@dataclass(frozen=True)
class SetProposal:
    """A new set conjectured from a property shared by given elements."""

    label: str
    elements: tuple[Entity, ...]


Proposal = Union[MembershipProposal, SetProposal]


@dataclass(frozen=True)
class Hypothesis:
    """An abduced proposal: always "may be", never "must be" (value UNKNOWN)."""

    proposition: Proposal
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
    props = {("rel", e.name, e.to): e.id for e in kb.edges(ent) if e.value is TRUE}
    props.update((("mem", m.set_), m.id) for m in kb.memberships(ent) if m.value is TRUE)
    return props


def _held_by_all(kb: KnowledgeBase, entities: list[Entity]
                 ) -> tuple[list[dict[tuple, str]], set[tuple]]:
    """Each entity's :func:`_properties`, and the tags all of them hold
    (none when there are no entities)."""
    per_entity = [_properties(kb, e) for e in entities]
    common = set.intersection(*map(set, per_entity)) if per_entity else set()
    return per_entity, common


def _prop_sort_key(kb: KnowledgeBase, tag: tuple) -> tuple:
    if tag[0] == "rel":
        return ("rel", tag[1], kb.label(tag[2]))
    return ("mem", kb.label(tag[1]), "")


def abduce_membership(x: Entity, kb: KnowledgeBase) -> list[Hypothesis]:
    """Conjecture sets ``x`` may belong to, from properties shared with all
    known members; sorted by score descending, ties by set label."""
    out = [hyp for set_ in kb.entities()
           if (hyp := candidate([x], set_, kb)) is not None]
    out.sort(key=lambda h: (-h.score[0], -h.score[1], h.proposition.set_.label))
    return out


def candidate(elements: list[Entity], set_: Entity, kb: KnowledgeBase
              ) -> Optional[Hypothesis]:
    """The hypothesis :func:`abduce_membership` makes about ``set_`` for
    the first of ``elements`` it makes one for, or None.

    The members of ``set_`` are read once, however many elements are
    tried, so asking about one set costs the same whatever else the KB
    holds.
    """
    member_props = common = None
    for x in elements:
        if x.id == set_.id or kb.exists(x, set_) is TRUE:
            continue
        if member_props is None:
            member_props, common = _held_by_all(kb, kb.members_true(set_))
            common.discard(("mem", set_.id))
        x_props = _properties(kb, x)
        shared = sorted(common & x_props.keys(),
                        key=lambda t: _prop_sort_key(kb, t))
        if not shared:
            continue
        evidence = []
        for tag in shared:
            evidence.append(x_props[tag])
            evidence.extend(props[tag] for props in member_props)
        return Hypothesis(MembershipProposal(x, set_),
                          tuple(dict.fromkeys(evidence)),
                          (len(shared), len(member_props)))
    return None


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


def apply_rules(rules: list[DefeasibleRule], kb: KnowledgeBase) -> int:
    """Store what :func:`rule_edges` concludes; asserted triples are left
    alone and a re-run adds nothing.  Returns the number of edges added."""
    added = rule_edges(rules, kb.edges())
    for edge in added:
        kb.assert_edge(edge.name, kb.by_id(edge.from_), kb.by_id(edge.to),
                       edge.value, edge.provenance)
    return len(added)


def generalize(elements: list[Entity], kb: KnowledgeBase) -> Optional[Hypothesis]:
    """Propose a set for elements sharing at least one property.

    The new set entity is created with UNKNOWN, abduced memberships for
    each element; its label derives from the best shared property.
    Returns None when the elements share nothing.
    """
    if len(elements) < 2:
        raise TooFewElementsError("generalization needs at least 2 elements")
    per_element, common = _held_by_all(kb, elements)
    if not common:
        return None
    shared = sorted(common, key=lambda t: _prop_sort_key(kb, t))
    best = shared[0]
    if best[0] == "rel":
        label = f"{best[1]} {kb.label(best[2])}".replace(" ", "-")
    else:
        label = f"in-{kb.label(best[1])}".replace(" ", "-")
    evidence = tuple(dict.fromkeys(props[best] for props in per_element))
    set_ = kb.upsert_entity(label)
    for ent in elements:
        if kb.membership(ent, set_) is None:
            kb.assert_membership(ent, set_, UNKNOWN,
                                 Provenance(Kind.ABDUCED, evidence))
    return Hypothesis(SetProposal(label, tuple(elements)), evidence,
                      (len(shared), len(elements)))
