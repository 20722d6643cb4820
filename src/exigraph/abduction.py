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

from .kb import Entity, Kind, KnowledgeBase, Provenance
from .logic3 import TRUE, UNKNOWN
from .syllogistics import CategoricalProposition


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


Proposal = Union[MembershipProposal, SetProposal, CategoricalProposition]


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


def _prop_sort_key(kb: KnowledgeBase, tag: tuple) -> tuple:
    if tag[0] == "rel":
        return ("rel", tag[1], kb.label(tag[2]))
    return ("mem", kb.label(tag[1]), "")


def abduce_membership(x: Entity, kb: KnowledgeBase) -> list[Hypothesis]:
    """Conjecture sets ``x`` may belong to, from properties shared with all
    known members; sorted by score descending, ties by set label."""
    x_props = _properties(kb, x)
    out: list[Hypothesis] = []
    for set_ in kb.entities():
        if set_.id == x.id:
            continue
        members = kb.members_true(set_)
        if not members:
            continue
        if kb.exists(x, set_) is TRUE:
            continue
        member_props = [_properties(kb, m) for m in members]
        common = set(member_props[0])
        for props in member_props[1:]:
            common &= set(props)
        common.discard(("mem", set_.id))
        shared = sorted(common & set(x_props),
                        key=lambda t: _prop_sort_key(kb, t))
        if not shared:
            continue
        evidence = []
        for tag in shared:
            evidence.append(x_props[tag])
            evidence.extend(props[tag] for props in member_props)
        out.append(Hypothesis(MembershipProposal(x, set_),
                              tuple(dict.fromkeys(evidence)),
                              (len(shared), len(members))))
    out.sort(key=lambda h: (-h.score[0], -h.score[1], h.proposition.set_.label))
    return out


def apply_rules(rules: list[DefeasibleRule], kb: KnowledgeBase) -> int:
    """Fire each rule over matching TRUE or abduced edges, adding UNKNOWN
    conclusion edges with ABDUCED provenance; asserted triples are left
    alone.  Runs to a fixpoint; idempotent on re-run."""
    added = 0
    while True:
        fired = 0
        for rule in rules:
            for edge in list(kb.edges()):
                if edge.name != rule.premise_verb:
                    continue
                if not (edge.value is TRUE or edge.provenance.kind is Kind.ABDUCED):
                    continue
                frm, to = kb.by_id(edge.from_), kb.by_id(edge.to)
                old = kb.edge(rule.conclusion_verb, frm, to)
                if old is not None:
                    continue
                prov = Provenance(Kind.ABDUCED, (rule.name, edge.id))
                if kb.assert_edge(rule.conclusion_verb, frm, to, UNKNOWN, prov):
                    fired += 1
        if not fired:
            return added
        added += fired


def generalize(elements: list[Entity], kb: KnowledgeBase) -> Optional[Hypothesis]:
    """Propose a set for elements sharing at least one property.

    The new set entity is created with UNKNOWN, abduced memberships for
    each element; its label derives from the best shared property.
    Returns None when the elements share nothing.
    """
    if len(elements) < 2:
        raise TooFewElementsError("generalization needs at least 2 elements")
    per_element = [_properties(kb, e) for e in elements]
    common = set(per_element[0])
    for props in per_element[1:]:
        common &= set(props)
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
