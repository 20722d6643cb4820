"""The existence graph.

Entities, three-valued membership assertions, directed relation edges and
categorical propositions, all carrying a :class:`~exigraph.logic3.Value3`
plus provenance.  Existence of an element is its membership in a set;
absence of an assertion means UNKNOWN, never FALSE (open world).

Provenance kinds form a precedence order, ASSERTED > DEDUCED > ABDUCED.
A write of lower precedence over an existing higher-precedence item is
ignored, except that an ABDUCED write over an ASSERTED item raises
:class:`ConflictError` (conjecture may never even try to displace a fact).
Equal or higher precedence replaces.

Memberships are keyed element -> set and edges source -> (name, target),
so an entity's own rows are one lookup away; reads by set or target scan.
Only this module reads them: others call ``memberships(e)``/``edges(e)``.
Every admitted write bumps the revision, and the item it stores is named
after the revision it creates (``#<revision>``); a refused write moves
neither.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Iterator, Optional

from .logic3 import FALSE, TRUE, UNKNOWN, Value3, and3, any3


class KbError(Exception):
    pass


class ConflictError(KbError):
    """An abduced write tried to displace an asserted item."""


class Kind(enum.Enum):
    """Provenance kind, in decreasing order of authority."""

    ASSERTED = "asserted"
    DEDUCED = "deduced"
    ABDUCED = "abduced"


_RANK = {Kind.ASSERTED: 2, Kind.DEDUCED: 1, Kind.ABDUCED: 0}


@dataclass(frozen=True)
class Provenance:
    kind: Kind
    sources: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind is Kind.ASSERTED and self.sources:
            raise KbError("asserted items carry no sources")
        if self.kind is not Kind.ASSERTED and not self.sources:
            raise KbError(f"{self.kind.value} items need at least one source")


ASSERTED = Provenance(Kind.ASSERTED)


@dataclass(frozen=True)
class Entity:
    id: int
    label: str


@dataclass
class Membership:
    id: str
    element: int
    set_: int
    value: Value3
    provenance: Provenance


@dataclass
class Edge:
    id: str
    name: str
    from_: int
    to: int
    value: Value3
    provenance: Provenance


@dataclass
class Proposition:
    """A stored categorical proposition; ``form`` is one of A/E/I/O."""

    id: str
    form: str
    subject: int
    predicate: int
    value: Value3
    provenance: Provenance


ROOT_LABEL = "universe"

_WS = re.compile(r"\s+")


def canonical_label(label: str) -> str:
    """Lowercase, trim, collapse internal whitespace."""
    return _WS.sub(" ", label.strip().lower())


class KnowledgeBase:
    """Entity graph with three-valued assertions and provenance."""

    def __init__(self):
        self._entities: dict[int, Entity] = {}
        self._by_label: dict[str, int] = {}
        self._memberships: dict[int, dict[int, Membership]] = {}
        self._edges: dict[int, dict[tuple[str, int], Edge]] = {}
        self._propositions: dict[tuple[str, int, int], Proposition] = {}
        self._revision = 0
        self._next_entity = 1
        # the distinguished root; anchors existence_degree axiomatically
        self.root = self.upsert_entity(ROOT_LABEL)

    @property
    def revision(self) -> int:
        return self._revision

    def _new_id(self) -> str:
        """Bump the revision for an admitted write and name its item."""
        self._revision += 1
        return f"#{self._revision}"

    # -- entities ---------------------------------------------------------

    def upsert_entity(self, label: str) -> Entity:
        canon = canonical_label(label)
        if not canon:
            raise KbError("entity label is empty after canonicalization")
        if canon in self._by_label:
            return self._entities[self._by_label[canon]]
        ent = Entity(self._next_entity, canon)
        self._next_entity += 1
        self._entities[ent.id] = ent
        self._by_label[canon] = ent.id
        return ent

    def entity(self, label: str) -> Optional[Entity]:
        return self._entities.get(self._by_label.get(canonical_label(label), -1))

    def entities(self) -> list[Entity]:
        return sorted(self._entities.values(), key=lambda e: e.label)

    # -- writes -----------------------------------------------------------

    def _admit(self, old: Optional[Provenance], new: Provenance) -> bool:
        """Apply the override table; True means the write goes through."""
        if old is None or _RANK[new.kind] >= _RANK[old.kind]:
            return True
        if new.kind is Kind.ABDUCED and old.kind is Kind.ASSERTED:
            raise ConflictError("abduced write over an asserted item")
        return False

    def assert_membership(self, element: Entity, set_: Entity,
                          value: Value3, provenance: Provenance = ASSERTED) -> Optional[str]:
        """Record element-in-set; returns the item id, or None if overridden."""
        old = self.membership(element, set_)
        if not self._admit(old.provenance if old else None, provenance):
            return None
        item = Membership(self._new_id(), element.id, set_.id, value, provenance)
        self._memberships.setdefault(element.id, {})[set_.id] = item
        return item.id

    def assert_edge(self, name: str, from_: Entity, to: Entity,
                    value: Value3, provenance: Provenance = ASSERTED) -> Optional[str]:
        name = canonical_label(name)
        if not name:
            raise KbError("relation name is empty")
        old = self._edges.get(from_.id, {}).get((name, to.id))
        if not self._admit(old.provenance if old else None, provenance):
            return None
        item = Edge(self._new_id(), name, from_.id, to.id, value, provenance)
        self._edges.setdefault(from_.id, {})[(name, to.id)] = item
        return item.id

    def assert_proposition(self, form: str, subject: Entity, predicate: Entity,
                           value: Value3, provenance: Provenance = ASSERTED) -> Optional[str]:
        if form not in ("A", "E", "I", "O"):
            raise KbError(f"unknown proposition form {form!r}")
        if subject.id == predicate.id:
            raise KbError("trivial self-proposition rejected")
        key = (form, subject.id, predicate.id)
        old = self._propositions.get(key)
        if not self._admit(old.provenance if old else None, provenance):
            return None
        item = Proposition(self._new_id(), form, subject.id, predicate.id,
                           value, provenance)
        self._propositions[key] = item
        return item.id

    # -- reads ------------------------------------------------------------

    def items(self) -> Iterator[Membership | Edge | Proposition]:
        for table in (*self._memberships.values(), *self._edges.values(),
                      self._propositions):
            yield from table.values()

    def membership(self, element: Entity, set_: Entity) -> Optional[Membership]:
        return self._memberships.get(element.id, {}).get(set_.id)

    def memberships(self, element: Optional[Entity] = None) -> list[Membership]:
        """Every membership, or only ``element``'s, in label order."""
        rows = self._memberships.values() if element is None \
            else [self._memberships.get(element.id, {})]
        return sorted((m for by_set in rows for m in by_set.values()),
                      key=lambda m: (self.label(m.element), self.label(m.set_)))

    def edges(self, from_: Optional[Entity] = None) -> list[Edge]:
        """Every edge, or only those leaving ``from_``, in label order."""
        rows = self._edges.values() if from_ is None \
            else [self._edges.get(from_.id, {})]
        return sorted((e for by_target in rows for e in by_target.values()),
                      key=lambda e: (self.label(e.from_), e.name, self.label(e.to)))

    def edge(self, name: str, from_: Entity, to: Entity) -> Optional[Edge]:
        return self._edges.get(from_.id, {}).get((canonical_label(name), to.id))

    def propositions(self) -> list[Proposition]:
        return sorted(self._propositions.values(),
                      key=lambda p: (p.form, self.label(p.subject), self.label(p.predicate)))

    def proposition(self, form: str, subject: Entity, predicate: Entity) -> Optional[Proposition]:
        return self._propositions.get((form, subject.id, predicate.id))

    def label(self, entity_id: int) -> str:
        return self._entities[entity_id].label

    def by_id(self, entity_id: int) -> Entity:
        return self._entities[entity_id]

    def exists(self, element: Entity, context_set: Entity) -> Value3:
        """Membership value of element in context_set; UNKNOWN if unasserted."""
        item = self.membership(element, context_set)
        return item.value if item else UNKNOWN

    def members_true(self, set_: Entity) -> list[Entity]:
        """Known-TRUE members of a set, in label order."""
        out = [self._entities[element]
               for element, by_set in self._memberships.items()
               if (m := by_set.get(set_.id)) is not None and m.value is TRUE]
        return sorted(out, key=lambda e: e.label)

    def existence_degree(self, element: Entity) -> Value3:
        """Existence of ``element`` relative to an axiomatically existing root.

        Disjunction (or3) over all membership chains element -> ... -> root
        of the conjunction (and3) of assertion values along each chain.
        A chain that revisits an entity ends in an UNKNOWN tail (paradox
        tolerance); a chain that dead-ends contributes nothing.
        """
        root = self.root
        outgoing = {element: tuple(by_set.values())
                    for element, by_set in self._memberships.items()}

        def walk(node: int, visited: frozenset[int]) -> Optional[Value3]:
            if node == root.id:
                return TRUE
            vis = visited | {node}
            contribs: list[Value3] = []
            for m in outgoing.get(node, ()):
                if m.set_ in vis:
                    contribs.append(and3(m.value, UNKNOWN))
                else:
                    tail = walk(m.set_, vis)
                    if tail is not None:
                        contribs.append(and3(m.value, tail))
            return any3(contribs) if contribs else None

        result = walk(element.id, frozenset())
        return UNKNOWN if result is None else result

    def perceives(self, observer: Entity, obj: Entity) -> Value3:
        """Disjunction over all relation edges observer -> obj; UNKNOWN if none."""
        values = [e.value for e in self._edges.get(observer.id, {}).values()
                  if e.to == obj.id]
        return any3(values) if values else UNKNOWN

    def meta_sets(self) -> list[Entity]:
        """Sets of sets: entities with a non-FALSE member that itself has members."""
        live = [(m.element, m.set_) for by_set in self._memberships.values()
                for m in by_set.values() if m.value is not FALSE]
        nonempty = {set_ for _, set_ in live}
        metas = {self._entities[set_] for element, set_ in live
                 if element in nonempty}
        return sorted(metas, key=lambda e: e.label)
