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
so an entity's own rows are one lookup away, and :meth:`rows` hands them
over unsorted to a caller that only collects them.  The same write also
files the item in a reverse map: memberships set -> element, and edges
(target, verb) -> a list in source label order, filed by ``bisect``
beside the source labels as the entailment index's lists are.  So a
set's members, and the edges of one verb into an entity, are one lookup
away too.

The KB also keeps the index that :func:`~exigraph.syllogistics.entails`
reads, so a question walks it instead of rebuilding it from every row.
One rule says what a definite verdict may rest on, here and in
:mod:`~exigraph.qa`: an item is :func:`stated` when it is TRUE and not
abduced, and :func:`settled` when it is definite and not abduced.  A
settled membership is a *unit* of its element.

- Each stated A or E proposition files its two implications between
  literals (:func:`clauses`) in :meth:`implications`.  Each literal's
  list is in :meth:`propositions` order, and a literal no stated row
  mentions has no list.
- Each stated I or O proposition is filed in :meth:`particulars`, in
  :meth:`propositions` order.
- Elements holding the same units form a class, and
  :meth:`unit_classes` maps each class's units to the lowest of its
  elements' labels.  A membership write only marks its element; the next
  read of the classes re-files the marked elements, so writes stay as
  cheap as they were and a read costs what changed since the last one.

An overwrite that makes a row stop qualifying takes it out of the index.
Only this module reads the maps: others call ``memberships(e)``,
``edges(e)``, ``rows(e)``, ``members(s)``, ``members_true(s)``,
``edges_into(t, verb)``, ``implications()``, ``particulars()``,
``units(e)`` or ``unit_classes()``, and read what ``edges_into``,
``implications``, ``particulars`` and ``unit_classes`` return without
changing it.  Every admitted write bumps the revision, and the item it
stores is named after the revision it creates (``#<revision>``); a
refused write moves neither.
"""

from __future__ import annotations

import bisect
import enum
from dataclasses import dataclass
from typing import Collection, Iterator, Optional

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


def canonical_label(label: str) -> str:
    """Lowercase, trim, collapse internal whitespace."""
    return " ".join(label.lower().split())


Literal = tuple[int, bool]  # (set entity id, in the set?)


def clauses(form: str, s: int, p: int) -> tuple[tuple[Literal, Literal], ...]:
    """The implications ``form(s, p)`` gives, for A or E: A gives s -> p
    and not p -> not s, E gives s -> not p and p -> not s."""
    inside = form == "A"
    return ((s, True), (p, inside)), ((p, not inside), (s, False))


def stated(item: Membership | Edge | Proposition) -> bool:
    """TRUE and not abduced: an item a verdict may cite as holding."""
    return item.value is TRUE and item.provenance.kind is not Kind.ABDUCED


def settled(item: Membership | Edge | Proposition) -> bool:
    """Definite and not abduced: an item a verdict may rest on."""
    return item.value.is_definite() and item.provenance.kind is not Kind.ABDUCED


class KnowledgeBase:
    """Entity graph with three-valued assertions and provenance."""

    def __init__(self):
        self._entities: dict[int, Entity] = {}
        self._by_label: dict[str, int] = {}
        self._memberships: dict[int, dict[int, Membership]] = {}
        self._members: dict[int, dict[int, Membership]] = {}  # set -> element
        self._edges: dict[int, dict[tuple[str, int], Edge]] = {}
        # (target, verb) -> the edges, beside their source labels, in
        # label order
        self._edges_into: dict[tuple[int, str], list[Edge]] = {}
        self._sources_into: dict[tuple[int, str], list[str]] = {}
        self._propositions: dict[tuple[str, int, int], Proposition] = {}
        # the entailment index; each list beside the (form, subject label,
        # predicate label) of the rows it holds, for filing them in order
        self._implies: dict[Literal, list[Literal]] = {}
        self._implies_keys: dict[Literal, list[tuple[str, str, str]]] = {}
        self._particulars: list[Proposition] = []
        self._particular_keys: list[tuple[str, str, str]] = []
        # units -> the lowest label holding them, and the elements that
        # do; element -> its units
        self._classes: dict[tuple[Literal, ...], str] = {}
        self._holders: dict[tuple[Literal, ...], set[int]] = {}
        self._class_of: dict[int, tuple[Literal, ...]] = {}
        self._unfiled: set[int] = set()  # elements written since the last read
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

    def _id_of(self, label: str) -> Optional[int]:
        # a key is canonical, so a canonical label is found as it is
        found = self._by_label.get(label)
        if found is None:
            found = self._by_label.get(canonical_label(label))
        return found

    def upsert_entity(self, label: str) -> Entity:
        found = self._id_of(label)
        if found is not None:
            return self._entities[found]
        canon = canonical_label(label)
        if not canon:
            raise KbError("entity label is empty after canonicalization")
        ent = Entity(self._next_entity, canon)
        self._next_entity += 1
        self._entities[ent.id] = ent
        self._by_label[canon] = ent.id
        return ent

    def entity(self, label: str) -> Optional[Entity]:
        found = self._id_of(label)
        return None if found is None else self._entities[found]

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
        self._members.setdefault(set_.id, {})[element.id] = item
        self._unfiled.add(element.id)
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
        key = (to.id, name)
        into = self._edges_into.setdefault(key, [])
        sources = self._sources_into.setdefault(key, [])
        if old is not None:
            _refile(sources, into, from_.label, old, False)
        _refile(sources, into, from_.label, item, True)
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
        if old is not None and stated(old):
            self._index(old, False)
        if stated(item):
            self._index(item, True)
        return item.id

    def _index(self, row: Proposition, filed: bool) -> None:
        """File a stated row in the entailment index, or take it out."""
        key = (row.form, self.label(row.subject), self.label(row.predicate))
        if row.form in ("I", "O"):
            _refile(self._particular_keys, self._particulars, key, row, filed)
            return
        for src, dst in clauses(row.form, row.subject, row.predicate):
            keys = self._implies_keys.setdefault(src, [])
            lits = self._implies.setdefault(src, [])
            _refile(keys, lits, key, dst, filed)
            if not keys:
                del self._implies_keys[src], self._implies[src]

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

    def edges_into(self, to: Entity, verb: str) -> list[Edge]:
        """The ``verb`` edges into ``to``, in source label order."""
        return self._edges_into.get((to.id, canonical_label(verb)), [])

    def rows(self, entity: Entity
             ) -> tuple[Collection[Membership], Collection[Edge]]:
        """``entity``'s own memberships and edges, unsorted."""
        return (self._memberships.get(entity.id, {}).values(),
                self._edges.get(entity.id, {}).values())

    def edge(self, name: str, from_: Entity, to: Entity) -> Optional[Edge]:
        return self._edges.get(from_.id, {}).get((canonical_label(name), to.id))

    def propositions(self) -> list[Proposition]:
        return sorted(self._propositions.values(),
                      key=lambda p: (p.form, self.label(p.subject), self.label(p.predicate)))

    def proposition(self, form: str, subject: Entity, predicate: Entity) -> Optional[Proposition]:
        return self._propositions.get((form, subject.id, predicate.id))

    def implications(self) -> dict[Literal, list[Literal]]:
        """Each literal's implications, from the stated A and E rows."""
        return self._implies

    def particulars(self) -> list[Proposition]:
        """The stated I and O rows, in :meth:`propositions` order."""
        return self._particulars

    def units(self, element: Entity) -> tuple[Literal, ...]:
        """``element``'s units, in set label order."""
        return tuple(sorted(
            ((m.set_, m.value is TRUE)
             for m in self._memberships.get(element.id, {}).values()
             if settled(m)), key=lambda unit: self.label(unit[0])))

    def unit_classes(self) -> dict[tuple[Literal, ...], str]:
        """Each class's units, in set label order, mapped to the lowest
        label of the elements holding them; elements with no units are in
        no class."""
        for element in self._unfiled:
            label = self.label(element)
            old = self._class_of.pop(element, None)
            if old is not None:
                holders = self._holders[old]
                holders.discard(element)
                if not holders:
                    del self._classes[old], self._holders[old]
                elif self._classes[old] == label:
                    self._classes[old] = min(map(self.label, holders))
            units = self.units(self.by_id(element))
            if units:
                self._class_of[element] = units
                self._holders.setdefault(units, set()).add(element)
                self._classes[units] = min(self._classes.get(units, label),
                                           label)
        self._unfiled.clear()
        return self._classes

    def label(self, entity_id: int) -> str:
        return self._entities[entity_id].label

    def by_id(self, entity_id: int) -> Entity:
        return self._entities[entity_id]

    def exists(self, element: Entity, context_set: Entity) -> Value3:
        """Membership value of element in context_set; UNKNOWN if unasserted."""
        item = self.membership(element, context_set)
        return item.value if item else UNKNOWN

    def members(self, set_: Entity) -> Collection[Membership]:
        """The memberships into ``set_``, unsorted."""
        return self._members.get(set_.id, {}).values()

    def members_true(self, set_: Entity) -> list[Entity]:
        """Known-TRUE members of a set, in label order."""
        return sorted((self._entities[element] for element, m
                       in self._members.get(set_.id, {}).items()
                       if m.value is TRUE), key=lambda e: e.label)

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

    def meta_sets(self) -> list[Entity]:
        """Sets of sets: entities with a non-FALSE member that itself has members."""
        live = [(m.element, m.set_) for by_set in self._memberships.values()
                for m in by_set.values() if m.value is not FALSE]
        nonempty = {set_ for _, set_ in live}
        metas = {self._entities[set_] for element, set_ in live
                 if element in nonempty}
        return sorted(metas, key=lambda e: e.label)


def _refile(keys: list, values: list, key, value, filed: bool) -> None:
    """Insert ``value`` at ``key``'s place in the sorted ``keys``, or
    remove the value filed there."""
    at = bisect.bisect_left(keys, key)
    if filed:
        keys.insert(at, key)
        values.insert(at, value)
    else:
        del keys[at], values[at]
