import contextlib
import itertools
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from exigraph.kb import (ASSERTED, ConflictError, Edge, KbError, Kind,
                         KnowledgeBase, Membership, Proposition, Provenance,
                         canonical_label, settled, stated)
from exigraph.logic3 import FALSE, TRUE, UNKNOWN, VALUES

from oracles import oracle_existence_degree

DEDUCED = Provenance(Kind.DEDUCED, ("seed",))
ABDUCED = Provenance(Kind.ABDUCED, ("seed",))
PROV = {Kind.ASSERTED: ASSERTED, Kind.DEDUCED: DEDUCED, Kind.ABDUCED: ABDUCED}


@pytest.fixture
def kb():
    return KnowledgeBase()


# -- entities -------------------------------------------------------------

def test_upsert_canonicalizes(kb):
    assert kb.upsert_entity("Moon").label == "moon"
    assert kb.upsert_entity("  Red   Apple ").label == "red apple"


# Unicode whitespace beyond ASCII, and letters whose lowercase is longer
# ("İ") or depends on the next character (a final "Σ")
_LABEL_TEXT = st.text(st.sampled_from(
    list(" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2009\u2028\u3000")
    + list("aZİΣσ\u0307ẞ#.")))


@settings(max_examples=500, deadline=None)
@given(st.one_of(_LABEL_TEXT, st.text()))
def test_canonical_label_keeps_its_meaning(text):
    assert canonical_label(text) == re.sub(r"\s+", " ", text.strip().lower())


def test_upsert_is_idempotent(kb):
    a = kb.upsert_entity("apple")
    b = kb.upsert_entity("apple")
    assert a.id == b.id


def test_upsert_rejects_empty_label(kb):
    with pytest.raises(KbError):
        kb.upsert_entity("   ")


# -- membership and the override table ------------------------------------

def test_exists_reads_back_assertion(kb):
    apple, garden = kb.upsert_entity("apple"), kb.upsert_entity("garden")
    kb.assert_membership(apple, garden, TRUE)
    assert kb.exists(apple, garden) is TRUE


def test_exists_defaults_to_unknown(kb):
    a, b = kb.upsert_entity("a"), kb.upsert_entity("b")
    assert kb.exists(a, b) is UNKNOWN


def test_exists_asserted_false(kb):
    a, b = kb.upsert_entity("a"), kb.upsert_entity("b")
    kb.assert_membership(a, b, FALSE)
    assert kb.exists(a, b) is FALSE


def test_explicit_unknown_assertion_is_stored(kb):
    x, s = kb.upsert_entity("x"), kb.upsert_entity("s")
    assert kb.assert_membership(x, s, UNKNOWN) is not None
    assert kb.exists(x, s) is UNKNOWN


def test_abduced_never_overrides_asserted(kb):
    a, b = kb.upsert_entity("a"), kb.upsert_entity("b")
    kb.assert_membership(a, b, FALSE, ASSERTED)
    with pytest.raises(ConflictError):
        kb.assert_membership(a, b, UNKNOWN, ABDUCED)
    assert kb.exists(a, b) is FALSE


def test_override_table_all_kind_pairs():
    # asserted beats deduced beats abduced; equal kind replaces
    rank = {Kind.ASSERTED: 2, Kind.DEDUCED: 1, Kind.ABDUCED: 0}
    for old_kind, new_kind in itertools.product(Kind, repeat=2):
        kb = KnowledgeBase()
        a, b = kb.upsert_entity("a"), kb.upsert_entity("b")
        kb.assert_membership(a, b, TRUE, PROV[old_kind])
        if old_kind is Kind.ASSERTED and new_kind is Kind.ABDUCED:
            with pytest.raises(ConflictError):
                kb.assert_membership(a, b, UNKNOWN, PROV[new_kind])
            continue
        written = kb.assert_membership(a, b, UNKNOWN, PROV[new_kind])
        if rank[new_kind] >= rank[old_kind]:
            assert written is not None
            assert kb.exists(a, b) is UNKNOWN
        else:
            assert written is None
            assert kb.exists(a, b) is TRUE


def test_revision_strictly_increases(kb):
    a, b = kb.upsert_entity("a"), kb.upsert_entity("b")
    seen = [kb.revision]
    kb.assert_membership(a, b, TRUE)
    seen.append(kb.revision)
    kb.assert_edge("sees", a, b, TRUE)
    seen.append(kb.revision)
    kb.assert_membership(a, b, FALSE)  # replacement counts
    seen.append(kb.revision)
    assert seen == sorted(set(seen))
    # an overridden (skipped) write is not a mutation
    kb.assert_membership(a, b, TRUE, DEDUCED)
    assert kb.revision == seen[-1]


# -- what a verdict may rest on -------------------------------------------

# (value, kind) -> (stated, settled)
_RESTS_ON = {
    (TRUE, Kind.ASSERTED): (True, True),
    (TRUE, Kind.DEDUCED): (True, True),
    (TRUE, Kind.ABDUCED): (False, False),
    (FALSE, Kind.ASSERTED): (False, True),
    (FALSE, Kind.DEDUCED): (False, True),
    (FALSE, Kind.ABDUCED): (False, False),
    (UNKNOWN, Kind.ASSERTED): (False, False),
    (UNKNOWN, Kind.DEDUCED): (False, False),
    (UNKNOWN, Kind.ABDUCED): (False, False),
}


@pytest.mark.parametrize("value, kind", list(_RESTS_ON))
@pytest.mark.parametrize("table", ["membership", "edge", "proposition"])
def test_stated_and_settled_by_value_and_provenance(kb, table, value, kind):
    a, b = kb.upsert_entity("a"), kb.upsert_entity("b")
    if table == "membership":
        kb.assert_membership(a, b, value, PROV[kind])
    elif table == "edge":
        kb.assert_edge("sees", a, b, value, PROV[kind])
    else:
        kb.assert_proposition("A", a, b, value, PROV[kind])
    [item] = kb.items()
    assert (stated(item), settled(item)) == _RESTS_ON[value, kind]


# -- existence degree -----------------------------------------------------

def chain(kb, *links):
    for elem, set_, value in links:
        kb.assert_membership(kb.upsert_entity(elem), kb.upsert_entity(set_),
                             value)


def test_all_true_chain(kb):
    chain(kb, ("a", "b", TRUE), ("b", "universe", TRUE))
    assert kb.existence_degree(kb.entity("a")) is TRUE


def test_unknown_parent_limits_degree(kb):
    chain(kb, ("a", "b", TRUE), ("b", "universe", UNKNOWN))
    assert kb.existence_degree(kb.entity("a")) is UNKNOWN


def test_self_cycle_without_root_path_is_unknown(kb):
    chain(kb, ("a", "a", TRUE))
    assert kb.existence_degree(kb.entity("a")) is UNKNOWN


def test_root_exists_axiomatically(kb):
    assert kb.existence_degree(kb.root) is TRUE


def test_any_parent_suffices(kb):
    chain(kb, ("a", "b", TRUE), ("b", "universe", FALSE),
          ("a", "c", TRUE), ("c", "universe", TRUE))
    assert kb.existence_degree(kb.entity("a")) is TRUE


labels = st.sampled_from(list("abcde"))
memberships_st = st.dictionaries(
    st.tuples(st.sampled_from(list("abcde") + ["universe"]),
              st.sampled_from(list("abcde") + ["universe"])),
    st.sampled_from(VALUES), max_size=12)


@settings(max_examples=200, deadline=None)
@given(memberships_st, labels)
def test_existence_degree_matches_chain_enumeration(memberships, start):
    kb = KnowledgeBase()
    for (elem, set_), value in memberships.items():
        kb.assert_membership(kb.upsert_entity(elem), kb.upsert_entity(set_),
                             value)
    got = kb.existence_degree(kb.upsert_entity(start))
    want = oracle_existence_degree(memberships, start, "universe")
    assert got is want


@settings(max_examples=100, deadline=None)
@given(memberships_st, labels)
def test_existence_degree_knowledge_monotone(memberships, start):
    kb = KnowledgeBase()
    for (elem, set_), value in memberships.items():
        kb.assert_membership(kb.upsert_entity(elem), kb.upsert_entity(set_),
                             value)
    ent = kb.upsert_entity(start)
    before = kb.existence_degree(ent)
    extra = kb.upsert_entity("zz")  # fresh, never drawn by the strategy
    kb.assert_membership(ent, extra, TRUE)
    kb.assert_membership(extra, kb.root, TRUE)
    after = kb.existence_degree(ent)
    assert after is TRUE or (before is not TRUE and after is before)


# -- meta sets ------------------------------------------------------------

def test_meta_sets_nested(kb):
    chain(kb, ("a", "b", TRUE), ("b", "c", TRUE))
    assert [e.label for e in kb.meta_sets()] == ["c"]


def test_meta_sets_flat(kb):
    chain(kb, ("a", "b", TRUE))
    assert kb.meta_sets() == []


def test_meta_sets_empty(kb):
    assert kb.meta_sets() == []


def test_meta_sets_matches_brute_scan(kb):
    chain(kb, ("a", "b", TRUE), ("b", "c", TRUE), ("c", "d", UNKNOWN),
          ("x", "y", FALSE), ("y", "z", TRUE))
    brute = []
    for ent in kb.entities():
        members = [m.element for m in kb.memberships()
                   if m.set_ == ent.id and m.value is not FALSE]
        if any(any(i.set_ == mid and i.value is not FALSE
                   for i in kb.memberships()) for mid in members):
            brute.append(ent.label)
    assert [e.label for e in kb.meta_sets()] == brute


# -- the table layout -----------------------------------------------------

_LABELS = ("a", "b", "c", "universe")
_VERBS = ("sees", "likes")
_RANK = {Kind.ASSERTED: 2, Kind.DEDUCED: 1, Kind.ABDUCED: 0}
_TABLES = ("mem", "edge", "A", "E", "I", "O")  # the forms name propositions
_step = st.tuples(st.sampled_from(_TABLES), st.sampled_from(_LABELS),
                  st.sampled_from(_VERBS), st.sampled_from(_LABELS),
                  st.sampled_from(VALUES), st.sampled_from(list(Kind)),
                  st.integers(1, 10))


def _reads_agree_with_items(kb):
    """Every read equals the same filter over ``items()``."""
    items = list(kb.items())
    mems = [i for i in items if isinstance(i, Membership)]
    edges = [i for i in items if isinstance(i, Edge)]
    props = [i for i in items if isinstance(i, Proposition)]
    mem_key = lambda m: (kb.label(m.element), kb.label(m.set_))  # noqa: E731
    edge_key = lambda e: (kb.label(e.from_), e.name, kb.label(e.to))  # noqa: E731
    assert kb.memberships() == sorted(mems, key=mem_key)
    assert kb.edges() == sorted(edges, key=edge_key)
    assert kb.propositions() == sorted(props, key=lambda p: (
        p.form, kb.label(p.subject), kb.label(p.predicate)))
    ents = kb.entities()
    for x in ents:
        assert kb.memberships(x) == sorted(
            (m for m in mems if m.element == x.id), key=mem_key)
        out = sorted((e for e in edges if e.from_ == x.id), key=edge_key)
        assert kb.edges(x) == out
        own_mems, own_edges = kb.rows(x)
        assert sorted(own_mems, key=mem_key) == kb.memberships(x)
        assert sorted(own_edges, key=edge_key) == out
        assert sorted(kb.members(x), key=mem_key) == sorted(
            (m for m in mems if m.set_ == x.id), key=mem_key)
        for verb in _VERBS:
            assert kb.edges_into(x, verb) == sorted(
                (e for e in edges if e.to == x.id and e.name == verb),
                key=edge_key)
        assert kb.members_true(x) == sorted(
            (kb.by_id(m.element) for m in mems
             if m.set_ == x.id and m.value is TRUE), key=lambda e: e.label)
        for y in ents:
            found = [m for m in mems if (m.element, m.set_) == (x.id, y.id)]
            assert kb.membership(x, y) is (found[0] if found else None)
            assert kb.exists(x, y) is (found[0].value if found else UNKNOWN)
            for verb in _VERBS:
                found = [e for e in out if (e.name, e.to) == (verb, y.id)]
                assert kb.edge(verb, x, y) is (found[0] if found else None)
            for form in "AEIO":
                found = [p for p in props
                         if (p.form, p.subject, p.predicate) == (form, x.id, y.id)]
                assert kb.proposition(form, x, y) is (found[0] if found else None)


def _index_agrees_with_rows(kb):
    """The entailment index equals one rebuilt from the rows: the A/E
    implications in ``propositions()`` order, the stated I/O rows, and
    each class's units mapped to the lowest label of the elements holding
    them."""
    stated = [q for q in kb.propositions()
              if q.value is TRUE and q.provenance.kind is not Kind.ABDUCED]
    graph = {}
    for q in stated:
        if q.form in "AE":
            inside = q.form == "A"
            graph.setdefault((q.subject, True), []).append((q.predicate, inside))
            graph.setdefault((q.predicate, not inside), []).append((q.subject, False))
    assert kb.implications() == graph
    assert kb.particulars() == [q for q in stated if q.form in "IO"]
    classes = {}
    for element, rows in itertools.groupby(kb.memberships(),
                                           key=lambda m: m.element):
        units = tuple((m.set_, m.value is TRUE) for m in rows
                      if m.value.is_definite()
                      and m.provenance.kind is not Kind.ABDUCED)
        if units:
            label = kb.label(element)
            classes[units] = min(classes.get(units, label), label)
        assert kb.units(kb.by_id(element)) == units
    assert kb.unit_classes() == classes


@settings(max_examples=200, deadline=None)
@given(st.lists(_step, max_size=25))
# the lowest-label element of a class leaves it
@example([("mem", "a", "sees", "b", TRUE, Kind.ASSERTED, 1),
          ("mem", "c", "sees", "b", TRUE, Kind.ASSERTED, 1),
          ("mem", "a", "sees", "c", FALSE, Kind.DEDUCED, 1)])
def test_tables_match_a_model_of_writes_and_retracts(steps):
    kb = KnowledgeBase()
    # the same writes, with the index read only at the end: many elements
    # are filed at once
    batched = KnowledgeBase()
    ents = {label: kb.upsert_entity(label) for label in _LABELS}
    for label in _LABELS:
        batched.upsert_entity(label)
    live: dict[tuple, tuple[str, Provenance]] = {}  # key -> (id, provenance)
    for table, x, verb, y, value, kind, source in steps:
        prov = ASSERTED if kind is Kind.ASSERTED \
            else Provenance(kind, (f"#{source}",))
        if table == "mem":
            key = (x, y)
            write = lambda k: k.assert_membership(  # noqa: E731
                k.entity(x), k.entity(y), value, prov)
        elif table == "edge":
            key = (x, verb, y)
            write = lambda k: k.assert_edge(  # noqa: E731
                verb, k.entity(x), k.entity(y), value, prov)
        else:
            key = (table, x, y)
            write = lambda k: k.assert_proposition(  # noqa: E731
                table, k.entity(x), k.entity(y), value, prov)
        old = live.get(key)
        revision = kb.revision
        if table in "AEIO" and x == y:
            with pytest.raises(KbError):
                write(kb)
            with pytest.raises(KbError):
                write(batched)
        elif old and old[1].kind is Kind.ASSERTED and kind is Kind.ABDUCED:
            with pytest.raises(ConflictError):
                write(kb)
            with pytest.raises(ConflictError):
                write(batched)
        elif old is None or _RANK[kind] >= _RANK[old[1].kind]:
            live[key] = (write(kb), prov)
            assert write(batched) == live[key][0]
            revision += 1
            # an item is named after the revision its write creates
            assert live[key][0] == f"#{revision}"
        else:
            assert write(kb) is None
            assert write(batched) is None
        # a refused write moves neither the revision nor the next item id
        assert kb.revision == revision
        _reads_agree_with_items(kb)
        _index_agrees_with_rows(kb)
        assert len(list(kb.items())) == len(live)
        assert {item.id for item in kb.items()} == {iid for iid, _ in live.values()}
    _index_agrees_with_rows(batched)


# sources upserted out of label order, into two targets
_EDGE_LABELS = ("d", "b", "universe", "a", "c")
_edge_write = st.tuples(st.sampled_from(_EDGE_LABELS), st.sampled_from(_VERBS),
                        st.sampled_from(_EDGE_LABELS[:2]),
                        st.sampled_from(VALUES), st.sampled_from(list(Kind)))


@settings(max_examples=200, deadline=None)
@given(st.lists(_edge_write, max_size=30))
# a new source before the first, an overwrite by a higher kind, a refused
# lower-kind write, and a conflict, each into a list of three
@example([("d", "sees", "b", TRUE, Kind.ABDUCED),
          ("c", "sees", "b", TRUE, Kind.ASSERTED),
          ("a", "sees", "b", UNKNOWN, Kind.DEDUCED),
          ("d", "sees", "b", FALSE, Kind.DEDUCED),
          ("d", "sees", "b", TRUE, Kind.ABDUCED),
          ("c", "sees", "b", FALSE, Kind.ABDUCED),
          ("c", "likes", "b", TRUE, Kind.ASSERTED)])
def test_edges_into_a_target_are_filed_by_verb_in_source_order(writes):
    kb = KnowledgeBase()
    ents = {label: kb.upsert_entity(label) for label in _EDGE_LABELS}
    for frm, verb, to, value, kind in writes:
        with contextlib.suppress(ConflictError):
            kb.assert_edge(verb, ents[frm], ents[to], value, PROV[kind])
        for target in ents.values():
            for name in _VERBS:
                assert kb.edges_into(target, name) == [
                    e for e in kb.edges()
                    if e.to == target.id and e.name == name]
