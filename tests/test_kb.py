import itertools

import pytest
from hypothesis import given, settings, strategies as st

from exigraph.kb import (ASSERTED, ConflictError, Edge, KbError, Kind,
                         KnowledgeBase, Membership, Provenance)
from exigraph.logic3 import FALSE, TRUE, UNKNOWN, VALUES, any3

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


# -- perception -----------------------------------------------------------

def test_perception_is_directional(kb):
    man, apple = kb.upsert_entity("man"), kb.upsert_entity("apple")
    kb.assert_edge("sees", man, apple, TRUE)
    assert kb.perceives(man, apple) is TRUE
    assert kb.perceives(apple, man) is UNKNOWN


def test_tractor_is_perceived_only_by_its_driver(kb):
    driver = kb.upsert_entity("tractor driver")
    villager = kb.upsert_entity("villager")
    tractor = kb.upsert_entity("tractor")
    kb.assert_edge("sees", driver, tractor, TRUE)
    assert kb.perceives(driver, tractor) is TRUE
    assert kb.perceives(villager, tractor) is UNKNOWN


def test_no_edges_at_all(kb):
    a, b = kb.upsert_entity("a"), kb.upsert_entity("b")
    assert kb.perceives(a, b) is UNKNOWN


def test_self_edge_supported(kb):
    thinker = kb.upsert_entity("thinker")
    kb.assert_edge("thinks about", thinker, thinker, TRUE)
    assert kb.perceives(thinker, thinker) is TRUE


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
_step = st.tuples(st.sampled_from(("mem", "edge")), st.sampled_from(_LABELS),
                  st.sampled_from(_VERBS), st.sampled_from(_LABELS),
                  st.sampled_from(VALUES), st.sampled_from(list(Kind)),
                  st.integers(1, 10))


def _reads_agree_with_items(kb):
    """Every read equals the same filter over ``items()``."""
    items = list(kb.items())
    mems = [i for i in items if isinstance(i, Membership)]
    edges = [i for i in items if isinstance(i, Edge)]
    mem_key = lambda m: (kb.label(m.element), kb.label(m.set_))  # noqa: E731
    edge_key = lambda e: (kb.label(e.from_), e.name, kb.label(e.to))  # noqa: E731
    assert kb.memberships() == sorted(mems, key=mem_key)
    assert kb.edges() == sorted(edges, key=edge_key)
    ents = kb.entities()
    for x in ents:
        assert kb.memberships(x) == sorted(
            (m for m in mems if m.element == x.id), key=mem_key)
        out = sorted((e for e in edges if e.from_ == x.id), key=edge_key)
        assert kb.edges(x) == out
        assert kb.members_true(x) == sorted(
            (kb.by_id(m.element) for m in mems
             if m.set_ == x.id and m.value is TRUE), key=lambda e: e.label)
        for y in ents:
            found = [m for m in mems if (m.element, m.set_) == (x.id, y.id)]
            assert kb.membership(x, y) is (found[0] if found else None)
            assert kb.exists(x, y) is (found[0].value if found else UNKNOWN)
            values = [e.value for e in out if e.to == y.id]
            assert kb.perceives(x, y) is (any3(values) if values else UNKNOWN)
            for verb in _VERBS:
                found = [e for e in out if (e.name, e.to) == (verb, y.id)]
                assert kb.edge(verb, x, y) is (found[0] if found else None)


@settings(max_examples=200, deadline=None)
@given(st.lists(_step, max_size=25))
def test_tables_match_a_model_of_writes_and_retracts(steps):
    kb = KnowledgeBase()
    ents = {label: kb.upsert_entity(label) for label in _LABELS}
    live: dict[tuple, tuple[str, Provenance]] = {}  # key -> (id, provenance)
    for table, x, verb, y, value, kind, source in steps:
        prov = ASSERTED if kind is Kind.ASSERTED \
            else Provenance(kind, (f"#{source}",))
        key = (x, y) if table == "mem" else (x, verb, y)
        old = live.get(key)
        write = (lambda: kb.assert_membership(ents[x], ents[y], value, prov)) \
            if table == "mem" \
            else (lambda: kb.assert_edge(verb, ents[x], ents[y], value, prov))
        revision = kb.revision
        if old and old[1].kind is Kind.ASSERTED and kind is Kind.ABDUCED:
            with pytest.raises(ConflictError):
                write()
        elif old is None or _RANK[kind] >= _RANK[old[1].kind]:
            live[key] = (write(), prov)
            revision += 1
            # an item is named after the revision its write creates
            assert live[key][0] == f"#{revision}"
        else:
            assert write() is None
        # a refused write moves neither the revision nor the next item id
        assert kb.revision == revision
        _reads_agree_with_items(kb)
        assert len(list(kb.items())) == len(live)
        assert {item.id for item in kb.items()} == {iid for iid, _ in live.values()}
