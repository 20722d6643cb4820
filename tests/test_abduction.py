import contextlib

import pytest
from hypothesis import given, settings, strategies as st

from exigraph.abduction import (DefeasibleRule, abduce_membership,
                                apply_rules, candidate, premise_verbs,
                                rule_edges)
from exigraph.kb import ConflictError, Kind, KnowledgeBase, Provenance
from exigraph.logic3 import FALSE, TRUE, UNKNOWN

from oracles import oracle_abduce


def build(kb, memberships=(), edges=()):
    for elem, set_ in memberships:
        kb.assert_membership(kb.upsert_entity(elem), kb.upsert_entity(set_), TRUE)
    for frm, verb, to in edges:
        kb.assert_edge(verb, kb.upsert_entity(frm), kb.upsert_entity(to), TRUE)


# -- abduce_membership ----------------------------------------------------

def test_shared_property_suggests_membership():
    kb = KnowledgeBase()
    build(kb,
          memberships=[("alice", "people"), ("bob", "people")],
          edges=[("alice", "breathes", "air"), ("bob", "breathes", "air"),
                 ("astronaut", "breathes", "air")])
    hyps = abduce_membership(kb.entity("astronaut"), kb)
    assert any(h.set_.label == "people" for h in hyps)
    top = hyps[0]
    assert top.score == (1, 2)
    assert top.evidence


def test_empty_kb_yields_nothing():
    kb = KnowledgeBase()
    x = kb.upsert_entity("x")
    assert abduce_membership(x, kb) == []


def test_known_member_not_resuggested():
    kb = KnowledgeBase()
    build(kb, memberships=[("a", "s"), ("b", "s")],
          edges=[("a", "flies", "sky"), ("b", "flies", "sky")])
    assert all(h.set_.label != "s"
               for h in abduce_membership(kb.entity("a"), kb))


def test_memberless_sets_attract_no_hypotheses():
    kb = KnowledgeBase()
    build(kb, edges=[("x", "glows", "dark")])
    kb.upsert_entity("ghosts")  # a set nobody is known to inhabit
    assert abduce_membership(kb.entity("x"), kb) == []


names = st.sampled_from(list("abcdef"))
verbs = st.sampled_from(["flies", "breathes", "orbits"])
kb_strategy = st.tuples(
    st.lists(st.tuples(names, names), max_size=8),
    st.lists(st.tuples(names, verbs, names), max_size=8))


@settings(max_examples=150, deadline=None)
@given(kb_strategy, names)
def test_matches_naive_enumerator_on_random_kbs(layout, x_label):
    memberships, edges = layout
    kb = KnowledgeBase()
    build(kb, memberships=memberships, edges=edges)
    x = kb.upsert_entity(x_label)
    got = [(h.set_.label, h.score) for h in abduce_membership(x, kb)]
    assert got == oracle_abduce(kb, x)


@settings(max_examples=150, deadline=None)
@given(kb_strategy, st.lists(names, max_size=4), names)
def test_candidate_is_the_first_elements_hypothesis(layout, xs, set_label):
    memberships, edges = layout
    kb = KnowledgeBase()
    build(kb, memberships=memberships, edges=edges)
    elements = [kb.upsert_entity(x) for x in xs]
    set_ = kb.upsert_entity(set_label)
    want = next((h for x in sorted(elements, key=lambda e: e.label)
                 for h in abduce_membership(x, kb)
                 if h.set_ == set_), None)
    assert candidate(iter(elements), set_, kb) == want


@settings(max_examples=100, deadline=None)
@given(kb_strategy, names)
def test_never_writes_definite_values(layout, x_label):
    memberships, edges = layout
    kb = KnowledgeBase()
    build(kb, memberships=memberships, edges=edges)
    x = kb.upsert_entity(x_label)
    before = {(i.id, i.value) for i in kb.items()}
    hyps = abduce_membership(x, kb)
    apply_rules([DefeasibleRule("flies", "was seen above")], kb)
    after = {i.id: i for i in kb.items()}
    for item_id, value in before:
        assert after[item_id].value is value  # nothing pre-existing touched
    for item in after.values():
        if item.provenance.kind is Kind.ABDUCED:
            assert item.value is UNKNOWN
    assert all(h.score and h.evidence for h in hyps)


def test_deterministic_ordering():
    kb = KnowledgeBase()
    build(kb,
          memberships=[("a", "s1"), ("b", "s2")],
          edges=[("a", "flies", "sky"), ("b", "flies", "sky"),
                 ("x", "flies", "sky")])
    first = [(h.set_.label, h.score, h.evidence)
             for h in abduce_membership(kb.entity("x"), kb)]
    second = [(h.set_.label, h.score, h.evidence)
              for h in abduce_membership(kb.entity("x"), kb)]
    assert first == second
    assert [s for s, _, _ in first] == ["s1", "s2"]  # tie broken by label


# -- apply_rules ----------------------------------------------------------

def test_rule_fires_on_true_edge():
    kb = KnowledgeBase()
    build(kb, edges=[("astronauts", "flew to", "moon")])
    rule = DefeasibleRule("flew to", "was at")
    assert apply_rules([rule], kb) == 1
    edge = kb.edge("was at", kb.entity("astronauts"), kb.entity("moon"))
    assert edge.value is UNKNOWN
    assert edge.provenance.kind is Kind.ABDUCED
    assert rule.name in edge.provenance.sources


def test_rules_idempotent():
    kb = KnowledgeBase()
    build(kb, edges=[("astronauts", "flew to", "moon")])
    rule = DefeasibleRule("flew to", "was at")
    apply_rules([rule], kb)
    assert apply_rules([rule], kb) == 0


def test_false_premise_never_fires():
    kb = KnowledgeBase()
    kb.assert_edge("flew to", kb.upsert_entity("a"), kb.upsert_entity("b"), FALSE)
    assert apply_rules([DefeasibleRule("flew to", "was at")], kb) == 0


def test_asserted_conclusion_left_alone():
    kb = KnowledgeBase()
    build(kb, edges=[("a", "flew to", "b")])
    kb.assert_edge("was at", kb.entity("a"), kb.entity("b"), FALSE)
    assert apply_rules([DefeasibleRule("flew to", "was at")], kb) == 0
    assert kb.edge("was at", kb.entity("a"), kb.entity("b")).value is FALSE


def test_rules_chain_to_fixpoint():
    kb = KnowledgeBase()
    build(kb, edges=[("a", "flew to", "b")])
    rules = [DefeasibleRule("flew to", "was at"),
             DefeasibleRule("was at", "saw")]
    assert apply_rules(rules, kb) == 2


def test_rule_edges_draw_what_apply_rules_stores_and_store_nothing():
    kb = KnowledgeBase()
    build(kb, edges=[("a", "flew to", "b")])
    rules = [DefeasibleRule("flew to", "was at"),
             DefeasibleRule("was at", "saw")]
    revision = kb.revision
    drawn = {(e.name, e.from_, e.to) for e in rule_edges(rules, kb.edges())}
    assert kb.revision == revision
    apply_rules(rules, kb)
    assert drawn == {(e.name, e.from_, e.to) for e in kb.edges()
                     if e.provenance.kind is Kind.ABDUCED}
    assert len(drawn) == 2


_rule = st.tuples(verbs, verbs).filter(lambda r: r[0] != r[1])
_edge = st.tuples(names, verbs, names, st.sampled_from((TRUE, FALSE, UNKNOWN)),
                  st.booleans())


@settings(max_examples=150, deadline=None)
@given(st.lists(_edge, max_size=10), st.lists(_rule, max_size=4), names,
       verbs)
def test_rule_edges_over_the_edges_into_an_object(edges, rules, obj, verb):
    # a rule keeps (subject, object): drawing over the edges into one
    # object gives exactly the into-object part of drawing over them all.
    # A did-question draws over one actor's edges into the object, of the
    # verbs that reach the asked one: that gives the pair's edges of the
    # verb, citing the same premises, too
    kb = KnowledgeBase()
    for frm, premise, to, value, abduced in edges:
        prov = Provenance(Kind.ABDUCED, ("hypothesis",)) if abduced \
            else Provenance(Kind.ASSERTED)
        with contextlib.suppress(ConflictError):
            kb.assert_edge(premise, kb.upsert_entity(frm),
                           kb.upsert_entity(to), value, prov)
    rules = [DefeasibleRule(*rule) for rule in rules]
    target = kb.upsert_entity(obj).id
    everything = rule_edges(rules, kb.edges())
    into = rule_edges(rules, [e for e in kb.edges() if e.to == target])
    assert into == [e for e in everything if e.to == target]
    reaching = premise_verbs(rules, verb)
    for pair in {(e.from_, e.to) for e in kb.edges()}:
        own = [e for e in kb.edges()
               if (e.from_, e.to) == pair and e.name in reaching]
        assert [e for e in rule_edges(rules, own) if e.name == verb] \
            == [e for e in everything
                if (e.from_, e.to) == pair and e.name == verb]


# -- the abduce/assert loop terminates ------------------------------------

def test_hermeneutic_loop_reaches_fixpoint():
    kb = KnowledgeBase()
    build(kb,
          memberships=[("a", "s"), ("b", "s")],
          edges=[("a", "flies", "sky"), ("b", "flies", "sky"),
                 ("c", "flies", "sky"), ("d", "flies", "sky")])
    for _ in range(10):
        new = 0
        for ent in kb.entities():
            for hyp in abduce_membership(ent, kb):
                if kb.membership(hyp.element, hyp.set_) is None:
                    kb.assert_membership(hyp.element, hyp.set_, UNKNOWN,
                                         Provenance(Kind.ABDUCED, hyp.evidence))
                    new += 1
        if new == 0:
            break
    else:
        pytest.fail("no fixpoint within 10 rounds")
