import random

import pytest

from exigraph import syllogistics
from exigraph.kb import ASSERTED, Kind, KnowledgeBase, Provenance
from exigraph.logic3 import FALSE, TRUE, UNKNOWN
from exigraph.syllogistics import (CategoricalProposition, InvalidMoodError,
                                   Mood, closure, contradictions,
                                   eval_proposition, infer_syllogism,
                                   valid_moods)

from oracles import oracle_closure, oracle_countermodel, oracle_mood_names


def prop(kb, form, s, p):
    return CategoricalProposition(form, kb.upsert_entity(s), kb.upsert_entity(p))


def store(kb, form, s, p, value=TRUE, prov=ASSERTED):
    kb.assert_proposition(form, kb.upsert_entity(s), kb.upsert_entity(p),
                          value, prov)


# -- the mood table -------------------------------------------------------

def test_fifteen_unconditional_moods():
    names = {m.name for m in valid_moods(False)}
    assert len(names) == 15
    assert {"AAA-1", "EAE-1", "AII-1", "EIO-1"} <= names


def test_twenty_four_with_import():
    assert len(valid_moods(True)) == 24


def test_aaa2_absent_with_countermodel():
    assert "AAA-2" not in {m.name for m in valid_moods(True)}
    cm = oracle_countermodel(2, ("A", "A", "A"), True)
    assert cm is not None and cm[0] <= 3


def test_table_matches_independent_oracle_without_import():
    assert {m.name for m in valid_moods(False)} == oracle_mood_names(False, 3)


def test_import_only_moods_are_flagged():
    conditional = {m.name for m in valid_moods(True)} \
        - {m.name for m in valid_moods(False)}
    assert conditional == {"AAI-1", "EAO-1", "AEO-2", "EAO-2", "AAI-3",
                           "EAO-3", "AAI-4", "AEO-4", "EAO-4"}
    for m in valid_moods(True):
        assert m.requires_import == (m.name in conditional)
        if m.requires_import:
            assert m.import_term in ("S", "M", "P")


# -- single-step inference ------------------------------------------------

def mood(name):
    forms, figure = name.split("-")
    return next(m for m in valid_moods(True)
                if m.figure == int(figure) and "".join(m.forms) == forms)


def test_barbara():
    kb = KnowledgeBase()
    concl = infer_syllogism(prop(kb, "A", "men", "mortal"),
                            prop(kb, "A", "greeks", "men"), mood("AAA-1"), ())
    assert concl == prop(kb, "A", "greeks", "mortal")


def test_darapti_needs_a_known_member():
    kb = KnowledgeBase()
    major = prop(kb, "A", "m", "p")
    minor = prop(kb, "A", "m", "s")
    m = kb.entity("m")
    assert infer_syllogism(major, minor, mood("AAI-3"), ()) is None
    assert infer_syllogism(major, minor, mood("AAI-3"), {m.id}) \
        == prop(kb, "I", "s", "p")
    # closure reads which sets have a known member off the KB
    store(kb, "A", "m", "p")
    store(kb, "A", "m", "s")
    assert closure(kb, True) == 0
    kb.assert_membership(kb.upsert_entity("x"), m, TRUE)
    assert closure(kb, True) > 0
    assert kb.proposition("I", kb.entity("s"), kb.entity("p")).value is TRUE


def test_no_shared_middle_term():
    kb = KnowledgeBase()
    assert infer_syllogism(prop(kb, "A", "a", "b"),
                           prop(kb, "A", "c", "d"), mood("AAA-1"), ()) is None


def test_invalid_mood_rejected():
    kb = KnowledgeBase()
    bogus = Mood(2, ("A", "A", "A"), False)
    with pytest.raises(InvalidMoodError):
        infer_syllogism(prop(kb, "A", "a", "b"),
                        prop(kb, "A", "c", "a"), bogus, ())


# -- evaluation -----------------------------------------------------------

def test_eval_after_closure():
    kb = KnowledgeBase()
    store(kb, "A", "men", "mortal")
    store(kb, "A", "greeks", "men")
    closure(kb)
    assert eval_proposition(kb, prop(kb, "A", "greeks", "mortal")) is TRUE


def test_eval_counterexample_beats_store():
    kb = KnowledgeBase()
    store(kb, "A", "s", "p")
    kb.assert_membership(kb.upsert_entity("socrates"), kb.upsert_entity("s"), TRUE)
    kb.assert_membership(kb.upsert_entity("socrates"), kb.upsert_entity("p"), FALSE)
    assert eval_proposition(kb, prop(kb, "A", "s", "p")) is FALSE
    assert contradictions(kb)  # reported, not silently resolved


def test_eval_fresh_pair_unknown():
    kb = KnowledgeBase()
    assert eval_proposition(kb, prop(kb, "A", "x", "y")) is UNKNOWN


def test_eval_particular_witness():
    kb = KnowledgeBase()
    kb.assert_membership(kb.upsert_entity("x"), kb.upsert_entity("s"), TRUE)
    kb.assert_membership(kb.upsert_entity("x"), kb.upsert_entity("p"), TRUE)
    assert eval_proposition(kb, prop(kb, "I", "s", "p")) is TRUE
    assert eval_proposition(kb, prop(kb, "E", "s", "p")) is FALSE


# -- closure --------------------------------------------------------------

def test_closure_transitive_chain():
    kb = KnowledgeBase()
    store(kb, "A", "a", "b")
    store(kb, "A", "b", "c")
    store(kb, "A", "c", "d")
    assert closure(kb) == 3
    for s, p in (("a", "c"), ("b", "d"), ("a", "d")):
        stored = kb.proposition("A", kb.upsert_entity(s), kb.upsert_entity(p))
        assert stored is not None and stored.value is TRUE
        assert stored.provenance.kind is Kind.DEDUCED
        assert len(stored.provenance.sources) == 2


def test_closure_fixpoint_and_empty():
    kb = KnowledgeBase()
    assert closure(kb) == 0
    store(kb, "A", "a", "b")
    store(kb, "A", "b", "c")
    closure(kb)
    assert closure(kb) == 0


def test_closure_deterministic_across_insert_order():
    def run(pairs):
        kb = KnowledgeBase()
        for s, p in pairs:
            store(kb, "A", s, p)
        closure(kb)
        return {(q.form, kb.label(q.subject), kb.label(q.predicate))
                for q in kb.propositions()}

    pairs = [("a", "b"), ("b", "c"), ("c", "d"), ("e", "b")]
    assert run(pairs) == run(list(reversed(pairs)))


def test_closure_monotone_under_added_fact():
    kb1 = KnowledgeBase()
    store(kb1, "A", "a", "b")
    store(kb1, "A", "b", "c")
    closure(kb1)
    base = {(p.form, kb1.label(p.subject), kb1.label(p.predicate))
            for p in kb1.propositions()}

    kb2 = KnowledgeBase()
    store(kb2, "A", "a", "b")
    store(kb2, "A", "b", "c")
    store(kb2, "A", "c", "d")
    closure(kb2)
    bigger = {(p.form, kb2.label(p.subject), kb2.label(p.predicate))
              for p in kb2.propositions()}
    assert base <= bigger


def _random_kb(seed: int) -> KnowledgeBase:
    """3-7 terms, up to 10 propositions of every value, some abduced, and
    TRUE/FALSE memberships of two individuals."""
    rng = random.Random(seed)
    kb = KnowledgeBase()
    terms = [kb.upsert_entity(f"t{i}") for i in range(rng.randint(3, 7))]
    keys = [(form, s, p) for form in "AEIO" for s in terms for p in terms
            if s != p]
    for form, s, p in rng.sample(keys, rng.randint(1, 10)):
        prov = ASSERTED if rng.random() < 0.8 \
            else Provenance(Kind.ABDUCED, ("hypothesis",))
        kb.assert_proposition(form, s, p,
                              rng.choice((TRUE, TRUE, TRUE, FALSE, UNKNOWN)),
                              prov)
    for x in (kb.upsert_entity("x"), kb.upsert_entity("y")):
        for set_ in rng.sample(terms, rng.randint(0, 2)):
            kb.assert_membership(x, set_, rng.choice((TRUE, FALSE)))
    return kb


@pytest.mark.parametrize("existential_import", [False, True])
def test_closure_matches_the_naive_oracle(existential_import):
    # the semi-naive, indexed closure stores exactly what a naive pass over
    # all pairs and all moods stores: the same ids, values and sources
    fired = 0
    for seed in range(300):
        kb, reference = _random_kb(seed), _random_kb(seed)
        added = closure(kb, existential_import)
        assert added == oracle_closure(reference, existential_import), seed
        assert kb.revision == reference.revision, seed
        assert list(kb.items()) == list(reference.items()), seed
        fired += added > 0
    assert fired > 100  # the survey exercises the closure, not only no-ops


def _branched_chain(kb: KnowledgeBase, links: int) -> None:
    """An A chain a0 -> ... -> a<links>, with "no a<links> are e",
    "some b are a0" and "some c are not a<links>" hanging off it."""
    terms = [f"a{i}" for i in range(links + 1)]
    for s, p in zip(terms, terms[1:]):
        store(kb, "A", s, p)
    store(kb, "E", terms[-1], "e")
    store(kb, "I", "b", terms[0])
    store(kb, "O", "c", terms[-1])


def _branched_chain_closure(links: int) -> int:
    # the chain's A(ai, aj) for i < j, less the links: n(n-1)/2; E(ai, e)
    # and E(e, ai) for i < n: 2n; I(b, aj) and I(aj, b) for j > 0: 2n;
    # O(c, ai) for i < n: n; and O(b, e)
    n = links
    return n * (n - 1) // 2 + 5 * n + 1


@pytest.mark.parametrize("links", [1, 2, 3, 5])
def test_branched_chain_count_matches_the_oracle(links):
    kb = KnowledgeBase()
    _branched_chain(kb, links)
    assert oracle_closure(kb) == _branched_chain_closure(links)


def test_forty_link_chain_closes_with_few_mood_attempts(monkeypatch):
    calls = 0
    infer = syllogistics.infer_syllogism

    def counted(*args):
        nonlocal calls
        calls += 1
        return infer(*args)

    monkeypatch.setattr(syllogistics, "infer_syllogism", counted)
    for existential_import in (False, True):
        calls = 0
        kb = KnowledgeBase()
        _branched_chain(kb, 40)
        assert closure(kb, existential_import) \
            == _branched_chain_closure(40) == 981
        # measured: 18,040 attempts, one per premise pair that shares its
        # figure's middle term under a mood of its forms; a naive pass
        # over every pair and mood in each of the 7 rounds makes 36.6
        # million.  With import but no set inhabited, no import mood can
        # fire and none is tried: the same 18,040.
        assert calls <= 20_000, existential_import


def test_deduced_propositions_have_no_countermodel():
    # soundness: every deduced proposition follows from the premises
    kb = KnowledgeBase()
    store(kb, "A", "men", "mortal")
    store(kb, "A", "greeks", "men")
    store(kb, "E", "mortal", "gods")
    closure(kb)
    premises = [("A", "men", "mortal"), ("A", "greeks", "men"),
                ("E", "mortal", "gods")]
    terms = sorted({t for _, s, p in premises for t in (s, p)})
    for stored in kb.propositions():
        if stored.provenance.kind is not Kind.DEDUCED:
            continue
        concl = (stored.form, kb.label(stored.subject), kb.label(stored.predicate))
        assert _entailed(premises, concl, terms), concl


def _entailed(premises, concl, terms):
    import itertools
    from oracles import _form_holds
    for n in range(4):
        for masks in itertools.product(range(1 << n), repeat=len(terms)):
            ext = dict(zip(terms, masks))
            if all(_form_holds(f, ext[s], ext[p]) for f, s, p in premises):
                f, s, p = concl
                if not _form_holds(f, ext[s], ext[p]):
                    return False
    return True
