"""Independent brute-force oracles used by the tests.

These deliberately do not share code with the package: syllogism validity
is checked over bitmask models, syllogistic closure by naive all-pairs,
all-moods forward chaining with moods from those models, categorical
entailment by enumerating every model over Boolean types, existence
degree by explicit enumeration of all chains, abduction by a naive
scan of every (set, property) pair, and lexicon normal forms by walking
every sequence of single rewriting steps.  They stay independent of the
evaluators they check.
"""

from __future__ import annotations

import functools
import itertools

from exigraph.kb import Kind, Provenance
from exigraph.logic3 import FALSE, TRUE, UNKNOWN, Value3

# -- syllogism validity over bitmask models -------------------------------

_FIGURE_TERMS = {
    1: (("M", "P"), ("S", "M")),
    2: (("P", "M"), ("S", "M")),
    3: (("M", "P"), ("M", "S")),
    4: (("P", "M"), ("M", "S")),
}


def _form_holds(form: str, s: int, p: int) -> bool:
    if form == "A":
        return (s & ~p) == 0
    if form == "E":
        return (s & p) == 0
    if form == "I":
        return (s & p) != 0
    return (s & ~p) != 0


def oracle_countermodel(figure: int, forms: tuple[str, str, str],
                        existential_import: bool,
                        max_universe: int = 4, nonempty: str = ""):
    """Smallest countermodel (n, s, m, p) as bitmasks, or None if valid.

    With ``existential_import`` every term is nonempty; ``nonempty`` names
    the terms (of "SMP") that must be nonempty otherwise."""
    if existential_import:
        nonempty = "SMP"
    for n in range(max_universe + 1):
        size = 1 << n
        for s in range(size):
            for m in range(size):
                for p in range(size):
                    terms = {"S": s, "M": m, "P": p}
                    if any(terms[t] == 0 for t in nonempty):
                        continue
                    (a1, a2), (b1, b2) = _FIGURE_TERMS[figure]
                    if not _form_holds(forms[0], terms[a1], terms[a2]):
                        continue
                    if not _form_holds(forms[1], terms[b1], terms[b2]):
                        continue
                    if not _form_holds(forms[2], s, p):
                        return (n, s, m, p)
    return None


def oracle_mood_names(existential_import: bool, max_universe: int = 4) -> set[str]:
    out = set()
    for figure in (1, 2, 3, 4):
        for forms in itertools.product("AEIO", repeat=3):
            if oracle_countermodel(figure, forms, existential_import,
                                   max_universe) is None:
                out.add(f"{''.join(forms)}-{figure}")
    return out


# -- syllogistic closure by naive forward chaining ------------------------

@functools.lru_cache(maxsize=None)
def _oracle_moods(existential_import: bool):
    """(figure, forms, term whose nonemptiness it needs or None) of each
    valid mood, figure by figure, forms in A/E/I/O product order."""
    out = []
    for figure in (1, 2, 3, 4):
        for forms in itertools.product("AEIO", repeat=3):
            if oracle_countermodel(figure, forms, False) is None:
                out.append((figure, forms, None))
            elif existential_import \
                    and oracle_countermodel(figure, forms, True) is None:
                term = next(t for t in "SMP" if oracle_countermodel(
                    figure, forms, False, nonempty=t) is None)
                out.append((figure, forms, term))
    return out


def oracle_closure(kb, existential_import: bool = False) -> int:
    """Close ``kb`` the naive way: every round joins every ordered pair of
    stored TRUE propositions (in ``kb.propositions()`` order) under every
    valid mood (in table order), storing each conclusion not yet stored
    as DEDUCED from (major id, minor id).  A mood that needs a term
    nonempty fires only when that term has a known TRUE member.  Returns
    the number of propositions added."""
    moods = _oracle_moods(existential_import)
    added = 0
    while True:
        fired = 0
        stored = [q for q in kb.propositions() if q.value is TRUE]
        for major in stored:
            for minor in stored:
                for figure, forms, term in moods:
                    if (major.form, minor.form) != forms[:2]:
                        continue
                    slots = {}
                    (a1, a2), (b1, b2) = _FIGURE_TERMS[figure]
                    fits = all(slots.setdefault(t, e) == e for t, e in (
                        (a1, major.subject), (a2, major.predicate),
                        (b1, minor.subject), (b2, minor.predicate)))
                    if not fits or len(set(slots.values())) != 3:
                        continue
                    if term and not any(m.set_ == slots[term] and m.value is TRUE
                                        for m in kb.memberships()):
                        continue
                    s, p = kb.by_id(slots["S"]), kb.by_id(slots["P"])
                    if kb.proposition(forms[2], s, p) is not None:
                        continue
                    kb.assert_proposition(
                        forms[2], s, p, TRUE,
                        Provenance(Kind.DEDUCED, (major.id, minor.id)))
                    fired += 1
        if not fired:
            return added
        added += fired


# -- categorical entailment over Boolean types ----------------------------

def oracle_entailment(terms: list[str], individuals: list[str],
                      statements: list[tuple[str, str, str]],
                      questions: list[tuple[str, str, str]],
                      existential_import: bool = False):
    """What every model of ``statements`` says about each question.

    A statement is ``(form, s, p)`` with form A/E/I/O over two terms, or
    ``("in", x, s)`` / ``("out", x, s)`` for individual x in / not in term
    s.  A question is ``("is", x, s)``, ``("all", s, p)`` or
    ``("any", s, p)``.  Returns ``None`` when the statements have no model,
    else a dict question -> "yes" / "no" (the same in every model) or
    "open".

    A model is which *types* are inhabited, a type being a Boolean vector
    over the terms (bit i: in terms[i]), plus one type per individual,
    which is then inhabited too.  A/E/I/O only ask whether some inhabited
    type has a pair of bits, so for this fragment these models are exact:
    no bound on anonymous elements is needed.  With ``existential_import``
    every term has an inhabited type.
    """
    n = len(terms)
    bit = {t: 1 << i for i, t in enumerate(terms)}
    types = range(1 << n)

    def kinds(s, p, s_in, p_in):
        """Bitmask over types: those with s-bit s_in and p-bit p_in."""
        mask = 0
        for ty in types:
            if bool(ty & bit[s]) == s_in and bool(ty & bit[p]) == p_in:
                mask |= 1 << ty
        return mask

    def holds(form, s, p, domain):
        if form == "A":
            return not domain & kinds(s, p, True, False)
        if form == "E":
            return not domain & kinds(s, p, True, True)
        if form == "I":
            return bool(domain & kinds(s, p, True, True))
        return bool(domain & kinds(s, p, True, False))  # O

    def domain_ok(domain):
        if existential_import and any(
                not any(domain >> ty & 1 and ty & bit[t] for ty in types)
                for t in terms):
            return False
        return all(holds(form, s, p, domain)
                   for form, s, p in statements if form in "AEIO")

    def typing_ok(typing):
        return all((typing[x] & bit[s] != 0) == (form == "in")
                   for form, x, s in statements if form in ("in", "out"))

    domains = [d for d in range(1 << (1 << n)) if domain_ok(d)]
    # a model is a domain and a typing whose types it inhabits; categorical
    # questions read only the domain, is-a questions only the typing, so
    # collect the domains and the typings that occur in some model
    model_domains, model_typings = set(), []
    for combo in itertools.product(types, repeat=len(individuals)):
        typing = dict(zip(individuals, combo))
        if not typing_ok(typing):
            continue
        need = 0
        for ty in combo:
            need |= 1 << ty
        fits = [d for d in domains if d & need == need]
        if fits:
            model_domains.update(fits)
            model_typings.append(typing)
    if not model_typings:
        return None

    out = {}
    for question in questions:
        kind, a, b = question
        if kind == "is":
            seen = {typing[a] & bit[b] != 0 for typing in model_typings}
        else:
            form = "A" if kind == "all" else "I"
            seen = {holds(form, a, b, d) for d in model_domains}
        out[question] = ("open" if len(seen) == 2 else
                         "yes" if seen == {True} else "no")
    return out


# -- existence degree by chain enumeration --------------------------------

def oracle_existence_degree(memberships: dict[tuple[str, str], Value3],
                            start: str, root: str) -> Value3:
    """or3 over every chain start -> ... -> root (and3 of values along it);
    a chain hitting a repeated node contributes its prefix and3 UNKNOWN;
    dead ends contribute nothing.  Both folds are written out here, not
    taken from ``logic3``."""

    def and3_fold(chain: list[Value3]) -> Value3:
        if FALSE in chain:
            return FALSE
        if all(v is TRUE for v in chain):
            return TRUE
        return UNKNOWN

    contribs: list[Value3] = []
    if start == root:
        return TRUE
    stack: list[tuple[str, tuple[str, ...], list[Value3]]] = [(start, (start,), [])]
    while stack:
        node, path, values = stack.pop()
        for (elem, set_), value in sorted(memberships.items()):
            if elem != node:
                continue
            chain = values + [value]
            if set_ == root:
                contribs.append(and3_fold(chain))
            elif set_ in path:
                contribs.append(and3_fold(chain + [UNKNOWN]))
            else:
                stack.append((set_, path + (set_,), chain))
    if not contribs:
        return UNKNOWN
    out = contribs[0]
    for v in contribs[1:]:
        if TRUE in (out, v):
            out = TRUE
        elif out is FALSE and v is FALSE:
            out = FALSE
        else:
            out = UNKNOWN
    return out


# -- abduction by naive scan ----------------------------------------------

def oracle_abduce(kb, x) -> list[tuple[str, tuple[int, int]]]:
    """(set label, score) list a naive scan produces for abduce_membership."""
    from exigraph.logic3 import TRUE as T

    def props(ent_id):
        tags = set()
        for e in kb.edges():
            if e.from_ == ent_id and e.value is T:
                tags.add(("rel", e.name, e.to))
        for m in kb.memberships():
            if m.element == ent_id and m.value is T:
                tags.add(("mem", m.set_))
        return tags

    results = []
    for set_ in kb.entities():
        if set_.id == x.id:
            continue
        members = [m.element for m in kb.memberships()
                   if m.set_ == set_.id and m.value is T]
        if not members:
            continue
        if any(m.element == x.id and m.set_ == set_.id and m.value is T
               for m in kb.memberships()):
            continue
        shared = props(x.id)
        for mid in members:
            shared &= props(mid)
        shared.discard(("mem", set_.id))
        if shared:
            results.append((set_.label, (len(shared), len(members))))
    results.sort(key=lambda r: (-r[1][0], -r[1][1], r[0]))
    return results


# -- lexicon normal forms by every sequence of single steps ---------------

class TooManyPhrases(Exception):
    """The phrases reachable from one phrase exceed the oracle's budget."""


def _lexicon_steps(mapping: dict[str, str], phrase: str) -> list[str]:
    """Every phrase one step away: the whole phrase's entry, or, in a
    longer phrase, a one-word entry at one position."""
    out = [mapping[phrase]] if phrase in mapping else []
    words = phrase.split()
    if len(words) > 1:
        out += [" ".join(words[:i] + [mapping[w]] + words[i + 1:])
                for i, w in enumerate(words) if w in mapping]
    return out


def oracle_lexicon(mapping: dict[str, str], phrase: str,
                   max_words: int = 64,
                   max_phrases: int = 5000) -> tuple[set[str], bool]:
    """(every normal form of ``phrase``, whether some path loops).

    A path loops when it comes back to a phrase on it, or grows past
    ``max_words`` words (rewriting that only grows never comes back).
    Once a path loops the walk stops, so the forms may then be partial.
    Raises :class:`TooManyPhrases` past ``max_phrases`` phrases."""
    first = _lexicon_steps(mapping, phrase)
    if not first:
        return {phrase}, False
    forms, seen = set(), {phrase}
    path, on_path = [(phrase, iter(first))], {phrase}
    while path:
        current, steps = path[-1]
        nxt = next(steps, None)
        if nxt is None:
            path.pop()
            on_path.discard(current)
            continue
        if nxt in on_path or len(nxt.split()) > max_words:
            return forms, True
        if nxt in seen:
            continue
        seen.add(nxt)
        if len(seen) > max_phrases:
            raise TooManyPhrases(phrase)
        following = _lexicon_steps(mapping, nxt)
        if following:
            path.append((nxt, iter(following)))
            on_path.add(nxt)
        else:
            forms.add(nxt)
    return forms, False
