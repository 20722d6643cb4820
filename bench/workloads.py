"""Seeded workload generators for the exigraph benchmark.

A generator turns a seed into a :class:`Workload`: episodes of operations
(statement and question lines, KB files to check, membership graphs to
walk, save/load round trips) together with what is true in the concrete
world the generator built, so the runner can judge every verdict.  The
generators emit only statements true in that world; a definite verdict
must hold in every model of the statements, so it must hold in this one.

Sizes and shapes are fixed per workload and only the seed varies the
content (labels, orders, which pairs are related, which questions are
asked), so one run costs about the same whatever the seed.

Generators are pure: no clock, no file system, no engine import.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

WORKLOADS = ("dialogue", "syllogism", "existence")

# words the controlled language reserves, plus labels the engine owns
_RESERVED = {"a", "an", "the", "to", "at", "in", "on", "with", "is", "are",
             "all", "no", "some", "not", "did", "have", "when", "then",
             "universe", "was", "been", "man", "men", "person", "people"}
_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


@dataclass(frozen=True)
class Op:
    """One timed operation.

    ``kind`` is ``assert`` or ``ask`` (``text`` is the line), ``check``
    (``text`` is a KB file name, ``expect`` the exit code), ``existence``
    (every entity of the episode KB, then ``meta_sets``) or ``saveload``.
    For lines, ``expect`` is the exact first output line and ``more`` the
    exact lines after it (aims, or trace steps and suggestion); ``None``
    leaves them unchecked.  ``truth`` is whether the asked proposition
    holds in the generated world.
    """

    kind: str
    text: str = ""
    expect: Optional[str] = None
    more: Optional[tuple[str, ...]] = None
    truth: Optional[bool] = None


@dataclass
class Episode:
    """Operations on one session.  ``graph`` lists memberships
    ``(element, set, truth word)`` made through the KB API before the
    operations run: values no and unknown have no controlled-language form.
    """

    name: str
    ops: list[Op] = field(default_factory=list)
    graph: tuple[tuple[str, str, str], ...] = ()


@dataclass
class Workload:
    name: str
    seed: int
    episodes: list[Episode]
    files: dict[str, str]  # KB file name -> contents


def build(name: str, seed: int) -> Workload:
    if name == "dialogue":
        return dialogue(seed)
    if name == "syllogism":
        return syllogism(seed)
    if name == "existence":
        return existence(seed)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")


class _Namer:
    """Distinct pseudo-words: consonant-vowel syllables, so every word ends
    in a vowel and a plural (word + "s") never collides with another word."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set()

    def word(self, syllables: int = 2) -> str:
        while True:
            w = "".join(self.rng.choice(_CONSONANTS) + self.rng.choice(_VOWELS)
                        for _ in range(syllables))
            if w not in self.used and w not in _RESERVED:
                self.used.add(w)
                return w


def _article(noun: str) -> str:
    return "an" if noun[0] in "aeiou" else "a"


def _cap(word: str) -> str:
    return word[0].upper() + word[1:]


# -- the README dialogues --------------------------------------------------

SOCRATES = Episode("socrates", [
    Op("assert", "All men are mortal.", "ok #1", ()),
    Op("assert", "Socrates is a man.", "ok #2", ()),
    Op("ask", "Is Socrates a mortal?", "yes (proven)", truth=True),
])

MOON = Episode("moon", [
    Op("assert", "lexicon: people = person."),
    Op("assert", "lexicon: been to = was at."),
    Op("assert", "rule: X flew to Y => X was at Y."),
    Op("assert", "All astronauts are people."),
    Op("assert", "American astronauts flew to the Moon."),
    Op("ask", "Have people been to the Moon?", "unknown (plausible)", (
        "  1. [abduced] edge: american astronauts was at moon (conjectured)",
        "  2. [deduced] proposition: all american astronauts are person",
        "  3. [hypothesis] hypothesis: some person was at moon",
        "  suggested: yes",
    ), truth=True),
])


# -- dialogue: README dialogues, then a seeded world -------------------------

DIALOGUE_INDIVIDUALS = 60
DIALOGUE_PLACES = 8
DIALOGUE_EXTRA_EDGES = 4  # per individual, beside its leaf's signature edge
DIALOGUE_QUESTION_SHARE = 0.3
# after the script, on its final KB: save->load round trips and existence
# sweeps, and checks of the world's KB file and of a copy with a planted
# contradiction, each repeated so one pass gives a steady median
DIALOGUE_FINAL_REPEATS = 10
DIALOGUE_CHECK_REPEATS = 3  # per file
VERBS = ("flew to", "visited", "likes")
RULES = {"flew to": "was at", "visited": "saw"}


class _World:
    """Concrete extensions: category -> element set, plus SPO edges."""

    def __init__(self):
        self.ext: dict[str, set] = {}
        self.edges: set[tuple[str, str, str]] = set()

    def member(self, x, c) -> bool:
        return x in self.ext[c]

    def did(self, subject: str, verb: str, obj: str) -> bool:
        actors = self.ext.get(subject, {subject})
        return any((a, verb, obj) in self.edges for a in actors)


def dialogue(seed: int) -> Workload:
    """The shape is the same for every seed; the seed picks the labels, the
    places, the statement order and the questions."""
    rng = random.Random(f"dialogue:{seed}")
    namer = _Namer(rng)
    world = _World()

    # category tree: two roots, two middle categories under each, and two
    # leaves under the first middle category of each root.  Siblings are
    # disjoint and every leaf holds one anonymous element, so no category
    # is empty and every A, E, I and O statement below is true.
    r0, r1 = roots = [namer.word(), namer.word()]
    mids = [[namer.word(), namer.word()] for _ in roots]
    lows = [[namer.word(), namer.word()] for _ in roots]
    parent: dict[str, Optional[str]] = {r0: None, r1: None}
    for r, (m0, m1), low in zip(roots, mids, lows):
        parent[m0] = parent[m1] = r
        for x in low:
            parent[x] = m0
    leaves = [mids[0][1], mids[1][1], *lows[0], *lows[1]]
    cats = list(parent)
    for c in cats:
        world.ext[c] = set()

    def ancestors(c):  # c itself and every category above it
        while c is not None:
            yield c
            c = parent[c]

    def place_element(x, leaf):
        for c in ancestors(leaf):
            world.ext[c].add(x)

    for i, leaf in enumerate(leaves):
        place_element(("anon", i), leaf)
    places = [namer.word() for _ in range(DIALOGUE_PLACES)]
    plural = {r: r + "s" for r in roots}
    home = places[0]

    def surface(c):
        return plural.get(c, c)

    decls = [
        "lexicon: been to = was at.",
        *(f"lexicon: {plural[r]} = {r}." for r in roots),
        *(f"rule: X {p} Y => X {c} Y." for p, c in RULES.items()),
        f'trigger: when * flew to {home} then "welcome {{subject}}".',
    ]
    # the taxonomy first, then each individual's membership and edges;
    # questions are spread evenly, so the KB grows the same way every seed
    taxonomy: list[tuple[str, tuple]] = []  # (line, entities it mentions)
    for c in cats:
        if parent[c] is not None:
            taxonomy.append((f"All {surface(c)} are {parent[c]}.",
                             (c, parent[c])))
    for a, b in (mids[0], lows[1]):
        taxonomy.append((f"No {a} are {b}.", (a, b)))
    taxonomy.append((f"Some {surface(r0)} are {mids[0][1]}.",
                     (r0, mids[0][1])))
    taxonomy.append((f"Some {surface(r1)} are not {mids[1][0]}.",
                     (r1, mids[1][0])))
    rng.shuffle(taxonomy)

    # members of a leaf share its signature edge, which is what abduction
    # finds when an individual is stated only in the leaf's parent
    signature = {leaf: (VERBS[j % len(VERBS)], places[j % len(places)])
                 for j, leaf in enumerate(leaves)}
    individuals = []
    entailed: dict[str, set] = {c: set(ancestors(c)) for c in cats}
    for i in range(DIALOGUE_INDIVIDUALS):
        x = namer.word()
        leaf = leaves[i % len(leaves)]
        place_element(x, leaf)
        stated = leaf if i % 5 != 4 else parent[leaf]
        entailed[x] = entailed[stated]
        lines = [(f"{_cap(x)} is {_article(stated)} {stated}.", (x, stated))]
        edges = [signature[leaf]]
        while len(edges) < 1 + DIALOGUE_EXTRA_EDGES:
            edge = (rng.choice(VERBS), rng.choice(places))
            if edge not in edges:
                edges.append(edge)
        for verb, obj in edges:
            world.edges.add((x, verb, obj))
            if verb in RULES:
                world.edges.add((x, RULES[verb], obj))
            lines.append((f"{_cap(x)} {verb} {obj}.", (x, obj)))
        individuals.append(lines)
    rng.shuffle(individuals)
    facts = taxonomy + [fact for lines in individuals for fact in lines]

    share = DIALOGUE_QUESTION_SHARE / (1 - DIALOGUE_QUESTION_SHARE)
    n_questions = round(len(facts) * share)

    ops = [Op("assert", line, more=()) for line in decls]
    known = {"cats": [], "people": [], "places": []}
    qi = 0
    for i, (line, ents) in enumerate(facts):
        aims = ()
        if line.endswith(f" flew to {home}."):
            aims = (f"aim: welcome {line.split()[0].lower()}",)
        ops.append(Op("assert", line, more=aims))
        for e in ents:
            bucket = known["cats" if e in world.ext else
                           "places" if e in places else "people"]
            if e not in bucket:
                bucket.append(e)
        while qi < min(n_questions, round((i + 1) * share)):
            # once the taxonomy is in, "x is in an ancestor of its stated
            # category" and "all c are <ancestor of c>" must be proven
            proven = entailed if i >= len(taxonomy) else {}
            ops.append(_dialogue_question(rng, qi, world, surface, proven,
                                          **known))
            qi += 1
    ops += [Op("existence")] * DIALOGUE_FINAL_REPEATS
    ops += [Op("check", "dialogue.kb", "0"),
            Op("check", "planted.kb", "2")] * DIALOGUE_CHECK_REPEATS
    ops += [Op("saveload")] * DIALOGUE_FINAL_REPEATS

    lines = [line for line, _ in facts]
    # the planted line contradicts the derived "all <leaf> are <root>"
    planted = f"Some {lows[0][0]} are not {r0}."
    files = {"dialogue.kb": _kb_file(decls, lines),
             "planted.kb": _kb_file(decls, lines + [planted])}
    return Workload("dialogue", seed, [SOCRATES, MOON, Episode("world", ops)],
                    files)


def _dialogue_question(rng, q, world, surface, proven, cats, people,
                       places):
    """The q-th question.  Kinds and categorical subjects take turns, so
    every seed asks as many of each and about every category alike (a
    question about a big category costs more): kind 0 is-a, 1 are-all,
    2 are-any, 3 did/have.  A kind whose entities are not mentioned yet
    falls back to a categorical question (the script starts with the
    taxonomy).  ``proven`` maps an entity to the categories it is entailed
    to be in."""
    kind = q % 4
    if kind == 3 and not places:
        kind = 0
    if kind == 0 and not people:
        kind = 1
    if kind == 0:
        x = rng.choice(people)
        held = [c for c in cats if world.member(x, c)]
        c = rng.choice(held) if held and rng.random() < 0.5 \
            else rng.choice(cats)
        return Op("ask", f"Is {_cap(x)} {_article(c)} {c}?",
                  "yes (proven)" if c in proven.get(x, ()) else None,
                  truth=world.member(x, c))
    if kind in (1, 2):
        s = cats[q // 4 % len(cats)]
        p = rng.choice([c for c in cats if c != s])
        if kind == 1:
            return Op("ask", f"Are all {surface(s)} {p}?",
                      "yes (proven)" if p in proven.get(s, ()) else None,
                      truth=world.ext[s] <= world.ext[p])
        return Op("ask", f"Are any {surface(s)} {p}?",
                  truth=bool(world.ext[s] & world.ext[p]))
    subject = rng.choice(people) if rng.random() < 0.7 else rng.choice(cats)
    obj = rng.choice(places)
    said = surface(subject) if subject in world.ext else subject
    if rng.random() < 0.25:
        return Op("ask", f"Have {said} been to {obj}?",
                  truth=world.did(subject, "was at", obj))
    verb = rng.choice(VERBS + ("saw",))
    return Op("ask", f"Did {said} {verb} {obj}?",
              truth=world.did(subject, verb, obj))


def _kb_file(decls: list[str], facts: list[str]) -> str:
    return "".join(line + "\n" for line in decls + facts)


# -- syllogism: categorical forests written as KB files ---------------------

SYLLOGISM_LINKS = 7
SYLLOGISM_CLEAN_FILES = 9  # typed and checked; one more carries a contradiction
SYLLOGISM_ASKED_FILES = 4  # clean files followed by questions
SYLLOGISM_QUESTIONS = 26  # per asked file
SYLLOGISM_ENTAILED = (6, 2)  # A-chain and E-branch questions per asked file


def syllogism(seed: int) -> Workload:
    """Each file is a chain of A links with one E, one I and one O branch
    at fixed positions, so closure does the same work for every seed; the
    seed picks the labels, the statement order and the questions."""
    rng = random.Random(f"syllogism:{seed}")
    namer = _Namer(rng)
    episodes, files = [], {}
    links = SYLLOGISM_LINKS
    for idx in range(SYLLOGISM_CLEAN_FILES + 1):
        planted = idx == SYLLOGISM_CLEAN_FILES
        name = f"forest{idx}.kb"
        chain = [namer.word() for _ in range(links + 1)]
        # the world: chain[i] = {0 .. i+1}, strictly nested; beside it the
        # E branch of chain[k] is {k+2, x}, the I branch {0, y} and the O
        # branch {z}, with x, y and z in no chain link
        lines = [f"All {a} are {b}." for a, b in zip(chain, chain[1:])]
        branches = [namer.word() for _ in range(3)]
        e_at = links // 3
        lines += [f"No {chain[e_at]} are {branches[0]}.",
                  f"Some {chain[links // 2]} are {branches[1]}.",
                  f"Some {chain[2 * links // 3]} are not {branches[2]}."]
        if planted:  # contradicts the derived "All chain[1] are chain[-2]"
            lines.append(f"Some {chain[1]} are not {chain[-2]}.")
        rng.shuffle(lines)
        files[name] = _kb_file([], lines)
        ops = [Op("assert", line, more=()) for line in lines]
        ops.append(Op("check", name, "2" if planted else "0"))
        if idx >= SYLLOGISM_ASKED_FILES:
            episodes.append(Episode(name, ops))
            continue
        # entailed questions settle at lookup once closure has run; the
        # others ask for reversed chain links, which nothing entails, so
        # they re-run closure and reach abduction every time
        n_chain, n_branch = SYLLOGISM_ENTAILED
        asks = []
        for q in range(SYLLOGISM_QUESTIONS):
            if q < n_chain:
                i = rng.randrange(links - 1)
                j = rng.randrange(i + 2, links + 1)
                asks.append(Op("ask", f"Are all {chain[i]} {chain[j]}?",
                               "yes (proven)", truth=True))
            elif q < n_chain + n_branch:
                i = rng.randrange(e_at)
                asks.append(Op("ask", f"Are any {chain[i]} {branches[0]}?",
                               "no (proven)", truth=False))
            else:
                i = rng.randrange(links)
                j = rng.randrange(i + 1, links + 1)
                if rng.random() < 0.5:
                    asks.append(Op("ask", f"Are all {chain[j]} {chain[i]}?",
                                   truth=False))
                else:
                    asks.append(Op("ask", f"Are any {chain[j]} {chain[i]}?",
                                   truth=True))
        rng.shuffle(asks)
        episodes.append(Episode(name, ops + asks))
    return Workload("syllogism", seed, episodes, files)


# -- existence: dense membership graphs -------------------------------------

# (nodes, out-degree) of the graphs in one round of the batch; the batch
# repeats the round so every seed gets the same mix of sizes
EXISTENCE_ROUND = ((10, 3), (10, 4), (10, 5), (11, 3), (11, 4), (12, 3),
                   (12, 4))
EXISTENCE_ROUNDS = 30
_TRUTH_WORDS = ("yes", "unknown", "no")
_TRUTH_WEIGHTS = (5, 3, 2)


def existence(seed: int) -> Workload:
    """One episode per graph: the walk of every node, then one question
    and one statement, the least that gives the question and statement
    metrics enough samples; the last graph of each round is also saved,
    loaded and checked.  The seed picks the labels, the edges and their
    values, the question and the added membership."""
    rng = random.Random(f"existence:{seed}")
    namer = _Namer(rng)
    episodes, files = [], {}
    for g in range(EXISTENCE_ROUNDS * len(EXISTENCE_ROUND)):
        n, degree = EXISTENCE_ROUND[g % len(EXISTENCE_ROUND)]
        nodes = [namer.word() for _ in range(n)]
        graph = []
        for x in nodes:
            targets = rng.sample([y for y in nodes if y != x] + ["universe"],
                                 degree)
            for t in targets:
                graph.append((x, t, rng.choices(_TRUTH_WORDS,
                                                _TRUTH_WEIGHTS)[0]))
        value = {(e, s): v for e, s, v in graph}
        x, s = rng.sample(nodes, 2)
        word = value.get((x, s))
        expect = {"yes": "yes (proven)", "no": "no (proven)"}.get(word)
        truth = None if word in (None, "unknown") else word == "yes"
        while True:
            e, t = rng.sample(nodes, 2)
            if (e, t) not in value:
                break
        ops = [Op("existence"),
               Op("ask", f"Is {_cap(x)} {_article(s)} {s}?", expect,
                  truth=truth),
               Op("assert", f"{_cap(e)} is {_article(t)} {t}.", more=())]
        if g % len(EXISTENCE_ROUND) == len(EXISTENCE_ROUND) - 1:
            name = f"graph{g:03d}.kb"
            files[name] = _kb_file([], sorted(
                f"{_cap(a)} is {_article(b)} {b}."
                for a, b, v in graph if v == "yes"))
            ops += [Op("saveload"), Op("check", name, "0")]
        episodes.append(Episode(f"graph{g:03d}", ops, tuple(graph)))
    return Workload("existence", seed, episodes, files)
