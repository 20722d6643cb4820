"""Controlled-language statements and questions.

A closed grammar, one construct per line, case-insensitive, ``#`` starts a
comment.  Statements: membership ("Socrates is a man."), the four
categorical forms, subject-verb-object relations, defeasible rules,
lexicon entries and trigger declarations.  A :class:`Question` asks
whether a statement holds: is-a a membership, are-all and are-any an A
or I categorical, did/have an SPO relation.  Each construct has one
record, which the parser builds and a session keeps as parsed; a
question's line is read, and the statement it asks built, as a
statement's is, and :data:`READS` says how each categorical form reads.

Verb-phrase boundaries in SPO constructs are resolved positionally: the
verb is the token immediately before the first preposition (from the fixed
list to/at/in/on/with) plus the following run of prepositions; with no
preposition present, the verb is the second-to-last token.  Noun phrases
may span several words but may not contain prepositions or grammar
keywords.  Articles are dropped during canonicalization; plural and tense
variation is handled by user-supplied lexicon entries, not built-in
morphology.

"Have" questions additionally require the extracted verb phrase to be
covered by a lexicon entry (perfect forms like "been to" only mean
anything once mapped to a canonical verb); anything else - such as
presupposition-laden forms - is rejected as unsupported rather than
mis-answered.

Each line is split once into its lowercased words, and every parse reads
that one list: a phrase joined from words is already what
:func:`~exigraph.kb.canonical_label` would make of it, so nothing
downstream canonicalises it again.  The lexicon gives every phrase exactly
one normal form, of bounded length, or refuses the entry that would not,
so :meth:`Lexicon.canon` is a few table lookups and every stored term is
already a normal form.  A lexicon is a value: an entry gives a new one,
and :meth:`Lexicon.entries` gives the order a save writes the entries in.
A verb with no preposition is read as the word before the last, so a
statement or trigger whose object the lexicon expands to several words
after such a verb is refused: it would not read back as written.

Unsupported or malformed lines raise :class:`ParseError` with the expected
token set and a character offset into the line as typed, which only a
refusal scans the line again to find; parsing never mutates state.
"""

from __future__ import annotations

import functools
import graphlib
import re
from dataclasses import dataclass
from typing import Optional, Union

from .kb import canonical_label

ARTICLES = {"a", "an", "the"}
WILDCARD = "*"  # a trigger slot that matches any label
PREPOSITIONS = ("to", "at", "in", "on", "with")
KEYWORDS = {"is", "are", "all", "no", "some", "not", "did", "have",
            "rule:", "lexicon:", "trigger:", "=>", "=", "when", "then"}

# how each categorical form reads, subject then predicate
READS = {"A": "all {} are {}", "E": "no {} are {}", "I": "some {} are {}",
         "O": "some {} are not {}"}

QUESTION_SHAPES = ('Is <Proper> a <Noun>?', 'Are all <Noun> <Noun>?',
                   'Are any <Noun> <Noun>?',
                   'Did/Have <NounPhrase> <VerbPhrase> <NounPhrase>?')


class ParseError(Exception):
    def __init__(self, message: str, offset: int = 0,
                 expected: tuple[str, ...] = ()):
        self.offset = offset
        self.expected = expected
        detail = f" at offset {offset}"
        if expected:
            detail += f" (expected {' | '.join(expected)})"
        super().__init__(message + detail)


class UnsupportedFormError(ParseError):
    def __init__(self, message: str, offset: int = 0):
        super().__init__(f"{message}; supported question forms: "
                         + "  ".join(QUESTION_SHAPES), offset)


# seed data for the irregular plurals the corpus needs; not morphology,
# just a default lexicon that user entries may override
PLURAL_DEFAULTS = {"men": "man", "women": "woman", "people": "person",
                   "children": "child"}
MAX_WORDS = 1024  # the most words a one-word surface rewrites to


class Lexicon:
    """Surface-form to canonical-form mapping (plurals, synonyms, tenses).

    The mapping is a rewrite system on phrases: an entry whose surface is
    one word rewrites that word anywhere in a phrase, and an entry whose
    surface has several words rewrites only a phrase that is exactly it.
    :meth:`add` refuses an entry under which some phrase would rewrite
    forever or to two normal forms, or a word would read as more than
    :data:`MAX_WORDS` words, so every phrase has exactly one normal form,
    which :meth:`canon` reads from tables that :meth:`add` builds.

    A lexicon is a value: :meth:`add` returns a new lexicon and leaves its
    receiver as it was, so :data:`EMPTY_LEXICON` and
    :data:`DEFAULT_LEXICON` never change.  The entries added on top of the
    plural defaults are those :meth:`entries` reports, and a save writes.
    Every phrase given to a method is canonical
    (:func:`~exigraph.kb.canonical_label`), as the parser makes it.
    """

    def __init__(self):
        # every entry (surface -> canonical) and those added on top of the
        # defaults; each one-word surface's words rewritten, and for each
        # word the one-word surfaces whose canonical form holds it; each
        # multi-word surface's normal form.  No table is written into once
        # a lexicon is built, so lexicons share them
        self._map, self._user, self._word, self._readers, self._whole = (
            {}, {}, {}, {}, {})

    def add(self, surface: str, canonical: str) -> "Lexicon":
        """This lexicon with an entry added or replaced; the receiver is
        left as it was.  Refused with a ``ValueError``: an entry under which
        some phrase rewrites forever (``lexicon cycle through``), has two
        normal forms or reads as too many words (``lexicon entry reads``)."""
        if surface == canonical:
            raise ValueError(f"lexicon entry maps {surface!r} to itself")
        mapping, whole = {**self._map, surface: canonical}, self._whole
        word, readers, changed = dict(self._word), dict(self._readers), set()
        if surface in word:  # replaced: read without it what read through it
            for w in set(self._map[surface].split()):
                readers[w] = readers[w] - {surface}
            del word[surface]
            users = _users(readers, surface) - {surface}
            graph = {u: [w for w in mapping[u].split() if w in users]
                     for u in users}  # each read after those it reads
            for u in graphlib.TopologicalSorter(graph).static_order():
                word[u] = " ".join([word.get(w, w)
                                    for w in mapping[u].split()])
        if " " not in surface:
            changed = _fold(word, readers, surface, canonical)
        if " " in surface and surface not in whole \
                and not any(w in word for w in surface.split()):
            # a new phrase no word of which rewrites: it, and each phrase
            # that read as it, now reads as its entry does
            nf = self.canon(canonical)
            if nf == surface:
                raise ValueError(f"lexicon cycle through {surface!r}")
            whole = {**{s: nf if v == surface else v
                        for s, v in whole.items()}, surface: nf}
        elif " " in surface or any(w in changed for s in whole
                                   for w in f"{s} {mapping[s]}".split()):
            # else a multi-word entry, or a word in one, is read anew
            whole = _wholes(mapping, word, surface)
        new = Lexicon()
        new._map, new._word, new._readers, new._whole = (
            mapping, word, readers, whole)
        new._user = {**self._user, surface: canonical}
        return new

    def entries(self) -> list[tuple[str, str]]:
        """The entries added on top of the defaults, in an order in which
        :data:`DEFAULT_LEXICON` takes them one at a time: each is the first
        entry left, in label order, that the lexicon holding those before
        it takes.  An entry may need one later in label order: ``man =
        men`` reads as a cycle until ``men = mortal`` replaces the default
        ``men = man``.  When no entry replaces a default and no multi-word
        surface holds a one-word one, no phrase has two ways to rewrite
        and fewer entries rewrite less, so every order is taken and label
        order is given unchecked."""
        left = sorted(self._user.items())
        if not self._user.keys() & PLURAL_DEFAULTS.keys() and not any(
                w in self._word for s in self._whole for w in s.split()):
            return left
        trial, order = DEFAULT_LEXICON, []
        while left:
            for i, entry in enumerate(left):
                try:
                    trial = trial.add(*entry)
                    break
                except ValueError:
                    continue
            else:
                i = 0  # none is taken: keep label order, which will not load
            order.append(left.pop(i))
        return order

    def covers(self, phrase: str) -> bool:
        return phrase in self._map or phrase in self._map.values()

    def canon(self, phrase: str) -> str:
        """The normal form of a canonical phrase: its own entry's, else
        that of the phrase with each word rewritten."""
        if " " not in phrase:
            phrase = self._word.get(phrase, phrase)
        elif phrase not in self._whole:
            words = phrase.split()
            if not self._word.keys().isdisjoint(words):  # some word rewrites
                phrase = " ".join([self._word.get(w, w) for w in words])
        return self._whole.get(phrase, phrase)


def _fold(word: dict[str, str], readers: dict[str, frozenset[str]],
          surface: str, canonical: str) -> set[str]:
    """Add the entry ``surface`` -> ``canonical``, where ``surface`` is a
    word that is not yet a surface, to ``word``, each one-word surface's
    words rewritten, and ``readers``, for each word the one-word surfaces
    whose canonical form holds it; returns the surfaces read anew."""
    users = _users(readers, surface)
    value = " ".join([word.get(w, w) for w in canonical.split()])
    words = value.split()
    if surface in words:
        raise ValueError(f"lexicon cycle through {surface!r}")
    for u in users:
        held = word.get(u, surface).split()
        if len(held) + held.count(surface) * (len(words) - 1) > MAX_WORDS:
            raise ValueError(f"lexicon entry reads {u!r} as more than "
                             f"{MAX_WORDS} words")
        word[u] = value if held == [surface] else " ".join(
            [value if w == surface else w for w in held])
    for w in set(canonical.split()):
        readers[w] = readers.get(w, frozenset()) | {surface}
    return users


def _users(readers: dict[str, frozenset[str]], word: str) -> set[str]:
    """``word`` and the one-word surfaces whose canonical form holds it, or
    holds one of them: those that rewrite through ``word``."""
    users, todo = {word}, [word]
    while todo:
        found = readers.get(todo.pop(), frozenset()) - users
        users |= found
        todo += found
    return users


def _wholes(mapping: dict[str, str], word: dict[str, str],
            surface: str) -> dict[str, str]:
    """The normal form of each multi-word surface of ``mapping``, whose
    one-word surfaces rewrite as ``word`` says; ``surface`` is the entry
    just added."""
    view = Lexicon()  # reads through the tables as they are built
    view._word, whole, canon = word, view._whole, view.canon
    wholes, members = [s for s in mapping if " " in s], {}
    for s in wholes:  # those a phrase may rewrite to have its words' reading
        members.setdefault(canon(s), []).append(s)
    # a phrase rewrites forever only through a loop of whole phrases; each
    # is settled after those its own rewriting reaches
    after = {s: {t for t in members.get(canon(mapping[s]), [])
                 + members[canon(s)]
                 if _reaches(mapping, mapping[s], t)
                 or t != s and _reaches(mapping, s, t)} for s in wholes}
    try:
        order = list(graphlib.TopologicalSorter(after).static_order())
    except graphlib.CycleError:
        raise ValueError(f"lexicon cycle through {surface!r}") from None
    for s in order:  # the whole phrase and its words rewritten must agree
        nf, by_words = canon(mapping[s]), canon(s)
        if by_words not in (s, nf):
            raise ValueError(f"lexicon entry reads {s!r} as both "
                             f"{nf!r} and {by_words!r}")
        whole[s] = nf
    return whole


def _reaches(mapping: dict[str, str], phrase: str, target: str) -> bool:
    """Whether rewriting words of ``phrase`` by the one-word entries of an
    acyclic ``mapping``, none or some of them, can give ``target``.  Each
    next word of ``target`` lies on the leftmost branch of what is left,
    and the words along a branch differ, so the walk never has a choice."""
    left = phrase.split()[::-1]
    for word in target.split():
        while left and left[-1] != word and left[-1] in mapping:
            left += mapping[left.pop()].split()[::-1]
        if not left or left.pop() != word:
            return False
    return not left


EMPTY_LEXICON = Lexicon()
DEFAULT_LEXICON = functools.reduce(lambda lex, entry: lex.add(*entry),
                                   PLURAL_DEFAULTS.items(), EMPTY_LEXICON)
DEFAULT_LEXICON._user = {}  # the defaults are not saved

def _check_term(term: str, slot: str,
                reserved: set[str] = KEYWORDS | ARTICLES | set(PREPOSITIONS)
                ) -> str:
    """``term``, refused when empty or holding a word of ``reserved``."""
    if not term:
        raise ValueError(f"empty {slot}")
    for w in term.split():
        if w in reserved:
            raise ValueError(f"{slot} may not contain the keyword {w!r}")
    return term


def _check_verb(verb: str) -> str:
    words = verb.split()
    if not words:
        raise ValueError("empty verb phrase")
    head, rest = words[0], words[1:]
    if head in KEYWORDS or head in ARTICLES:
        raise ValueError(f"verb phrase may not start with keyword {head!r}")
    for w in rest:
        if w not in PREPOSITIONS:
            raise ValueError("verb phrase is one word plus trailing "
                             f"prepositions; got {verb!r}")
    return verb


# -- statement ASTs -------------------------------------------------------

@dataclass(frozen=True)
class MembershipStmt:
    proper: str
    set_: str

    def __post_init__(self):
        _check_term(self.proper, "proper noun")
        _check_term(self.set_, "set noun")


@dataclass(frozen=True)
class CategoricalStmt:
    form: str  # A/E/I/O
    subject: str
    predicate: str

    def __post_init__(self):
        if self.form not in "AEIO" or len(self.form) != 1:
            raise ValueError(f"bad form {self.form!r}")
        _check_term(self.subject, "subject")
        _check_term(self.predicate, "predicate")


@dataclass(frozen=True)
class SpoStmt:
    subject: str
    verb: str
    obj: str

    def __post_init__(self):
        _check_term(self.subject, "subject")
        _check_verb(self.verb)
        _check_term(self.obj, "object")


@dataclass(frozen=True)
class RuleStmt:
    """Defeasible SPO rule ``X <premise_verb> Y => X <conclusion_verb> Y``."""

    premise_verb: str
    conclusion_verb: str

    def __post_init__(self):
        _check_verb(self.premise_verb)
        _check_verb(self.conclusion_verb)

    @property
    def name(self) -> str:
        return f"rule:{self.premise_verb}=>{self.conclusion_verb}"


@dataclass(frozen=True)
class LexiconStmt:
    surface: str
    canonical: str

    def __post_init__(self):
        # articles are dropped and keywords never reach a term, so no
        # statement could use a form that holds one of these
        for side in ("surface", "canonical"):
            _check_term(getattr(self, side), f"lexicon {side} form",
                        KEYWORDS | ARTICLES)


@dataclass(frozen=True)
class TriggerStmt:
    subject: str  # noun phrase or "*"
    verb: str
    obj: str
    reaction: str  # template with {subject} {verb} {object}

    def __post_init__(self):
        if self.subject == self.verb == self.obj == WILDCARD:
            raise ValueError("trigger pattern needs a concrete slot")


StatementAst = Union[MembershipStmt, CategoricalStmt, SpoStmt, RuleStmt,
                     LexiconStmt, TriggerStmt]


# -- questions ------------------------------------------------------------

@dataclass(frozen=True)
class Question:
    """Asks whether a statement holds: a membership (is-a), an A or I
    categorical (are-all, are-any) or an SPO relation (did/have)."""

    asks: Union[MembershipStmt, CategoricalStmt, SpoStmt]

    def __post_init__(self):
        if not (isinstance(self.asks, (MembershipStmt, SpoStmt))
                or isinstance(self.asks, CategoricalStmt)
                and self.asks.form in "AI"):
            raise ValueError(f"no question asks {self.asks!r}")


# -- tokenization and helpers ---------------------------------------------

_WORD = re.compile(r"\S+")
# the line up to its first unquoted "#"; an unclosed quote runs to the end
_UNCOMMENTED = re.compile(r'(?:"[^"]*(?:"|$)|[^"#])*')


def _strip_comment(line: str) -> str:
    if "#" not in line:
        return line.rstrip()
    return _UNCOMMENTED.match(line).group().rstrip()


def _tokens(text: str) -> list[str]:
    # lowercased, so a phrase joined from words is canonical
    return text.lower().split()


def _start(text: str, index: int, first: int = 0, skip=()) -> int:
    """Where a word of ``text`` starts, in characters as typed: the
    ``index``-th of its words from the ``first``-th on, not counting those
    in ``skip``.  Only a refusal needs an offset, so only a refusal scans
    the line again."""
    words = list(_WORD.finditer(text))[first:]
    return [m.start() for m in words if m.group().lower() not in skip][index]


def _drop_articles(words: list[str]) -> list[str]:
    return [w for w in words if w not in ARTICLES]


def _first(words: list[str], wanted, start: int = 0) -> Optional[int]:
    """The index of the first word from ``start`` on that is in ``wanted``."""
    for i in range(start, len(words)):
        if words[i] in wanted:
            return i
    return None


def _split_spo(words: list[str], text: str,
               first: int = 0) -> tuple[str, str, str]:
    """Split article-free words into (subject, verb-phrase, object);
    ``words`` are ``_drop_articles(_tokens(text)[first:])``."""
    if len(words) < 3:
        raise ParseError("statement too short for subject-verb-object",
                         _start(text, 0), ("<subject> <verb> <object>",))
    prep_idx = _first(words, PREPOSITIONS)
    if prep_idx is not None:
        if prep_idx < 2:
            raise ParseError("no room for a subject before the verb",
                             _start(text, prep_idx, first, ARTICLES),
                             ("<noun phrase>",))
        end = prep_idx + 1
        while end < len(words) and words[end] in PREPOSITIONS:
            end += 1
        if end >= len(words):
            raise ParseError("missing object after preposition",
                             _start(text, -1, first, ARTICLES),
                             ("<noun phrase>",))
        subject, verb, obj = words[:prep_idx - 1], words[prep_idx - 1:end], words[end:]
    else:
        subject, verb, obj = words[:-2], words[-2:-1], words[-1:]
    if verb[0] in ("is", "are"):
        raise ParseError("linking verbs belong to membership/categorical forms",
                         _start(text, len(subject), first, ARTICLES),
                         ("<verb phrase>",))
    return " ".join(subject), " ".join(verb), " ".join(obj)


def _read(line: str, mark: str, kind: str) -> tuple[str, list[str]]:
    """A statement (``mark`` ".") or question ("?") line as typed, without
    its comment and end mark, and its words; refused when it is empty or
    does not end with ``mark``."""
    text = _strip_comment(line)
    ended = text.endswith(mark)
    body = text[:-1].rstrip() if ended else text
    words = _tokens(body)
    if not words:
        raise ParseError(f"empty {kind}", 0, (f"<{kind}>",))
    if not ended:
        raise ParseError(f"{kind} must end with {mark!r}", len(text), (mark,))
    return body, words


_RULE_RE = re.compile(
    r"rule:\s*x\s+(?P<pv>.+?)\s+y\s*=>\s*x\s+(?P<cv>.+?)\s+y\s*$", re.I)
_TRIGGER_RE = re.compile(
    r'trigger:\s*when\s+(?P<pat>.+?)\s+then\s+"(?P<txt>[^"]+)"\s*$', re.I)
_LEXICON_RE = re.compile(
    r"lexicon:\s*(?P<sf>[^=]+?)\s*=\s*(?P<cn>.+?)\s*$", re.I)


def _object(verb: str, obj: str) -> str:
    """A stored object as it reads back: a verb with no preposition is
    followed by a one-word object, so the lexicon may not expand it."""
    if " " not in verb and " " in obj:
        raise ValueError(f"the lexicon reads the object as {obj!r}, but "
                         "a verb without a preposition takes one word")
    return obj


def _wrap(build, text: str = ""):
    """Build a record; a refusal becomes a :class:`ParseError` at the first
    word of ``text``."""
    try:
        return build()
    except ValueError as exc:
        raise ParseError(str(exc), len(text) - len(text.lstrip())) from exc


# -- parsing --------------------------------------------------------------

def parse_statement(line: str, lexicon: Lexicon = EMPTY_LEXICON) -> StatementAst:
    """Parse one statement line into an AST, canonicalizing terms through
    the lexicon.  Raises ParseError on malformed input; pure."""
    body, words = _read(line, ".", "statement")
    head = words[0]

    if head.startswith("lexicon:"):
        m = _LEXICON_RE.match(body.strip())
        if not m:
            raise ParseError("malformed lexicon entry", 0,
                             ("lexicon: <surface> = <canonical>.",))
        return _wrap(lambda: LexiconStmt(canonical_label(m.group("sf")),
                                         canonical_label(m.group("cn"))))

    if head.startswith("rule:"):
        m = _RULE_RE.match(body.strip())
        if not m:
            raise ParseError("malformed rule", 0,
                             ("rule: X <verb phrase> Y => X <verb phrase> Y.",))
        return _wrap(lambda: RuleStmt(*(lexicon.canon(canonical_label(verb))
                                        for verb in m.group("pv", "cv"))))

    if head.startswith("trigger:"):
        m = _TRIGGER_RE.match(body.strip())
        if not m:
            raise ParseError("malformed trigger", 0,
                             ('trigger: when <pattern> then "<aim>".',))
        pattern = m.group("pat")
        # wildcards are legal noun-phrase words in trigger patterns
        pat = _drop_articles(_tokens(pattern))
        if len(pat) < 3:
            raise ParseError("trigger pattern too short", 0,
                             ("<subject> <verb> <object>",))
        # slots match canonical labels, so they read through the lexicon
        s, v, o = (slot if slot == WILDCARD else lexicon.canon(slot)
                   for slot in _split_spo(pat, pattern))
        return _wrap(lambda: TriggerStmt(s, v, _object(v, o), m.group("txt")))

    if head in ("all", "no", "some"):
        return _parse_categorical(words, body, lexicon)

    is_idx = words.index("is") if "is" in words else len(words)
    if is_idx + 1 < len(words) and words[is_idx + 1] in ("a", "an"):
        proper = " ".join(_drop_articles(words[:is_idx]))
        set_ = " ".join(_drop_articles(words[is_idx + 2:]))
        if not proper or not set_:
            raise ParseError("membership needs a proper noun and a set noun",
                             _start(body, is_idx), ("<Proper> is a <Noun>.",))
        return _membership(proper, set_, lexicon, body)

    s, v, o = map(lexicon.canon, _split_spo(_drop_articles(words), body))
    return _wrap(lambda: SpoStmt(s, v, _object(v, o)), body)


def _parse_categorical(words: list[str], body: str,
                       lexicon: Lexicon) -> CategoricalStmt:
    """All/No/Some <Noun> are <Noun>, or Some <Noun> are not <Noun>."""
    quantifier = words[0]
    are = words.index("are") if "are" in words else 0
    if are < 2 or are + 1 >= len(words):
        negation = "[not] " if quantifier == "some" else ""
        raise ParseError("malformed categorical statement", _start(body, 0),
                         (f"{quantifier.capitalize()} <Noun> are "
                          f"{negation}<Noun>.",))
    form = {"all": "A", "no": "E", "some": "I"}[quantifier]
    rest = words[are + 1:]
    if form == "I" and rest[0] == "not":
        form, rest = "O", rest[1:]
        if not rest:
            raise ParseError("missing predicate", _start(body, -1), ("<Noun>",))
    return _categorical(form, " ".join(_drop_articles(words[1:are])),
                        " ".join(_drop_articles(rest)), lexicon, body)


def _membership(proper: str, set_: str, lexicon: Lexicon,
                body: str) -> MembershipStmt:
    """The membership of two phrases read through the lexicon; an empty
    phrase, or one holding a keyword or an article, is refused at the
    first word of ``body``."""
    return _wrap(lambda: MembershipStmt(lexicon.canon(proper),
                                        lexicon.canon(set_)), body)


def _categorical(form: str, subject: str, predicate: str, lexicon: Lexicon,
                 body: str) -> CategoricalStmt:
    """The categorical of two phrases read through the lexicon; an empty
    phrase, or one holding a keyword or an article, is refused at the
    first word of ``body``."""
    return _wrap(lambda: CategoricalStmt(form, lexicon.canon(subject),
                                         lexicon.canon(predicate)), body)


def parse_question(line: str, lexicon: Lexicon = EMPTY_LEXICON) -> Question:
    """Parse one question line into the :class:`Question` that asks its
    statement; unsupported shapes raise :class:`UnsupportedFormError`
    rather than being guessed at."""
    body, words = _read(line, "?", "question")
    head = words[0]

    if head == "is":
        art = _first(words, ("a", "an"), 2)
        if art is None or art + 1 >= len(words):
            raise UnsupportedFormError("malformed is-a question", _start(body, 0))
        proper = " ".join(_drop_articles(words[1:art]))
        set_ = " ".join(_drop_articles(words[art + 1:]))
        if not proper or not set_:
            raise UnsupportedFormError("malformed is-a question", _start(body, 0))
        return Question(_membership(proper, set_, lexicon, body))

    if head == "are" and len(words) >= 4 and words[1] in ("all", "any"):
        subject = " ".join(_drop_articles(words[2:-1]))
        if not subject:
            raise UnsupportedFormError("missing subject", _start(body, 1))
        # the predicate is the last word as typed, so an article is refused
        asks = _categorical("A" if words[1] == "all" else "I", subject,
                            words[-1], lexicon, body)
        # a lexicon entry may map the one-word predicate to a phrase
        if " " in asks.predicate:
            raise ParseError(f"are-{words[1]} predicate is a single word",
                             _start(body, 0))
        return Question(asks)

    if head in ("did", "have"):
        try:
            s, v, o = _split_spo(_drop_articles(words[1:]), body, 1)
        except ParseError as exc:
            raise UnsupportedFormError(str(exc), _start(body, 0)) from exc
        if head == "have" and not lexicon.covers(v):
            raise UnsupportedFormError(
                f"cannot interpret the verb phrase {v!r} in a 'Have' "
                "question without a lexicon entry", _start(body, 0))
        return _wrap(lambda: Question(SpoStmt(
            lexicon.canon(s), lexicon.canon(v), lexicon.canon(o))), body)

    raise UnsupportedFormError("unsupported question form", _start(body, 0))


# -- rendering ------------------------------------------------------------

def _cap(text: str) -> str:
    # "ı", "ß" and "ﬁ" stay: their capitals lower to other letters
    head = text[0].upper()
    return head + text[1:] if head.lower() == text[0] else text

def _article(noun: str) -> str:
    return "an" if noun[0] in "aeiou" else "a"


def render(ast: StatementAst | Question) -> str:
    """Canonical surface form; ``parse(render(ast)) == ast`` and rendering
    a parsed line is a fixpoint."""
    if isinstance(ast, MembershipStmt):
        return f"{_cap(ast.proper)} is {_article(ast.set_)} {ast.set_}."
    if isinstance(ast, CategoricalStmt):
        return _cap(READS[ast.form].format(ast.subject, ast.predicate)) + "."
    if isinstance(ast, SpoStmt):
        return f"{_cap(ast.subject)} {ast.verb} {ast.obj}."
    if isinstance(ast, RuleStmt):
        return f"rule: X {ast.premise_verb} Y => X {ast.conclusion_verb} Y."
    if isinstance(ast, LexiconStmt):
        return f"lexicon: {ast.surface} = {ast.canonical}."
    if isinstance(ast, TriggerStmt):
        return (f'trigger: when {ast.subject} {ast.verb} {ast.obj} '
                f'then "{ast.reaction}".')
    if isinstance(ast, Question):
        q = ast.asks
        if isinstance(q, MembershipStmt):
            return f"Is {q.proper} {_article(q.set_)} {q.set_}?"
        if isinstance(q, CategoricalStmt):
            word = "all" if q.form == "A" else "any"
            return f"Are {word} {q.subject} {q.predicate}?"
        return f"Did {q.subject} {q.verb} {q.obj}?"
    raise TypeError(f"not an AST: {ast!r}")
