"""Controlled-language statements and questions.

A closed grammar, one construct per line, case-insensitive, ``#`` starts a
comment.  Statements: membership ("Socrates is a man."), the four
categorical forms, subject-verb-object relations, defeasible rules,
lexicon entries and trigger declarations.  Questions: is-a, are-all,
are-any, and did/have SPO forms.

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

Unsupported or malformed lines raise :class:`ParseError` with a byte
offset and the token set that was expected; parsing never mutates state.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Union

from .kb import canonical_label

ARTICLES = {"a", "an", "the"}
PREPOSITIONS = ("to", "at", "in", "on", "with")
KEYWORDS = {"is", "are", "all", "no", "some", "not", "did", "have",
            "rule:", "lexicon:", "trigger:", "=>", "=", "when", "then"}

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


class Lexicon:
    """Surface-form to canonical-form mapping (plurals, synonyms, tenses).

    Entries added through :meth:`add` are "user" entries and are the only
    ones reported by :meth:`entries` (and hence persisted); a defaults
    dict may seed the mapping underneath them.
    """

    def __init__(self, mapping: Optional[dict[str, str]] = None,
                 defaults: Optional[dict[str, str]] = None):
        self._map: dict[str, str] = dict(defaults or {})
        self._user: dict[str, str] = {}
        for k, v in (mapping or {}).items():
            self.add(k, v)

    @classmethod
    def with_defaults(cls) -> "Lexicon":
        return cls(defaults=PLURAL_DEFAULTS)

    def add(self, surface: str, canonical: str) -> None:
        surface = canonical_label(surface)
        canonical = canonical_label(canonical)
        if surface == canonical:
            raise ValueError(f"lexicon entry maps {surface!r} to itself")
        # the surface may not come back, by a cycle or inside its expansion
        old, self._map = self._map, {**self._map, surface: canonical}
        if f" {surface} " in f" {self.canon(surface)} ":
            self._map = old
            raise ValueError(f"lexicon cycle through {surface!r}")
        self._user[surface] = canonical

    def entries(self) -> list[tuple[str, str]]:
        return sorted(self._user.items())

    def covers(self, phrase: str) -> bool:
        phrase = canonical_label(phrase)
        return phrase in self._map or phrase in self._map.values()

    def canon(self, phrase: str) -> str:
        """Apply the mapping to a fixpoint, whole phrase first, then word by
        word; a phrase with none in 32 steps stays as it is (idempotence)."""
        phrase = original = canonical_label(phrase)
        for _ in range(32):
            if phrase in self._map:
                phrase = self._map[phrase]
                continue
            words = [self._map.get(w, w) for w in phrase.split()]
            replaced = " ".join(words)
            if replaced == phrase:
                return phrase
            if len(replaced) > len(original) + 4096:
                break  # it keeps growing
            phrase = replaced
        return original


EMPTY_LEXICON = Lexicon()

def _check_term(term: str, slot: str) -> str:
    if not term:
        raise ValueError(f"empty {slot}")
    for w in term.split():
        if w in KEYWORDS or w in PREPOSITIONS or w in ARTICLES:
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
    premise_verb: str
    conclusion_verb: str

    def __post_init__(self):
        _check_verb(self.premise_verb)
        _check_verb(self.conclusion_verb)


@dataclass(frozen=True)
class LexiconStmt:
    surface: str
    canonical: str


@dataclass(frozen=True)
class TriggerStmt:
    subject: str  # noun phrase or "*"
    verb: str
    obj: str
    reaction: str

    def __post_init__(self):
        if self.subject == "*" and self.obj == "*" and self.verb == "*":
            raise ValueError("trigger pattern needs a concrete slot")


StatementAst = Union[MembershipStmt, CategoricalStmt, SpoStmt, RuleStmt,
                     LexiconStmt, TriggerStmt]


# -- question ASTs --------------------------------------------------------

@dataclass(frozen=True)
class IsAQ:
    proper: str
    set_: str

    def __post_init__(self):
        _check_term(self.proper, "proper noun")
        _check_term(self.set_, "set noun")


@dataclass(frozen=True)
class AreAllQ:
    subject: str
    predicate: str  # single word in the surface grammar

    def __post_init__(self):
        _check_term(self.subject, "subject")
        _check_term(self.predicate, "predicate")
        if " " in self.predicate:
            raise ValueError("are-all predicate is a single word")


@dataclass(frozen=True)
class AreAnyQ:
    subject: str
    predicate: str

    def __post_init__(self):
        _check_term(self.subject, "subject")
        _check_term(self.predicate, "predicate")
        if " " in self.predicate:
            raise ValueError("are-any predicate is a single word")


@dataclass(frozen=True)
class DidSpoQ:
    subject: str
    verb: str
    obj: str

    def __post_init__(self):
        _check_term(self.subject, "subject")
        _check_verb(self.verb)
        _check_term(self.obj, "object")


QuestionAst = Union[IsAQ, AreAllQ, AreAnyQ, DidSpoQ]


# -- tokenization and helpers ---------------------------------------------

@dataclass(frozen=True)
class _Tok:
    text: str
    start: int


def _strip_comment(line: str) -> str:
    out, quoted = [], False
    for ch in line:
        if ch == '"':
            quoted = not quoted
        if ch == "#" and not quoted:
            break
        out.append(ch)
    return "".join(out).rstrip()


def _tokens(text: str, base: int = 0) -> list[_Tok]:
    return [_Tok(m.group().lower(), base + m.start())
            for m in re.finditer(r"\S+", text)]


def _drop_articles(toks: list[_Tok]) -> list[_Tok]:
    return [t for t in toks if t.text not in ARTICLES]


def _join(toks: list[_Tok]) -> str:
    return " ".join(t.text for t in toks)


def _split_spo(toks: list[_Tok], offset: int) -> tuple[str, str, str]:
    """Split article-free tokens into (subject, verb-phrase, object)."""
    if len(toks) < 3:
        raise ParseError("statement too short for subject-verb-object",
                         offset, ("<subject> <verb> <object>",))
    prep_idx = next((i for i, t in enumerate(toks)
                     if t.text in PREPOSITIONS), None)
    if prep_idx is not None:
        if prep_idx < 2:
            raise ParseError("no room for a subject before the verb",
                             toks[prep_idx].start, ("<noun phrase>",))
        end = prep_idx + 1
        while end < len(toks) and toks[end].text in PREPOSITIONS:
            end += 1
        if end >= len(toks):
            raise ParseError("missing object after preposition",
                             toks[-1].start, ("<noun phrase>",))
        subject, verb, obj = toks[:prep_idx - 1], toks[prep_idx - 1:end], toks[end:]
    else:
        subject, verb, obj = toks[:-2], toks[-2:-1], toks[-1:]
    if verb[0].text in ("is", "are"):
        raise ParseError("linking verbs belong to membership/categorical forms",
                         verb[0].start, ("<verb phrase>",))
    return _join(subject), _join(verb), _join(obj)


def _require_end(line: str, mark: str, kind: str) -> str:
    if not line.endswith(mark):
        raise ParseError(f"{kind} must end with {mark!r}", len(line), (mark,))
    return line[:-len(mark)].rstrip()


_RULE_RE = re.compile(
    r"rule:\s*x\s+(?P<pv>.+?)\s+y\s*=>\s*x\s+(?P<cv>.+?)\s+y\s*$", re.I)
_TRIGGER_RE = re.compile(
    r'trigger:\s*when\s+(?P<pat>.+?)\s+then\s+"(?P<txt>[^"]+)"\s*$', re.I)
_LEXICON_RE = re.compile(
    r"lexicon:\s*(?P<sf>[^=]+?)\s*=\s*(?P<cn>.+?)\s*$", re.I)


def _wrap(build, offset: int):
    try:
        return build()
    except ValueError as exc:
        raise ParseError(str(exc), offset) from exc


# -- parsing --------------------------------------------------------------

def parse_statement(line: str, lexicon: Lexicon = EMPTY_LEXICON) -> StatementAst:
    """Parse one statement line into an AST, canonicalizing terms through
    the lexicon.  Raises ParseError on malformed input; pure."""
    text = _strip_comment(line)
    if not text.strip():
        raise ParseError("empty statement", 0, ("<statement>",))
    body = _require_end(text, ".", "statement")
    lowered = body.lstrip().lower()

    if lowered.startswith("lexicon:"):
        m = _LEXICON_RE.match(body.strip())
        if not m:
            raise ParseError("malformed lexicon entry", 0,
                             ("lexicon: <surface> = <canonical>.",))
        return LexiconStmt(canonical_label(m.group("sf")),
                           canonical_label(m.group("cn")))

    if lowered.startswith("rule:"):
        m = _RULE_RE.match(body.strip())
        if not m:
            raise ParseError("malformed rule", 0,
                             ("rule: X <verb phrase> Y => X <verb phrase> Y.",))
        return _wrap(lambda: RuleStmt(lexicon.canon(m.group("pv")),
                                      lexicon.canon(m.group("cv"))), 0)

    if lowered.startswith("trigger:"):
        m = _TRIGGER_RE.match(body.strip())
        if not m:
            raise ParseError("malformed trigger", 0,
                             ('trigger: when <pattern> then "<aim>".',))
        pat = _drop_articles(_tokens(m.group("pat")))
        # slots match canonical labels, so they read through the lexicon
        s, v, o = (slot if slot == "*" else lexicon.canon(slot)
                   for slot in _split_spo_pattern(pat))
        return _wrap(lambda: TriggerStmt(s, v, o, m.group("txt")), 0)

    toks = _tokens(body)
    if not toks:
        raise ParseError("empty statement", 0, ("<statement>",))

    if toks[0].text in ("all", "no", "some"):
        return _parse_categorical(toks, lexicon)

    is_idx = next((i for i, t in enumerate(toks) if t.text == "is"), None)
    if is_idx is not None and is_idx + 1 < len(toks) \
            and toks[is_idx + 1].text in ("a", "an"):
        proper = _join(_drop_articles(toks[:is_idx]))
        set_ = _join(_drop_articles(toks[is_idx + 2:]))
        if not proper or not set_:
            raise ParseError("membership needs a proper noun and a set noun",
                             toks[is_idx].start, ("<Proper> is a <Noun>.",))
        return _wrap(lambda: MembershipStmt(lexicon.canon(proper),
                                            lexicon.canon(set_)),
                     toks[0].start)

    s, v, o = _split_spo(_drop_articles(toks), toks[0].start)
    return _wrap(lambda: SpoStmt(lexicon.canon(s), lexicon.canon(v),
                                 lexicon.canon(o)), toks[0].start)


def _split_spo_pattern(toks: list[_Tok]) -> tuple[str, str, str]:
    # wildcards are legal noun-phrase tokens in trigger patterns
    if len(toks) < 3:
        raise ParseError("trigger pattern too short", 0,
                         ("<subject> <verb> <object>",))
    return _split_spo(toks, toks[0].start)


def _parse_categorical(toks: list[_Tok], lexicon: Lexicon) -> CategoricalStmt:
    """All/No/Some <Noun> are <Noun>, or Some <Noun> are not <Noun>."""
    quantifier = toks[0].text
    are = next((i for i, t in enumerate(toks) if t.text == "are"), None)
    if are is None or are < 2 or are + 1 >= len(toks):
        negation = "[not] " if quantifier == "some" else ""
        raise ParseError("malformed categorical statement", toks[0].start,
                         (f"{quantifier.capitalize()} <Noun> are "
                          f"{negation}<Noun>.",))
    form = {"all": "A", "no": "E", "some": "I"}[quantifier]
    rest = toks[are + 1:]
    if form == "I" and rest[0].text == "not":
        form, rest = "O", rest[1:]
        if not rest:
            raise ParseError("missing predicate", toks[-1].start, ("<Noun>",))
    subject = _join(_drop_articles(toks[1:are]))
    predicate = _join(_drop_articles(rest))
    return _wrap(lambda: CategoricalStmt(form, lexicon.canon(subject),
                                         lexicon.canon(predicate)),
                 toks[0].start)


def parse_question(line: str, lexicon: Lexicon = EMPTY_LEXICON) -> QuestionAst:
    """Parse one question line; unsupported shapes raise
    :class:`UnsupportedFormError` rather than being guessed at."""
    text = _strip_comment(line)
    if not text.strip():
        raise ParseError("empty question", 0, ("<question>",))
    body = _require_end(text, "?", "question")
    toks = _tokens(body)
    if not toks:
        raise ParseError("empty question", 0, ("<question>",))
    head = toks[0].text

    if head == "is":
        art = next((i for i, t in enumerate(toks)
                    if i >= 2 and t.text in ("a", "an")), None)
        if art is None or art + 1 >= len(toks):
            raise UnsupportedFormError("malformed is-a question", toks[0].start)
        proper = _join(_drop_articles(toks[1:art]))
        set_ = _join(_drop_articles(toks[art + 1:]))
        if not proper or not set_:
            raise UnsupportedFormError("malformed is-a question", toks[0].start)
        return _wrap(lambda: IsAQ(lexicon.canon(proper), lexicon.canon(set_)),
                     toks[0].start)

    if head == "are" and len(toks) >= 4 and toks[1].text in ("all", "any"):
        cls = AreAllQ if toks[1].text == "all" else AreAnyQ
        subject = _join(_drop_articles(toks[2:-1]))
        predicate = toks[-1].text
        if not subject:
            raise UnsupportedFormError("missing subject", toks[1].start)
        return _wrap(lambda: cls(lexicon.canon(subject),
                                 lexicon.canon(predicate)), toks[0].start)

    if head in ("did", "have"):
        rest = _drop_articles(toks[1:])
        try:
            s, v, o = _split_spo(rest, toks[0].start)
        except ParseError as exc:
            raise UnsupportedFormError(str(exc), toks[0].start) from exc
        if head == "have" and not lexicon.covers(v):
            raise UnsupportedFormError(
                f"cannot interpret the verb phrase {v!r} in a 'Have' "
                "question without a lexicon entry", toks[0].start)
        return _wrap(lambda: DidSpoQ(lexicon.canon(s), lexicon.canon(v),
                                     lexicon.canon(o)), toks[0].start)

    raise UnsupportedFormError("unsupported question form", toks[0].start)


# -- rendering ------------------------------------------------------------

def _cap(text: str) -> str:
    return text[0].upper() + text[1:]

def _article(noun: str) -> str:
    return "an" if noun[0] in "aeiou" else "a"


def render(ast: StatementAst | QuestionAst) -> str:
    """Canonical surface form; ``parse(render(ast)) == ast`` and rendering
    a parsed line is a fixpoint."""
    if isinstance(ast, MembershipStmt):
        return f"{_cap(ast.proper)} is {_article(ast.set_)} {ast.set_}."
    if isinstance(ast, CategoricalStmt):
        tmpl = {"A": "All {s} are {p}.", "E": "No {s} are {p}.",
                "I": "Some {s} are {p}.", "O": "Some {s} are not {p}."}
        return tmpl[ast.form].format(s=ast.subject, p=ast.predicate)
    if isinstance(ast, SpoStmt):
        return f"{_cap(ast.subject)} {ast.verb} {ast.obj}."
    if isinstance(ast, RuleStmt):
        return f"rule: X {ast.premise_verb} Y => X {ast.conclusion_verb} Y."
    if isinstance(ast, LexiconStmt):
        return f"lexicon: {ast.surface} = {ast.canonical}."
    if isinstance(ast, TriggerStmt):
        return (f'trigger: when {ast.subject} {ast.verb} {ast.obj} '
                f'then "{ast.reaction}".')
    if isinstance(ast, IsAQ):
        return f"Is {ast.proper} {_article(ast.set_)} {ast.set_}?"
    if isinstance(ast, AreAllQ):
        return f"Are all {ast.subject} {ast.predicate}?"
    if isinstance(ast, AreAnyQ):
        return f"Are any {ast.subject} {ast.predicate}?"
    if isinstance(ast, DidSpoQ):
        return f"Did {ast.subject} {ast.verb} {ast.obj}?"
    raise TypeError(f"not an AST: {ast!r}")
