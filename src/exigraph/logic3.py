"""Three-valued truth values and strong-Kleene connectives.

The truth domain is {TRUE, FALSE, UNKNOWN}.  UNKNOWN is the initial value of
anything not yet established; connectives propagate it but never fabricate a
definite value from it.  Refining an UNKNOWN input to a definite value can
only move a result from UNKNOWN to definite, never flip TRUE and FALSE
(knowledge monotonicity).

No numeric encoding leaks out of this module; the only external rendering is
the lowercase words ``yes`` / ``no`` / ``unknown``.
"""

from __future__ import annotations

import enum
from typing import Iterable


class Value3(enum.Enum):
    """One of the three truth values."""

    TRUE = "yes"
    FALSE = "no"
    UNKNOWN = "unknown"

    def __str__(self) -> str:
        return self.value

    def is_definite(self) -> bool:
        return self is not Value3.UNKNOWN

    @classmethod
    def parse(cls, word: str) -> "Value3":
        """Inverse of ``str``: accepts ``yes`` / ``no`` / ``unknown``."""
        for v in cls:
            if v.value == word.strip().lower():
                return v
        raise ValueError(f"not a truth word: {word!r}")


TRUE = Value3.TRUE
FALSE = Value3.FALSE
UNKNOWN = Value3.UNKNOWN

VALUES = (TRUE, FALSE, UNKNOWN)


def and3(a: Value3, b: Value3) -> Value3:
    """Strong-Kleene conjunction: FALSE annihilates, UNKNOWN propagates."""
    if a is FALSE or b is FALSE:
        return FALSE
    if a is TRUE and b is TRUE:
        return TRUE
    return UNKNOWN


def or3(a: Value3, b: Value3) -> Value3:
    """Strong-Kleene disjunction: TRUE annihilates, UNKNOWN propagates."""
    if a is TRUE or b is TRUE:
        return TRUE
    if a is FALSE and b is FALSE:
        return FALSE
    return UNKNOWN


def not3(a: Value3) -> Value3:
    """Negation: swaps TRUE and FALSE, fixes UNKNOWN."""
    if a is TRUE:
        return FALSE
    if a is FALSE:
        return TRUE
    return UNKNOWN


def implies3(a: Value3, b: Value3) -> Value3:
    """Material implication, defined as ``or3(not3(a), b)``."""
    return or3(not3(a), b)


def all3(values: Iterable[Value3]) -> Value3:
    """Fold of and3 over ``values``; TRUE on an empty iterable."""
    out = TRUE
    for v in values:
        out = and3(out, v)
    return out


def any3(values: Iterable[Value3]) -> Value3:
    """Fold of or3 over ``values``; FALSE on an empty iterable."""
    out = FALSE
    for v in values:
        out = or3(out, v)
    return out
