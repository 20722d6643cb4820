"""Perception-triggered aims and their classification.

A trigger pattern watches newly perceived SPO edges and, on a match,
instantiates its reaction template into an Aim.  Aims are
classified Task / Goal / Dream from two three-valued inputs: whether the
actions are clear and whether resources are available.  Any UNKNOWN input
leaves the aim Undetermined rather than forcing a classification.

Choice among alternatives ("free will") is the ranking argmax when a
ranking applies, otherwise a uniform draw from Python's Mersenne Twister
(``random.Random``) seeded explicitly, so choices reproduce across runs
and platforms.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .logic3 import TRUE, UNKNOWN, Value3

WILDCARD = "*"


class AimClass(enum.Enum):
    TASK = "task"
    GOAL = "goal"
    DREAM = "dream"
    UNDETERMINED = "undetermined"


def classify_aim(actions_clear: Value3, resourced: Value3) -> AimClass:
    """(T,T) task, (T,F) goal, (F,definite) dream; any UNKNOWN input is
    undetermined."""
    if actions_clear is UNKNOWN or resourced is UNKNOWN:
        return AimClass.UNDETERMINED
    if actions_clear is TRUE:
        return AimClass.TASK if resourced is TRUE else AimClass.GOAL
    return AimClass.DREAM


@dataclass(frozen=True)
class Aim:
    description: str
    actions_clear: Value3 = UNKNOWN
    resourced: Value3 = UNKNOWN

    @property
    def classification(self) -> AimClass:
        return classify_aim(self.actions_clear, self.resourced)


@dataclass(frozen=True)
class Observation:
    """A newly recorded SPO edge, as label text."""

    slots: tuple[str, str, str]  # (subject, verb, object)

    @classmethod
    def edge(cls, subject: str, verb: str, obj: str) -> "Observation":
        return cls((subject, verb, obj))


@dataclass(frozen=True)
class Trigger:
    id: int
    pattern: tuple[str, str, str]  # slots; "*" is a wildcard
    reaction: str  # template with {subject} {verb} {object}

    def __post_init__(self):
        if all(s == WILDCARD for s in self.pattern):
            raise ValueError("trigger pattern needs at least one concrete slot")

    def matches(self, obs: Observation) -> bool:
        return all(p == WILDCARD or p == s
                   for p, s in zip(self.pattern, obs.slots))

    def instantiate(self, obs: Observation) -> Aim:
        text = self.reaction
        for name, value in zip(("subject", "verb", "object"), obs.slots):
            text = text.replace("{" + name + "}", value)
        return Aim(text)


def fire_triggers(new_item: Observation,
                  triggers: Sequence[Trigger]) -> list[Aim]:
    """Aims formed by every matching trigger, in trigger-id order; a
    non-matching item produces nothing."""
    return [t.instantiate(new_item)
            for t in sorted(triggers, key=lambda t: t.id)
            if t.matches(new_item)]


@dataclass(frozen=True)
class MotivationRanking:
    """Ordered preference over alternative labels."""

    preferences: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.preferences)) != len(self.preferences):
            raise ValueError("duplicate labels in ranking")


def choose(alternatives: Sequence[str],
           ranking: Optional[MotivationRanking],
           seed: int) -> str:
    """Highest-ranked alternative if the ranking covers any; otherwise a
    uniform seeded draw.  The seed is ignored whenever the ranking decides."""
    if not alternatives:
        raise ValueError("no alternatives to choose from")
    if ranking is not None:
        for label in ranking.preferences:
            if label in alternatives:
                return label
    return random.Random(seed).choice(list(alternatives))
