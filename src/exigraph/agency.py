"""Perception-triggered aims and their classification.

A trigger pattern watches newly perceived SPO edges and, on a match,
instantiates its reaction template into an Aim; triggers fire in the
order they were declared.  :func:`classify_aim` classifies an aim Task /
Goal / Dream from two three-valued inputs: whether the actions are clear
and whether resources are available.  Any UNKNOWN input leaves the aim
Undetermined rather than forcing a classification.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

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


@dataclass(frozen=True)
class Trigger:
    pattern: tuple[str, str, str]  # slots; "*" is a wildcard
    reaction: str  # template with {subject} {verb} {object}

    def __post_init__(self):
        if all(s == WILDCARD for s in self.pattern):
            raise ValueError("trigger pattern needs at least one concrete slot")

    def matches(self, obs: tuple[str, str, str]) -> bool:
        return all(p == WILDCARD or p == s
                   for p, s in zip(self.pattern, obs))

    def instantiate(self, obs: tuple[str, str, str]) -> Aim:
        text = self.reaction
        for name, value in zip(("subject", "verb", "object"), obs):
            text = text.replace("{" + name + "}", value)
        return Aim(text)


def fire_triggers(new_item: tuple[str, str, str],
                  triggers: Sequence[Trigger]) -> list[Aim]:
    """Aims formed by every trigger that matches a newly recorded SPO edge,
    given as (subject, verb, object) labels, in the order of ``triggers``:
    the order they were declared in.  A non-matching edge forms nothing."""
    return [t.instantiate(new_item) for t in triggers if t.matches(new_item)]

