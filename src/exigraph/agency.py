"""Perception-triggered aims and their classification.

A trigger is the :class:`~exigraph.lang.TriggerStmt` parsed from a
``trigger:`` line: its (subject, verb, object) pattern, where ``*``
matches any label, watches newly perceived SPO edges and, on a match,
fills its reaction template into an Aim; triggers fire in the order
they were declared.  :func:`classify_aim` classifies an aim Task /
Goal / Dream from two three-valued inputs: whether the actions are clear
and whether resources are available.  Any UNKNOWN input leaves the aim
Undetermined rather than forcing a classification.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

from .lang import WILDCARD, TriggerStmt
from .logic3 import TRUE, UNKNOWN, Value3


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


def fire_triggers(new_item: tuple[str, str, str],
                  triggers: Sequence[TriggerStmt]) -> list[Aim]:
    """Aims formed by every trigger that matches a newly recorded SPO edge,
    given as (subject, verb, object) labels, in the order of ``triggers``:
    the order they were declared in.  A non-matching edge forms nothing."""
    aims = []
    for t in triggers:
        pattern = t.subject, t.verb, t.obj
        if all(p in (WILDCARD, s) for p, s in zip(pattern, new_item)):
            text = t.reaction
            for name, value in zip(("subject", "verb", "object"), new_item):
                text = text.replace("{" + name + "}", value)
            aims.append(Aim(text))
    return aims
