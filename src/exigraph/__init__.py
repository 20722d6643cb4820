"""exigraph: a three-valued, set-theoretic knowledge engine.

Existence is membership of an element in a set, evaluated over an entity
graph with strong-Kleene three-valued logic; questions are settled by a
per-witness 2-SAT entailment check, ``check`` closes the KB under an
oracle-validated syllogistic mood table, abduction proposes (never
asserts) memberships from shared properties, and a controlled-language
front end supports a question-answering dialogue.
"""

from .logic3 import TRUE, FALSE, UNKNOWN, Value3, and3, or3, not3, implies3
from .kb import KnowledgeBase, Kind, Provenance, ASSERTED, ConflictError
from .syllogistics import (Mood, valid_moods, infer_syllogism,
                           eval_proposition, closure, entails)
from .abduction import Hypothesis, abduce_membership, apply_rules
from .agency import AimClass, Aim, classify_aim, fire_triggers
from .qa import Session, Answer, answer, save_kb, load_kb

__all__ = [
    "TRUE", "FALSE", "UNKNOWN", "Value3", "and3", "or3", "not3", "implies3",
    "KnowledgeBase", "Kind", "Provenance", "ASSERTED", "ConflictError",
    "Mood", "valid_moods", "infer_syllogism", "eval_proposition", "closure",
    "entails",
    "Hypothesis", "abduce_membership", "apply_rules",
    "AimClass", "Aim", "classify_aim", "fire_triggers",
    "Session", "Answer", "answer", "save_kb", "load_kb",
]
