import itertools
import random
from collections import Counter

import pytest

from exigraph.agency import (Aim, AimClass, MotivationRanking, Observation,
                             Trigger, choose, classify_aim, fire_triggers)
from exigraph.logic3 import FALSE, TRUE, VALUES


# -- classification -------------------------------------------------------

def test_car_purchase_cases():
    # money + license + model in store
    assert classify_aim(TRUE, TRUE) is AimClass.TASK
    # no money or no license: actions clear, resources missing
    assert classify_aim(TRUE, FALSE) is AimClass.GOAL
    # nothing but desire
    assert classify_aim(FALSE, FALSE) is AimClass.DREAM


def test_classification_matrix_total():
    expected = {
        (TRUE, TRUE): AimClass.TASK,
        (TRUE, FALSE): AimClass.GOAL,
        (FALSE, TRUE): AimClass.DREAM,
        (FALSE, FALSE): AimClass.DREAM,
    }
    for clear, resourced in itertools.product(VALUES, repeat=2):
        want = expected.get((clear, resourced), AimClass.UNDETERMINED)
        assert classify_aim(clear, resourced) is want


def test_aim_classification_derives_from_fields():
    assert Aim("buy car", TRUE, TRUE).classification is AimClass.TASK
    assert Aim("buy car").classification is AimClass.UNDETERMINED


# -- triggers -------------------------------------------------------------

def asked(subject="user", obj="question"):
    return Observation.edge(subject, "asked", obj)


def test_trigger_forms_an_aim():
    trig = Trigger(1, ("*", "asked", "*"), "answer {object}")
    aims = fire_triggers(asked(), [trig])
    assert aims == [Aim("answer question")]
    assert aims[0].classification is AimClass.UNDETERMINED


def test_nonmatching_item_flies_past():
    trig = Trigger(1, ("*", "asked", "*"), "answer {object}")
    assert fire_triggers(Observation.edge("ball", "thrown at", "window"),
                         [trig]) == []


def test_two_triggers_fire_in_id_order():
    trigs = [Trigger(2, ("user", "*", "*"), "log {verb}"),
             Trigger(1, ("*", "asked", "*"), "answer {object}")]
    aims = fire_triggers(asked(), trigs)
    assert [a.description for a in aims] == ["answer question", "log asked"]


def test_all_wildcard_pattern_rejected():
    with pytest.raises(ValueError):
        Trigger(1, ("*", "*", "*"), "react")


def test_fire_triggers_pure():
    trig = Trigger(1, ("*", "asked", "*"), "answer {object}")
    assert fire_triggers(asked(), [trig]) == fire_triggers(asked(), [trig])


# -- choice ---------------------------------------------------------------

def test_single_alternative():
    assert choose(["a"], None, 7) == "a"


def test_ranking_wins_and_ignores_seed():
    ranking = MotivationRanking(("c", "a"))
    for seed in range(25):
        assert choose(["a", "b", "c"], ranking, seed) == "c"


def test_ranking_without_overlap_falls_back_to_seeded():
    ranking = MotivationRanking(("z",))
    assert choose(["a", "b"], ranking, 42) == choose(["a", "b"], None, 42)


def test_seeded_choice_reproducible():
    assert choose(["a", "b"], None, 42) == choose(["a", "b"], None, 42)


def test_empty_alternatives_error():
    with pytest.raises(ValueError):
        choose([], None, 0)


def test_duplicate_ranking_labels_rejected():
    with pytest.raises(ValueError):
        MotivationRanking(("a", "a"))


def test_uniform_within_five_percent():
    alternatives = [f"alt{i}" for i in range(5)]
    meta = random.Random(12345)  # distinct well-mixed seeds per draw
    counts = Counter(choose(alternatives, None, meta.getrandbits(32))
                     for _ in range(10_000))
    expected = 10_000 / len(alternatives)
    for label in alternatives:
        assert abs(counts[label] - expected) <= 0.05 * expected
