import itertools

import pytest

from exigraph.agency import Aim, AimClass, classify_aim, fire_triggers
from exigraph.lang import TriggerStmt
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


# -- triggers -------------------------------------------------------------

def asked(subject="user", obj="question"):
    return (subject, "asked", obj)


def test_trigger_forms_an_aim():
    trig = TriggerStmt("*", "asked", "*", "answer {object}")
    aims = fire_triggers(asked(), [trig])
    assert aims == [Aim("answer question")]


def test_nonmatching_item_flies_past():
    trig = TriggerStmt("*", "asked", "*", "answer {object}")
    assert fire_triggers(("ball", "thrown at", "window"), [trig]) == []


def test_two_triggers_fire_in_declaration_order():
    trigs = [TriggerStmt("user", "*", "*", "log {verb}"),
             TriggerStmt("*", "asked", "*", "answer {object}")]
    aims = fire_triggers(asked(), trigs)
    assert [a.description for a in aims] == ["log asked", "answer question"]
    aims = fire_triggers(asked(), trigs[::-1])
    assert [a.description for a in aims] == ["answer question", "log asked"]


def test_all_wildcard_pattern_rejected():
    with pytest.raises(ValueError):
        TriggerStmt("*", "*", "*", "react")


def test_fire_triggers_pure():
    trig = TriggerStmt("*", "asked", "*", "answer {object}")
    assert fire_triggers(asked(), [trig]) == fire_triggers(asked(), [trig])

