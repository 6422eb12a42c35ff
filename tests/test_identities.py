import pickle
import re

import pytest

from biaslex.identities import (
    Application,
    ApplicationKind,
    Children,
    Gender,
    Identity,
    Language,
    LanguageFamily,
    MaritalStatus,
    PromptMethod,
    Religion,
    StoryLocation,
    enumerate_identities,
    identity_order,
    iter_applications,
)


def test_enumeration_is_total_and_duplicate_free():
    identities = enumerate_identities()
    assert len(identities) == 48
    assert len(set(identities)) == 48


def test_enumeration_starts_at_documented_origin():
    first = enumerate_identities()[0]
    assert first == Identity(
        Religion.HINDU, Gender.MALE, MaritalStatus.MARRIED, Children.NO_CHILDREN
    )


def test_many_children_slice_size():
    identities = enumerate_identities()
    assert sum(1 for i in identities if i.children is Children.MANY_CHILDREN) == 16


def test_identity_order_matches_enumeration():
    for n, identity in enumerate(enumerate_identities()):
        assert identity_order(identity) == n


def test_identity_json_round_trip():
    for identity in enumerate_identities():
        assert Identity.from_json_dict(identity.to_json_dict()) == identity


@pytest.mark.parametrize(
    "field, value",
    [
        ("religion", "jain"),
        ("gender", "Male"),
        ("marital_status", "engaged"),
        ("children", ["no_children"]),
    ],
)
def test_identity_from_json_refuses_a_value_off_the_grid(field, value):
    data = {**enumerate_identities()[0].to_json_dict(), field: value}
    with pytest.raises(ValueError, match="is not a valid"):
        Identity.from_json_dict(data)


# every grid member's value and label, in declaration order
_GRID = {
    Religion: {"hindu": "Hindu", "muslim": "Muslim"},
    Gender: {"male": "Male", "female": "Female"},
    MaritalStatus: {
        "married": "Married",
        "divorced": "Divorced",
        "widowed": "Widowed",
        "single": "Single",
    },
    Children: {
        "no_children": "No children",
        "one_child": "One child",
        "many_children": "Many children",
    },
    ApplicationKind: {
        "todo_list": "Todo list",
        "hobbies_values": "Hobbies values",
        "story": "Story",
    },
    StoryLocation: {
        "home": "Home",
        "school": "School",
        "workplace": "Workplace",
        "hospital": "Hospital",
    },
    LanguageFamily: {"indo_aryan": "Indo-Aryan", "dravidian": "Dravidian"},
    Language: {
        "hindi": "Hindi",
        "urdu": "Urdu",
        "bengali": "Bengali",
        "punjabi": "Punjabi",
        "marathi": "Marathi",
        "gujarati": "Gujarati",
        "telugu": "Telugu",
        "kannada": "Kannada",
        "malayalam": "Malayalam",
        "tamil": "Tamil",
    },
    PromptMethod: {"original": "Original", "simple": "Simple", "complex": "Complex"},
}


@pytest.mark.parametrize("grid_enum", list(_GRID))
def test_grid_enum_members_keep_their_values_labels_hashes_and_pickles(grid_enum):
    assert {m.value: m.label for m in grid_enum} == _GRID[grid_enum]
    assert [m.value for m in grid_enum] == list(_GRID[grid_enum])
    for member in grid_enum:
        assert member.value == member._value_
        assert grid_enum(member.value) is member
        assert grid_enum.from_value(member.value) is member
        assert hash(member) == object.__hash__(member)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(member, protocol)) is member


@pytest.mark.parametrize("grid_enum", list(_GRID))
@pytest.mark.parametrize("value", ["nowhere", "", None, ["hindi"], 0])
def test_grid_enum_from_value_refuses_as_the_constructor_does(grid_enum, value):
    with pytest.raises(ValueError) as expected:
        grid_enum(value)
    with pytest.raises(ValueError) as raised:
        grid_enum.from_value(value)
    assert str(raised.value) == str(expected.value)


def test_application_from_json_returns_the_canonical_instances():
    for app in iter_applications():
        parsed = Application.from_json_dict(app.to_json_dict())
        assert parsed == app
        # one shared instance per cell, not a new one per record
        assert Application.from_json_dict(dict(app.to_json_dict())) is parsed
    # an empty location reads as none, as it always has
    todo = Application.from_json_dict({"kind": "todo_list", "story_location": ""})
    assert todo == iter_applications()[0]


@pytest.mark.parametrize(
    "data, message",
    [
        ({"kind": "poem"}, "'poem' is not a valid ApplicationKind"),
        ({"kind": "story", "story_location": "park"}, "'park' is not a valid"),
        ({"kind": ["story"]}, "is not a valid ApplicationKind"),
        ({"kind": "todo_list", "story_location": "home"}, "only valid for story"),
    ],
)
def test_application_from_json_refuses_a_value_off_the_grid(data, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        Application.from_json_dict(data)


def test_surface_labels():
    assert Religion.HINDU.label == "Hindu"
    assert Gender.FEMALE.label == "Female"
    assert MaritalStatus.WIDOWED.label == "Widowed"
    assert Children.NO_CHILDREN.label == "No children"
    assert Children.ONE_CHILD.label == "One child"
    assert Children.MANY_CHILDREN.label == "Many children"


def test_language_family_partition():
    families = {language: language.family for language in Language}
    indo_aryan = [l for l, f in families.items() if f is LanguageFamily.INDO_ARYAN]
    dravidian = [l for l, f in families.items() if f is LanguageFamily.DRAVIDIAN]
    assert len(indo_aryan) == 6
    assert len(dravidian) == 4
    assert set(indo_aryan) == {
        Language.BENGALI,
        Language.HINDI,
        Language.URDU,
        Language.PUNJABI,
        Language.MARATHI,
        Language.GUJARATI,
    }
    assert set(dravidian) == {
        Language.TELUGU,
        Language.KANNADA,
        Language.MALAYALAM,
        Language.TAMIL,
    }


def test_language_family_examples():
    assert Language.HINDI.family is LanguageFamily.INDO_ARYAN
    assert Language.TAMIL.family is LanguageFamily.DRAVIDIAN


def test_application_cells():
    cells = iter_applications()
    assert len(cells) == 6
    assert cells[0].kind is ApplicationKind.TODO_LIST
    assert cells[1].kind is ApplicationKind.HOBBIES_VALUES
    assert [c.story_location for c in cells[2:]] == list(StoryLocation)


def test_location_invalid_outside_story():
    with pytest.raises(ValueError):
        Application(ApplicationKind.TODO_LIST, StoryLocation.HOME)


def test_prompt_method_debias_flag():
    assert not PromptMethod.ORIGINAL.is_debias
    assert PromptMethod.SIMPLE_DEBIAS.is_debias
    assert PromptMethod.COMPLEX_DEBIAS.is_debias
