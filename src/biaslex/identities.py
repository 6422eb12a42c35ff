"""Domain types for the fixed evaluation grid.

The grid is not user-extensible: 2 religions x 2 genders x 4 marital
statuses x 3 child counts = 48 identities, 3 applications (story prompts
fan out over 4 locations), 10 languages in 2 families, and 3 prompting
methods.
"""
from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from itertools import product


class _GridEnum(enum.Enum):
    """Base of the grid's enums: members hash by identity, and ``value`` and
    ``label`` are plain attribute reads.

    ``Enum.__hash__`` hashes the member's name in Python code, and every
    ``Identity`` or document-key hash calls it several times. Members are
    singletons compared by identity, so the object hash agrees with ``==``.
    ``Enum.value`` goes through a Python-level descriptor on every read, and
    serializing a record reads seven of them; ``attrgetter`` reads the same
    ``_value_`` in C.
    """

    __hash__ = object.__hash__
    value = property(operator.attrgetter("_value_"))

    def __init__(self, value: str) -> None:
        #: Display name: "no_children" -> "No children".
        self.label = value.replace("_", " ").capitalize()

    @classmethod
    def from_value(cls, value: str):
        """The member with this value: a dict lookup where ``cls(value)`` runs
        ``EnumType.__call__`` in Python. Other values raise its ``ValueError``."""
        try:
            return cls._value2member_map_[value]
        except (KeyError, TypeError):
            return cls(value)


class Religion(_GridEnum):
    HINDU = "hindu"
    MUSLIM = "muslim"


class Gender(_GridEnum):
    MALE = "male"
    FEMALE = "female"


class MaritalStatus(_GridEnum):
    MARRIED = "married"
    DIVORCED = "divorced"
    WIDOWED = "widowed"
    SINGLE = "single"


class Children(_GridEnum):
    NO_CHILDREN = "no_children"
    ONE_CHILD = "one_child"
    MANY_CHILDREN = "many_children"


@dataclass(frozen=True)
class Identity:
    """One intersection of the four identity dimensions."""

    religion: Religion
    gender: Gender
    marital_status: MaritalStatus
    children: Children

    def to_json_dict(self) -> dict[str, str]:
        return {
            "religion": self.religion.value,
            "gender": self.gender.value,
            "marital_status": self.marital_status.value,
            "children": self.children.value,
        }

    @classmethod
    def from_json_dict(cls, data: dict[str, str]) -> "Identity":
        key = (
            data["religion"],
            data["gender"],
            data["marital_status"],
            data["children"],
        )
        try:
            return _IDENTITY_BY_VALUES[key]
        except (KeyError, TypeError):  # not a grid value; the enums say why
            pass
        return cls(
            religion=Religion(data["religion"]),
            gender=Gender(data["gender"]),
            marital_status=MaritalStatus(data["marital_status"]),
            children=Children(data["children"]),
        )


def enumerate_identities() -> list[Identity]:
    """All 48 identities in canonical order.

    Order is lexicographic over (religion, gender, marital status,
    children), each dimension in its declaration order; the first element
    is (Hindu, Male, Married, No children).
    """
    return [
        Identity(r, g, m, c)
        for r, g, m, c in product(Religion, Gender, MaritalStatus, Children)
    ]


_IDENTITY_INDEX = {identity: i for i, identity in enumerate(enumerate_identities())}
# the 48 canonical instances by their four JSON values
_IDENTITY_BY_VALUES = {
    tuple(identity.to_json_dict().values()): identity for identity in _IDENTITY_INDEX
}


def identity_order(identity: Identity) -> int:
    """Position of ``identity`` in the canonical enumeration."""
    return _IDENTITY_INDEX[identity]


class ApplicationKind(_GridEnum):
    TODO_LIST = "todo_list"
    HOBBIES_VALUES = "hobbies_values"
    STORY = "story"


class StoryLocation(_GridEnum):
    HOME = "home"
    SCHOOL = "school"
    WORKPLACE = "workplace"
    HOSPITAL = "hospital"


@dataclass(frozen=True)
class Application:
    """A generation task; story tasks carry one of four locations."""

    kind: ApplicationKind
    story_location: StoryLocation | None = None

    def __post_init__(self) -> None:
        if self.kind is not ApplicationKind.STORY and self.story_location is not None:
            raise ValueError(
                f"story_location is only valid for story applications, "
                f"got {self.kind.value!r}"
            )

    def to_json_dict(self) -> dict[str, str]:
        data = {"kind": self.kind.value}
        if self.story_location is not None:
            data["story_location"] = self.story_location.value
        return data

    @classmethod
    def from_json_dict(cls, data: dict[str, str]) -> "Application":
        location = data.get("story_location")
        try:
            return _APPLICATION_BY_VALUES[data["kind"], location]
        except (KeyError, TypeError):  # not a grid value; the enums say why
            pass
        return cls(
            kind=ApplicationKind(data["kind"]),
            story_location=StoryLocation(location) if location else None,
        )


def iter_applications() -> list[Application]:
    """The six per-identity prompt cells: to-do, hobbies, and 4 story locations."""
    cells = [
        Application(ApplicationKind.TODO_LIST),
        Application(ApplicationKind.HOBBIES_VALUES),
    ]
    cells.extend(Application(ApplicationKind.STORY, loc) for loc in StoryLocation)
    return cells


# the 6 canonical instances by their JSON values
_APPLICATION_BY_VALUES = {
    (app.kind.value, app.story_location.value if app.story_location else None): app
    for app in iter_applications()
}


class LanguageFamily(_GridEnum):
    INDO_ARYAN = "indo_aryan"
    DRAVIDIAN = "dravidian"

    def __init__(self, value: str) -> None:
        super().__init__(value)
        if value == "indo_aryan":
            self.label = "Indo-Aryan"


class Language(_GridEnum):
    HINDI = "hindi"
    URDU = "urdu"
    BENGALI = "bengali"
    PUNJABI = "punjabi"
    MARATHI = "marathi"
    GUJARATI = "gujarati"
    TELUGU = "telugu"
    KANNADA = "kannada"
    MALAYALAM = "malayalam"
    TAMIL = "tamil"

    @property
    def family(self) -> LanguageFamily:
        return _FAMILIES[self]


_FAMILIES = {
    Language.HINDI: LanguageFamily.INDO_ARYAN,
    Language.URDU: LanguageFamily.INDO_ARYAN,
    Language.BENGALI: LanguageFamily.INDO_ARYAN,
    Language.PUNJABI: LanguageFamily.INDO_ARYAN,
    Language.MARATHI: LanguageFamily.INDO_ARYAN,
    Language.GUJARATI: LanguageFamily.INDO_ARYAN,
    Language.TELUGU: LanguageFamily.DRAVIDIAN,
    Language.KANNADA: LanguageFamily.DRAVIDIAN,
    Language.MALAYALAM: LanguageFamily.DRAVIDIAN,
    Language.TAMIL: LanguageFamily.DRAVIDIAN,
}


class PromptMethod(_GridEnum):
    ORIGINAL = "original"
    SIMPLE_DEBIAS = "simple"
    COMPLEX_DEBIAS = "complex"

    @property
    def is_debias(self) -> bool:
        return self is not PromptMethod.ORIGINAL
