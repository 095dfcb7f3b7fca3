"""Tests for the tagged-union label type (section 2's ``type label``)."""

import copy
import math
import pickle
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.builder import BuildError, from_obj
from repro.core.labels import (
    _KIND_ORDER,
    Label,
    LabelKind,
    boolean,
    integer,
    label_of,
    real,
    string,
    sym,
)
from repro.core.oem import OemDatabase, OemError
from repro.obs.export import to_json


class TestConstruction:
    def test_symbol(self):
        lab = sym("Movie")
        assert lab.kind is LabelKind.SYMBOL
        assert lab.value == "Movie"

    def test_string(self):
        lab = string("Casablanca")
        assert lab.kind is LabelKind.STRING
        assert lab.value == "Casablanca"

    def test_integer(self):
        assert integer(42).value == 42

    def test_real_coerces_int_to_float(self):
        lab = real(3)
        assert isinstance(lab.value, float)
        assert lab.value == 3.0

    def test_boolean(self):
        assert boolean(True).value is True

    def test_int_label_rejects_bool_value(self):
        # bool is a subtype of int in Python; the model keeps them apart.
        with pytest.raises(TypeError):
            Label(LabelKind.INT, True)

    def test_string_label_rejects_int(self):
        with pytest.raises(TypeError):
            Label(LabelKind.STRING, 7)

    def test_symbol_rejects_non_string(self):
        with pytest.raises(TypeError):
            Label(LabelKind.SYMBOL, 3)


class TestEquality:
    def test_symbol_differs_from_string_with_same_text(self):
        # The attribute name Movie and the data value "Movie" are distinct.
        assert sym("Movie") != string("Movie")

    def test_same_kind_same_value_equal(self):
        assert sym("Title") == sym("Title")
        assert integer(1) == integer(1)

    def test_hashable_and_usable_as_dict_key(self):
        d = {sym("a"): 1, string("a"): 2}
        assert d[sym("a")] == 1
        assert d[string("a")] == 2

    def test_int_and_real_labels_differ(self):
        assert integer(1) != real(1.0)


class TestPredicates:
    def test_symbol_predicates(self):
        lab = sym("Cast")
        assert lab.is_symbol
        assert not lab.is_base
        assert not lab.is_string

    def test_base_predicates(self):
        assert string("x").is_base
        assert string("x").is_string
        assert integer(0).is_int
        assert real(1.5).is_real
        assert boolean(False).is_bool

    def test_switching_on_kind(self):
        # The "self-describing" idiom: dynamic dispatch on the label kind.
        def describe(lab: Label) -> str:
            if lab.is_symbol:
                return "attribute"
            if lab.is_int:
                return "number"
            return "other"

        assert describe(sym("Title")) == "attribute"
        assert describe(integer(3)) == "number"
        assert describe(string("s")) == "other"


class TestOrdering:
    def test_sort_is_deterministic_across_kinds(self):
        labels = [sym("b"), string("a"), integer(5), boolean(True), real(0.5)]
        once = sorted(labels)
        again = sorted(reversed(labels))
        assert once == again

    def test_within_kind_ordering(self):
        assert integer(1) < integer(2)
        assert string("a") < string("b")
        assert sym("Cast") < sym("Title")

    def test_kinds_are_grouped(self):
        ordered = sorted([sym("a"), integer(10), string("z")])
        kinds = [lab.kind for lab in ordered]
        assert kinds == [LabelKind.INT, LabelKind.STRING, LabelKind.SYMBOL]


class TestLabelOf:
    def test_label_of_int(self):
        assert label_of(3) == integer(3)

    def test_label_of_bool_before_int(self):
        assert label_of(True) == boolean(True)
        assert label_of(True).kind is LabelKind.BOOL

    def test_label_of_float(self):
        assert label_of(1.2e6) == real(1.2e6)

    def test_label_of_str_is_string_data_not_symbol(self):
        assert label_of("Casablanca") == string("Casablanca")

    def test_label_of_label_is_identity(self):
        lab = sym("Movie")
        assert label_of(lab) is lab

    def test_label_of_rejects_other_types(self):
        with pytest.raises(TypeError):
            label_of([1, 2])

    def test_repr_distinguishes_symbols(self):
        assert repr(sym("Movie")) == "`Movie`"
        assert repr(string("Movie")) == "'Movie'"


# -- the tuple representation against a model of the dataclass it replaced ----

class ReferenceLabel:
    """What a label's identity, order and text were as a frozen dataclass:
    ``(kind, value)`` tuple equality and hashing, ``sort_key`` order, and
    backquoted symbols."""

    def __init__(self, kind: LabelKind, value: object) -> None:
        self.kind, self.value = kind, value

    def __eq__(self, other: object) -> bool:
        return (self.kind, self.value) == (other.kind, other.value)

    def __hash__(self) -> int:
        return hash((self.kind.value, self.value))

    def sort_key(self) -> tuple:
        return (_KIND_ORDER[self.kind], self.value)

    def __lt__(self, other: "ReferenceLabel") -> bool:
        a, b = self.sort_key(), other.sort_key()
        return a[0] < b[0] if a[0] != b[0] else a[1] < b[1]

    def __repr__(self) -> str:
        return f"`{self.value}`" if self.kind is LabelKind.SYMBOL else repr(self.value)


TEXT = st.text(alphabet="ab", max_size=2)
LABELS = st.one_of(
    st.builds(sym, TEXT),
    st.builds(string, TEXT),
    st.builds(integer, st.integers(-1, 2) | st.integers()),
    st.builds(real, st.sampled_from([0.0, -0.0, 1.0, 2.5, math.inf, math.nan]) | st.floats()),
    st.builds(boolean, st.booleans()),
)


def same(a: Label, b: Label) -> bool:
    """Equal kind, value type and text (NaN included, which ``==`` is not)."""
    return (type(a), a.kind, type(a.value), repr(a)) == (type(b), b.kind, type(b.value), repr(b))


@given(st.lists(LABELS, min_size=2, max_size=6))
def test_labels_agree_with_the_dataclass_model(labels: "list[Label]") -> None:
    refs = [ReferenceLabel(lab.kind, lab.value) for lab in labels]
    for a, ra in zip(labels, refs):
        assert repr(a) == repr(ra) and str(a) == repr(ra)
        assert a.sort_key() == ra.sort_key() or math.isnan(a.value)
        for b, rb in zip(labels, refs):
            assert (a == b) is (ra == rb) and (a != b) is (ra != rb)
            assert (a < b) is (ra < rb)
            if a == b:
                assert hash(a) == hash(b)
    assert len(set(labels)) == len(set(refs))


@given(LABELS)
def test_a_label_survives_pickle_and_copy(label: Label) -> None:
    for proto in range(pickle.HIGHEST_PROTOCOL + 1):
        assert same(pickle.loads(pickle.dumps(label, proto)), label)
    assert same(copy.copy(label), label) and same(copy.deepcopy(label), label)


def test_equality_is_kind_aware_across_the_numeric_kinds() -> None:
    one = [integer(1), real(1.0), boolean(True)]
    assert len(set(one)) == 3 and all(a != b for a in one for b in one if a is not b)
    assert sym("Movie") != string("Movie") and hash(sym("Movie")) == hash(sym("Movie"))
    assert real(-0.0) == real(0.0) and hash(real(-0.0)) == hash(real(0.0))


def test_hash_equality_and_field_reads_never_enter_python_code() -> None:
    label, twin = sym("Movie"), sym("".join(["Mov", "ie"]))
    table = {label: 1}
    calls = []
    sys.setprofile(lambda frame, event, arg: calls.append(frame.f_code) if event == "call" else None)
    try:
        hash(twin), label == twin, label != twin, label.kind, label.value, table[twin]
    finally:
        sys.setprofile(None)
    assert calls == []


class TestTupleBranches:
    """A label is a tuple: the code that dispatches on ``(list, tuple)``
    or leaves tuples to :mod:`json` still treats it as one value."""

    def test_json_export_writes_a_label_as_its_text(self) -> None:
        assert to_json({"l": sym("a"), "n": [integer(3)]}) == (
            '{\n  "l": "`a`",\n  "n": [\n    "3"\n  ]\n}'
        )

    def test_from_obj_refuses_a_label_value(self) -> None:
        for obj in (sym("x"), {"a": sym("x")}, [sym("x")]):
            with pytest.raises(BuildError, match="cannot encode Label"):
                from_obj(obj)
        assert from_obj({"a": (1, 2)}).num_edges == 4  # a plain tuple is still several edges

    def test_oem_refuses_a_label_value(self) -> None:
        for obj in (sym("x"), {"a": sym("x")}):
            with pytest.raises(OemError, match="cannot load Label"):
                OemDatabase.from_obj(obj)
