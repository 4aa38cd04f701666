"""The record types: immutable values with equality and hash by field, built
as ``NamedTuple``s or, where a tuple base would change their behaviour, as
slotted classes."""

from fractions import Fraction

import pytest

from cobweb.fseq import (
    FSequence,
    is_cobweb_admissible_prefix,
    is_gcd_morphic_prefix,
    parse_sequence,
)
from cobweb.poset import Vertex, build_poset, dim2_realizer, max_disjoint_packing
from cobweb.prefab import Prefabiant, check_algebra_laws
from cobweb.series import FormalSeries, exp_f_series


def _natural():
    return parse_sequence("natural")


def _laws():
    return check_algebra_laws(20, 1)


# One example of each record type, built the way the package builds it, with
# the names of its fields.
RECORDS = {
    "FSequence": (_natural, ("spec", "_term")),
    "AdmissibilityReport": (
        lambda: is_cobweb_admissible_prefix(_natural(), 4),
        ("spec", "bound", "verdict", "violation", "value"),
    ),
    "GcdMorphismReport": (
        lambda: is_gcd_morphic_prefix(parse_sequence("even"), 4),
        ("spec", "bound", "gcd_morphic", "violation"),
    ),
    "Vertex": (lambda: Vertex(1, 2), ("j", "s")),
    "PackingReport": (
        lambda: max_disjoint_packing(build_poset(_natural(), 3), 1, 2),
        ("spec", "root_level", "m", "n", "copies_total", "chains_total", "quotient_bound",
         "max_packing", "tight"),
    ),
    "Dim2Realizer": (
        lambda: dim2_realizer(build_poset(_natural(), 2)),
        ("order_a", "order_b"),
    ),
    "Prefabiant": (lambda: Prefabiant(1, 3), ("k", "n")),
    "LawWitness": (lambda: _laws().witnesses[0], ("law", "operands", "lhs", "rhs")),
    "LawResult": (lambda: _laws().laws[0], ("law", "checked", "violations")),
    "LawReport": (_laws, ("seed", "samples", "laws", "witnesses")),
    "FormalSeries": (lambda: exp_f_series(_natural(), 3), ("coeffs",)),
}


@pytest.mark.parametrize("name", RECORDS)
def test_fields_cannot_be_assigned_or_added(name):
    make, fields = RECORDS[name]
    record = make()
    assert type(record).__name__ == name
    for field in fields:
        value = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, value)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) is value
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("name", RECORDS)
def test_serializers_are_defined_in_the_class_body(name):
    # the benchmark's tracer wraps them through vars(cls)[method]
    cls = type(RECORDS[name][0]())
    for method in ("to_json", "to_json_dict"):
        if hasattr(cls, method):
            assert method in vars(cls), method


def _term(n: int) -> int:
    return n


@pytest.mark.parametrize(
    "make, args, other",
    [
        (FSequence, ("natural", _term), ("even", _term)),
        (Vertex, (1, 2), (2, 1)),
        (Prefabiant, (1, 3), (0, 3)),
        (FormalSeries, ((Fraction(1), Fraction(1, 2)),), ((Fraction(1),),)),
    ],
    ids=["FSequence", "Vertex", "Prefabiant", "FormalSeries"],
)
def test_equal_fields_give_equal_records_and_hashes(make, args, other):
    a, b = make(*args), make(*args)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != make(*other)


def test_sequences_with_distinct_term_functions_differ():
    assert FSequence("natural", _term) != FSequence("natural", lambda n: n)
    assert parse_sequence("natural") != parse_sequence("natural")


def test_records_of_different_slotted_types_differ():
    assert Prefabiant() != FormalSeries((Fraction(1),))
    assert Prefabiant() == Prefabiant(None, None)


def test_validation_still_raises():
    for k, n in ((2, 2), (3, 1), (-1, 2), (1, None), (None, 1)):
        with pytest.raises(ValueError):
            Prefabiant(k, n)
    with pytest.raises(ValueError):
        FormalSeries(())


def test_sequence_repr_names_its_spec():
    assert repr(parse_sequence("fibonacci")) == "FSequence('fibonacci')"
    assert repr(Prefabiant(0, 2)) == "Prefabiant(k=0, n=2)"
    assert repr(Vertex(1, 0)) == "Vertex(j=1, s=0)"


def test_slotted_records_have_no_tuple_arithmetic():
    series = exp_f_series(_natural(), 3)
    with pytest.raises(TypeError):
        2 * series
    with pytest.raises(TypeError):
        Prefabiant(0, 1) + Prefabiant(0, 2)
    with pytest.raises(TypeError):
        Prefabiant(0, 1) * 2
