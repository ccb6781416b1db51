import json
import math
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest

from homricci.space_model import (
    HomogeneousSpaceSpec,
    SpecError,
    StructureConstantTable,
    SubalgebraIndexSet,
    builtin_names,
    builtin_space,
    coefficients_array,
    load_space_spec,
    parse_number,
    space_spec_to_document,
    trace_Q_restricted,
    wallach_space,
)
from homricci.subalgebras import ordered_entries


def test_builtin_names():
    assert builtin_names() == ("E6_Sp3xSp1", "F4_SU3xSU2xU1", "G2_U2_long")


def test_builtin_g2_constants(g2):
    assert g2.d == (4, 2, 4)
    assert g2.b == (1.0, 1.0, 1.0)
    assert g2.constant(1, 2, 3) == 0.5
    assert g2.constant(1, 1, 2) == 2.0 / 3.0
    assert g2.constant(3, 3, 3) == 0.0


def test_builtin_f4_constants(f4):
    assert f4.d == (12, 18, 4, 6)
    assert f4.constant(2, 2, 4) == 2.0
    assert f4.constant(1, 1, 2) == 2.0
    assert f4.constant(1, 2, 3) == 1.0
    assert f4.constant(1, 3, 4) == 2.0 / 3.0
    assert len(f4.triples) == 4


def test_builtin_e6_constants(e6):
    assert e6.d == (14, 28, 12)
    assert e6.constant(1, 2, 3) == 3.5
    assert e6.total_dimension == 54


def test_unknown_builtin():
    with pytest.raises(SpecError, match="unknown builtin"):
        builtin_space("X9")


def test_lookup_permutation_invariant(f4):
    for multiset, value in f4.triples.entries:
        for perm in permutations(multiset):
            assert f4.constant(*perm) == value


def test_ordered_entries_multiplicity(g2):
    # one multiset with a repeat (3 orderings) and one with none (6 orderings)
    a, b, c, values = ordered_entries(g2)
    triples = list(zip((a + 1).tolist(), (b + 1).tolist(), (c + 1).tolist()))
    assert len(triples) == 3 + 6
    assert len(set(triples)) == 9
    assert triples[:3] == [(1, 1, 2), (1, 2, 1), (2, 1, 1)]
    assert triples[3:] == sorted(permutations((1, 2, 3)))
    assert values.tolist() == [2 / 3] * 3 + [0.5] * 6


def test_load_rational_strings():
    spec = load_space_spec(json.dumps({
        "name": "demo", "d": [4, 2, 4], "b": ["1", 1, "3/3"],
        "triples": [{"i": 1, "j": 2, "k": 3, "value": "1/2"},
                    {"i": 1, "j": 1, "k": 2, "value": "2/3"}],
    }))
    assert spec.constant(1, 2, 3) == 0.5
    assert spec.constant(2, 1, 1) == 2.0 / 3.0
    assert spec.b == (1.0, 1.0, 1.0)


def test_load_defaults_b_to_ones():
    spec = load_space_spec({"name": "nob", "d": [3, 3], "triples": []})
    assert spec.b == (1.0, 1.0)


def test_load_negative_constant():
    with pytest.raises(SpecError, match="negative structure constant"):
        load_space_spec({"name": "bad", "d": [4, 2, 4],
                         "triples": [{"i": 1, "j": 2, "k": 3, "value": -0.5}]})


def test_load_duplicate_multiset():
    with pytest.raises(SpecError, match="duplicate multiset"):
        load_space_spec({"name": "bad", "d": [4, 2, 4],
                         "triples": [{"i": 1, "j": 2, "k": 3, "value": 0.5},
                                     {"i": 1, "j": 2, "k": 3, "value": 0.25}]})


def test_load_unsorted_indices():
    with pytest.raises(SpecError, match="i <= j <= k"):
        load_space_spec({"name": "bad", "d": [4, 2, 4],
                         "triples": [{"i": 2, "j": 1, "k": 3, "value": 0.5}]})


def test_load_bad_dimensions():
    with pytest.raises(SpecError, match=r"d\[2\]"):
        load_space_spec({"name": "bad", "d": [4, 0, 4], "triples": []})
    with pytest.raises(SpecError, match="at least 3"):
        load_space_spec({"name": "bad", "d": [1, 1], "triples": []})
    with pytest.raises(SpecError, match="integer"):
        load_space_spec({"name": "bad", "d": [4, 2.5], "triples": []})


def test_load_index_out_of_range():
    with pytest.raises(SpecError, match="out of range"):
        load_space_spec({"name": "bad", "d": [4, 2],
                         "triples": [{"i": 1, "j": 2, "k": 3, "value": 1}]})


def test_load_negative_killing():
    with pytest.raises(SpecError, match=r"b\[1\]"):
        load_space_spec({"name": "bad", "d": [4, 2], "b": [-1, 1], "triples": []})


def test_load_rejects_non_object():
    with pytest.raises(SpecError):
        load_space_spec("[1, 2, 3]")
    with pytest.raises(SpecError, match="not valid JSON"):
        load_space_spec("{nope")


def test_round_trip_bit_for_bit(f4, g2, e6):
    for spec in (f4, g2, e6):
        document = space_spec_to_document(spec)
        reloaded = load_space_spec(json.dumps(document))
        assert reloaded.name == spec.name
        assert reloaded.d == spec.d
        assert reloaded.b == spec.b
        assert reloaded.triples.entries == spec.triples.entries


def test_wallach_space_shape():
    spec = wallach_space((14, 28, 12), "7/2")
    assert spec.constant(1, 2, 3) == 3.5
    assert spec.constant(1, 1, 2) == 0.0
    flat = wallach_space((2, 2, 2), 0)
    assert len(flat.triples.nonzero_multisets()) == 0
    with pytest.raises(SpecError):
        wallach_space((2, 2), 1)


def test_trace_restricted_examples(g2, f4, e6):
    assert trace_Q_restricted(g2, (1, 1, 1), {1, 3}) == 8.0
    assert trace_Q_restricted(f4, (1, 1, 1, 1), {1, 3}) == 16.0
    assert trace_Q_restricted(e6, (1, 2, 3), {2, 3}) == 92.0


def test_trace_restricted_additive(e6):
    z = (1.3, 0.7, 2.2)
    full = trace_Q_restricted(e6, z, {1, 2, 3})
    assert full == sum(e6.d[i] * z[i] for i in range(3))
    part = trace_Q_restricted(e6, z, {1}) + trace_Q_restricted(e6, z, {2, 3})
    assert abs(part - full) < 1e-12 * abs(full)


def test_trace_restricted_empty_set_rejected(g2):
    with pytest.raises(ValueError, match="non-empty"):
        trace_Q_restricted(g2, (1, 1, 1), set())


def test_coefficients_array_checks(g2):
    assert coefficients_array((1, 2.5, 3), 3, "z") == (1.0, 2.5, 3.0)
    assert trace_Q_restricted(g2, (1.0, 2.0, 3.0), {2, 3}) == 2 * 2 + 4 * 3
    for bad in ((1.0, 0.0, 1.0), (1.0, -2.0, 1.0), (1.0, math.inf, 1.0), (math.nan, 1.0, 1.0)):
        with pytest.raises(ValueError, match=r"z\[\d\] must be finite and positive"):
            coefficients_array(bad, 3, "z")
        with pytest.raises(ValueError, match="finite and positive"):
            trace_Q_restricted(g2, bad, {1})
    with pytest.raises(ValueError, match="length"):
        coefficients_array((1.0, 2.0), 3, "z")


def test_index_set_basics():
    J = SubalgebraIndexSet.of(3, 1)
    assert J.sorted == (1, 3)
    assert 1 in J and 2 not in J
    assert J.complement(4) == frozenset({2, 4})
    assert str(J) == "{1,3}"
    with pytest.raises(ValueError):
        SubalgebraIndexSet(frozenset())


def test_spec_is_hashable_and_frozen(g2):
    assert hash(g2) == hash(builtin_space("G2_U2_long"))
    with pytest.raises(Exception):
        g2.name = "other"


def test_equal_specs_loaded_apart_share_one_lattice():
    from homricci.subalgebras import _lattice

    doc = {"name": "hash_probe", "d": [4, 2, 4],
           "triples": [{"i": 1, "j": 1, "k": 2, "value": "2/3"}, {"i": 1, "j": 2, "k": 3, "value": "1/2"}]}
    first, second = load_space_spec(doc), load_space_spec(json.dumps(doc))
    assert first is not second and first == second
    assert _lattice(first) is _lattice(second)
    assert sum(key.name == "hash_probe" for key in list(_lattice.cache.keys())) == 1


def test_spec_hash_leaves_out_the_constant_table(monkeypatch, g2):
    # per-spec caches hash the spec on every lookup
    def refuse(self):
        raise AssertionError("the constant table was hashed")

    monkeypatch.setattr(StructureConstantTable, "__hash__", refuse)
    twin = HomogeneousSpaceSpec(name=g2.name, d=g2.d, b=g2.b, triples=g2.triples)
    assert hash(twin) == hash(g2) and {g2: "found"}[twin] == "found"


def test_spec_validation_direct():
    with pytest.raises(SpecError):
        HomogeneousSpaceSpec(name="", d=(4,), b=(1.0,), triples=StructureConstantTable(()))
    with pytest.raises(SpecError, match="out of range"):
        HomogeneousSpaceSpec(name="x", d=(4,), b=(1.0,),
                             triples=StructureConstantTable((((1, 1, 2), 1.0),)))


def test_parse_number_accepts_numbers_and_rationals():
    assert parse_number(" 2 ", "x") == 2.0
    assert parse_number("1.", "x") == 1.0
    assert parse_number(".5", "x") == 0.5
    assert parse_number("2/9", "x") == 2 / 9
    assert parse_number(7, "x") == 7.0
    assert parse_number(-0.25, "x") == -0.25


@pytest.mark.parametrize("raw", [True, None, [1], "abc", "1/0", "inf", "nan", math.inf, math.nan,
                                 "1e400", 10 ** 400, -(10 ** 400)])
def test_parse_number_rejects_non_finite_and_non_numbers(raw):
    with pytest.raises(SpecError, match=r"^field\[3\]: "):
        parse_number(raw, "field[3]")


def _parsed_by_fraction(raw: str):
    """What parse_number gave before its p/q fast path: float(Fraction(raw)),
    the SpecError message on a parse failure, or the non-finite message."""
    from fractions import Fraction

    try:
        value = float(Fraction(raw))
    except (ValueError, ZeroDivisionError):
        return f"x: cannot parse {raw!r} as a number"
    except OverflowError:
        value = math.inf
    return value.hex() if math.isfinite(value) else f"x: {raw!r} is not a finite number"


def _parsed(raw: str):
    try:
        return parse_number(raw, "x").hex()
    except SpecError as error:
        return str(error)


def test_rational_fast_path_matches_fraction_bit_for_bit():
    corpus = json.loads((Path(__file__).parent / "data" / "verdict_corpus.json").read_text())["requests"]
    strings = {t[3] for entry in corpus for t in entry["space"]["triples"]}
    strings |= {f"{p}/{q}" for p in range(0, 60) for q in range(1, 60)}
    rng = np.random.default_rng(2024)
    strings |= {f"{rng.integers(1, 10 ** 18)}{rng.integers(0, 10 ** 18)}/{rng.integers(1, 10 ** 18)}"
                for _ in range(2000)}
    edges = [" 7/2", "7/2 ", "+7/2", "-7/2", "7 /2", "7/ 2", "1/0", "0/0", "00/5", "007/0003", "7/", "/2",
             "/", "", "1/2/3", "1_000/3", "1e3/2", "1.5/2", "\uff11/\uff12", "\u00b2/3", "inf", "nan", "0/7",
             "9" * 400 + "/1", "1/" + "9" * 400, "1" * 320 + "/" + "3" * 10, "1" * 5000 + "/3"]
    assert len(strings) > 5000
    for raw in sorted(strings) + edges:
        assert _parsed(raw) == _parsed_by_fraction(raw), raw


def _spec_document(**changes):
    document = {"name": "demo", "d": [4, 2, 4], "b": [1, 1, 1],
                "triples": [{"i": 1, "j": 2, "k": 3, "value": 0.5}]}
    document.update(changes)
    return document


def _build_directly(document):
    return HomogeneousSpaceSpec(
        name=document["name"], d=tuple(document["d"]), b=tuple(document["b"]),
        triples=StructureConstantTable.from_items(
            [((t["i"], t["j"], t["k"]), t["value"]) for t in document["triples"]]),
    )


@pytest.mark.parametrize("changes, message", [
    ({"d": [4, True, 4]}, r"d\[2\]: summand dimension must be a positive integer"),
    ({"name": 7}, "name: name must be a non-empty string"),
    ({"b": [1, math.inf, 1]}, r"b\[2\]: inf is not a finite number"),
    ({"b": [1, -1, 1]}, r"b\[2\]: Killing coefficient must be non-negative"),
    ({"triples": [{"i": 1, "j": 2, "k": 3, "value": -0.5}]},
     r"triples\[\(1, 2, 3\)\]\.value: negative structure constant"),
    ({"triples": [{"i": 1, "j": 2, "k": 3, "value": 0.5}, {"i": 1, "j": 2, "k": 3, "value": 0.25}]},
     r"triples\[\(1, 2, 3\)\]: duplicate multiset"),
    ({"triples": [{"i": 1, "j": 1, "k": 4, "value": 1}]}, r"index 4 out of range 1\.\.3"),
])
def test_direct_and_loaded_specs_share_one_validator(changes, message):
    document = _spec_document(**changes)
    with pytest.raises(SpecError, match=message) as direct:
        _build_directly(document)
    with pytest.raises(SpecError, match=message) as loaded:
        load_space_spec(json.dumps(document))
    assert str(direct.value) == str(loaded.value)


def test_structure_constants_accept_rational_strings():
    table = StructureConstantTable.from_items({(3, 1, 2): "7/2", (1, 1, 2): " 2/3"})
    assert table.entries == (((1, 1, 2), 2 / 3), ((1, 2, 3), 3.5))
