"""Round-trips and error paths for the JSON document layer."""
import json
from fractions import Fraction

import pytest

from codimlab.documents import (DocumentError, bench_to_document,
                                document_to_bench, dualize_bench,
                                dumps_document, load_document,
                                loads_document, scalar_from_json)
from codimlab.fixtures import FIXTURE_BUILDERS, build_fixture
from codimlab.lie_core import StructureAnnotation
from codimlab.scalar import FieldSpec


def mutated(doc, mutate):
    copy = json.loads(json.dumps(doc))
    mutate(copy)
    return copy


def pointer_of(doc, mutate):
    with pytest.raises(DocumentError) as err:
        document_to_bench(mutated(doc, mutate))
    return err.value.pointer


# -- round-trips ------------------------------------------------------


def annotated_gl2():
    """gl2_z2_action with its Levi factor and nilradical written out:
    no bundled fixture needs an annotation."""
    bench = build_fixture("gl2_z2_action")
    alg = bench.algebra
    one, z = alg.field.one(), alg.field.zero()
    bench.annotation = StructureAnnotation(
        levi=alg.span([alg.basis_vector(1), alg.basis_vector(2),
                       (one, z, z, -one)]),
        nilradical=alg.span([(one, z, z, one)]))
    return bench


def assert_round_trip(bench):
    text = dumps_document(bench)
    back = loads_document(text)
    assert back.name == bench.name
    assert back.algebra.field == bench.algebra.field
    assert back.algebra.basis_names == bench.algebra.basis_names
    assert back.algebra.table == bench.algebra.table
    assert back.group.names == bench.group.names
    assert back.group.table == bench.group.table
    assert back.group.abelian_orders == bench.group.abelian_orders
    if bench.action is None:
        assert back.action is None
    else:
        assert back.action.matrices == bench.action.matrices
    if bench.grading is None:
        assert back.grading is None
    else:
        assert back.grading.labels == bench.grading.labels
    if bench.annotation is None:
        assert back.annotation is None
    else:
        for part in ("levi", "nilradical", "complement"):
            assert getattr(back.annotation, part) == \
                getattr(bench.annotation, part)
    # serializer is a fixed point on loaded documents
    assert dumps_document(back) == text


@pytest.mark.parametrize("name", sorted(FIXTURE_BUILDERS))
def test_round_trip(name):
    assert_round_trip(build_fixture(name))


def test_annotated_round_trip():
    bench = annotated_gl2()
    assert "annotations" in bench_to_document(bench)
    assert_round_trip(bench)


def test_load_from_file(tmp_path):
    bench = build_fixture("heisenberg")
    path = tmp_path / "heis.json"
    path.write_text(dumps_document(bench), encoding="utf-8")
    assert load_document(path).algebra.table == bench.algebra.table


def test_serialization_is_deterministic():
    one = dumps_document(build_fixture("gl2_z2_action"))
    two = dumps_document(build_fixture("gl2_z2_action"))
    assert one == two
    assert one.endswith("\n")


def test_cyclotomic_scalars_serialize_as_arrays():
    doc = bench_to_document(build_fixture("metabelian_m3_cyclic"))
    assert doc["field"] == {"kind": "cyclotomic", "order": 3}
    flat = json.dumps(doc)
    assert "[" in flat
    back = document_to_bench(doc)
    assert back.algebra.field == FieldSpec(3)


def test_grading_labels_serialize_as_names():
    doc = bench_to_document(build_fixture("gl2_z2_graded"))
    assert doc["grading"]["labels"] == ["e", "t", "t", "e"]


def test_grading_accepts_integer_labels():
    doc = bench_to_document(build_fixture("gl2_z2_graded"))
    doc["grading"]["labels"] = [0, 1, 1, 0]
    back = document_to_bench(doc)
    assert back.grading.labels == (0, 1, 1, 0)


def test_group_from_abelian_orders_only():
    doc = bench_to_document(build_fixture("metabelian_m2_cyclic"))
    orders = doc["group"]["abelian_orders"]
    doc["group"] = {"abelian_orders": orders}
    back = document_to_bench(doc)
    reference = build_fixture("metabelian_m2_cyclic").group
    assert back.group.table == reference.table
    assert back.group.abelian_orders == reference.abelian_orders
    assert back.group.names == ("e", "t")


# -- error paths ------------------------------------------------------


@pytest.fixture(scope="module")
def gl2_doc():
    return bench_to_document(build_fixture("gl2_z2_graded"))


def test_unknown_top_level_key(gl2_doc):
    assert pointer_of(gl2_doc, lambda d: d.update(extra=1)) == "/extra"


def test_missing_name(gl2_doc):
    assert pointer_of(gl2_doc, lambda d: d.pop("name")) == "/name"


def test_float_scalar_rejected(gl2_doc):
    ptr = pointer_of(
        gl2_doc, lambda d: d["brackets"][0]["coeffs"].update({"1": 0.5}))
    assert ptr == "/brackets/0/coeffs/1"


def test_bool_scalar_rejected(gl2_doc):
    ptr = pointer_of(
        gl2_doc, lambda d: d["brackets"][0]["coeffs"].update({"1": True}))
    assert ptr == "/brackets/0/coeffs/1"


def test_bad_bracket_pair(gl2_doc):
    ptr = pointer_of(gl2_doc, lambda d: d["brackets"][0].update(i=3, j=1))
    assert ptr == "/brackets/0"


def test_coefficient_index_out_of_range(gl2_doc):
    ptr = pointer_of(
        gl2_doc, lambda d: d["brackets"][0]["coeffs"].update({"9": 1}))
    assert ptr == "/brackets/0/coeffs/9"


def test_action_and_grading_together(gl2_doc):
    ptr = pointer_of(gl2_doc,
                     lambda d: d.update(action={"matrices": []}))
    assert ptr == "/action"


def test_bad_group_table(gl2_doc):
    ptr = pointer_of(gl2_doc,
                     lambda d: d["group"]["table"][0].__setitem__(0, 1))
    assert ptr == "/group/table"


def test_unknown_grading_label(gl2_doc):
    ptr = pointer_of(
        gl2_doc, lambda d: d["grading"]["labels"].__setitem__(0, "nope"))
    assert ptr == "/grading/labels/0"


def test_unknown_field_kind(gl2_doc):
    assert pointer_of(gl2_doc,
                      lambda d: d["field"].update(kind="real")) \
        == "/field/kind"


def test_duplicate_basis_names(gl2_doc):
    ptr = pointer_of(
        gl2_doc, lambda d: d["basis"].__setitem__(0, d["basis"][1]))
    assert ptr == "/basis"


def test_jacobi_failure_reported():
    doc = bench_to_document(build_fixture("sl2_trivial"))
    doc["brackets"][0]["coeffs"] = {"0": 1}
    with pytest.raises(DocumentError) as err:
        document_to_bench(doc)
    assert err.value.pointer == "/brackets"
    assert "Jacobi" in err.value.message


def test_inhomogeneous_grading_rejected(gl2_doc):
    ptr = pointer_of(
        gl2_doc,
        lambda d: d["grading"].update(labels=["e", "e", "e", "t"]))
    assert ptr == "/grading"


def test_non_equivariant_action_rejected():
    doc = bench_to_document(build_fixture("gl2_z2_action"))
    doc["action"]["matrices"][1][0][0] = "7"
    with pytest.raises(DocumentError) as err:
        document_to_bench(doc)
    assert err.value.pointer == "/action"


def test_cyclotomic_array_length_checked():
    doc = bench_to_document(build_fixture("metabelian_graded_m2"))
    doc["brackets"][0]["coeffs"]["1"] = [1, 2]
    with pytest.raises(DocumentError) as err:
        document_to_bench(doc)
    assert err.value.pointer == "/brackets/0/coeffs/1"


def test_garbage_rational_string(gl2_doc):
    ptr = pointer_of(
        gl2_doc,
        lambda d: d["brackets"][0]["coeffs"].update({"1": "a/b"}))
    assert ptr == "/brackets/0/coeffs/1"


def test_invalid_json_text():
    with pytest.raises(DocumentError):
        loads_document("{nope")


def test_duplicate_json_keys_rejected(gl2_doc):
    text = json.dumps(gl2_doc).replace('"coeffs": {"1": "1"}',
                                       '"coeffs": {"1": "1", "1": "5"}', 1)
    with pytest.raises(DocumentError) as err:
        loads_document(text)
    assert err.value.message == "duplicate object key '1'"


@pytest.mark.parametrize("coeffs,key,message", [
    ({"2": "1", "02": "5"}, "02", "index 2 repeats"),
    ({"\u0662": "1"}, "\u0662", "key must be a basis index"),
    ({" 2": "1"}, " 2", "key must be a basis index")])
def test_coefficient_keys_are_distinct_ascii_indices(coeffs, key, message):
    doc = bench_to_document(build_fixture("metabelian_graded_m2"))
    doc["brackets"][0]["coeffs"] = coeffs
    with pytest.raises(DocumentError) as err:
        document_to_bench(doc)
    assert (err.value.pointer, err.value.message) == (
        f"/brackets/0/coeffs/{key}", message)


@pytest.mark.parametrize("field", ["i", "j"])
def test_bracket_indices_reject_booleans(gl2_doc, field):
    # the bracket (0, 1) reads as (false, true) in JSON
    ptr = pointer_of(gl2_doc, lambda d: d["brackets"][0].update(
        {field: bool(d["brackets"][0][field])}))
    assert ptr == "/brackets/0"


@pytest.mark.parametrize("group,names", [
    ({"names": ["e", "g"], "table": [[0, 1], [1, 0]]}, ["e", "e"]),
    ({"names": ["e", "g"], "table": [[0, 1], [1, 0]]}, ["e", 1]),
    ({"abelian_orders": [2]}, ["e", "e"])])
def test_group_names_are_distinct_strings(group, names):
    # with names e, e the labels 0, 1, 0, 1 would be written back as
    # e, e, e, e and reload as the trivial grading
    doc = bench_to_document(build_fixture("metabelian_graded_m2"))
    doc["group"] = dict(group, names=names)
    doc["grading"]["labels"] = [0, 1, 0, 1]
    assert pointer_of(doc, lambda d: None) == "/group/names"


@pytest.mark.parametrize("group", [
    # Z6 in cyclic order declared as Z2 x Z3
    {"names": ["e", "t", "t2", "t3", "t4", "t5"],
     "table": [[(a + b) % 6 for b in range(6)] for a in range(6)],
     "abelian_orders": [2, 3]},
    # the Klein four-group declared as Z4
    {"names": ["e", "a", "b", "c"],
     "table": [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]],
     "abelian_orders": [4]},
    {"names": [], "table": []}])
def test_group_table_must_be_what_it_declares(group):
    doc = bench_to_document(build_fixture("sl2_trivial"))
    doc["group"] = group
    assert pointer_of(doc, lambda d: None) == "/group/table"


def test_annotation_vector_length_checked():
    doc = bench_to_document(annotated_gl2())
    doc["annotations"]["levi_basis"][0] = [1, 0]
    with pytest.raises(DocumentError) as err:
        document_to_bench(doc)
    assert err.value.pointer == "/annotations/levi_basis/0"


# -- polynomial documents ---------------------------------------------


def test_poly_round_trip():
    from codimlab.documents import dumps_poly, loads_poly
    from codimlab.scalar import RATIONALS
    field = RATIONALS
    poly = {((1, 0), (2, 0)): field.one(),
            ((2, 0), (1, 0)): field.from_rational(-1)}
    text = dumps_poly(poly, field, sets=[(1, 2)])
    back, back_field, sets = loads_poly(text)
    assert back == poly
    assert back_field == field
    assert sets == [(1, 2)]
    assert dumps_poly(back, back_field, sets) == text


def test_poly_rejects_bad_word_entries():
    from codimlab.documents import poly_from_json
    base = {"kind": "g_polynomial", "field": {"kind": "rational"},
            "terms": [{"word": [[0, 0]], "coeff": 1}]}
    with pytest.raises(DocumentError) as err:
        poly_from_json(base)
    assert err.value.pointer == "/terms/0/word/0"


def test_poly_rejects_duplicate_words():
    from codimlab.documents import poly_from_json
    base = {"kind": "g_polynomial", "field": {"kind": "rational"},
            "terms": [{"word": [[1, 0]], "coeff": 1},
                      {"word": [[1, 0]], "coeff": 2}]}
    with pytest.raises(DocumentError) as err:
        poly_from_json(base)
    assert err.value.pointer == "/terms/1/word"


def test_poly_drops_zero_coefficients():
    from codimlab.documents import poly_from_json
    base = {"kind": "g_polynomial", "field": {"kind": "rational"},
            "terms": [{"word": [[1, 0]], "coeff": 0}]}
    poly, _, _ = poly_from_json(base)
    assert poly == {}


def test_poly_kind_is_checked():
    from codimlab.documents import poly_from_json
    with pytest.raises(DocumentError) as err:
        poly_from_json({"kind": "algebra", "field": {}, "terms": []})
    assert err.value.pointer == "/kind"


def poly_doc(*terms, **fields):
    """A rational g_polynomial document with terms given as
    (word, coeff) pairs and any top-level fields replaced."""
    return {"kind": "g_polynomial", "field": {"kind": "rational"},
            "terms": [{"word": word, "coeff": coeff}
                      for word, coeff in terms], **fields}


FLOAT = 'scalars must be integers or "p/q" strings, never floats'
PAIR = "expected a [variable >= 1, group index >= 0] pair"
SETS = "expected lists of variables >= 1"


@pytest.mark.parametrize("doc, pointer, message", [
    ([], "", "expected a JSON object"),
    (poly_doc(extra=1), "/extra", "unknown field"),
    ({"kind": "g_polynomial", "terms": []}, "/field", "missing field"),
    (poly_doc(terms={}), "/terms", "expected list"),
    (poly_doc(terms=[[[1, 0]]]), "/terms/0", "expected {word, coeff}"),
    (poly_doc(terms=[{"word": [[1, 0]]}]), "/terms/0",
     "expected {word, coeff}"),
    (poly_doc(("x1", 1)), "/terms/0/word", "expected a list"),
    (poly_doc(([[1, 0], [True, 0]], 1)), "/terms/0/word/1", PAIR),
    (poly_doc(([[1, False]], 1)), "/terms/0/word/0", PAIR),
    (poly_doc(([[1, -1]], 1)), "/terms/0/word/0", PAIR),
    (poly_doc(([[1, 0, 0]], 1)), "/terms/0/word/0", PAIR),
    (poly_doc(([[1.0, 0]], 1)), "/terms/0/word/0", PAIR),
    (poly_doc(([1], 1)), "/terms/0/word/0", PAIR),
    # a bad coefficient after a good one of the same text, and a bad
    # one repeated, point at their first term
    (poly_doc(([[1, 0]], "1/2"), ([[2, 0]], "1/2"), ([[3, 0]], 0.5)),
     "/terms/2/coeff", FLOAT),
    (poly_doc(([[1, 0]], "-1"), ([[2, 0]], True)), "/terms/1/coeff", FLOAT),
    (poly_doc(([[1, 0]], "x"), ([[2, 0]], "x")), "/terms/0/coeff",
     "not a rational number: 'x'"),
    (poly_doc(alternating_sets="1-2"), "/alternating_sets", SETS),
    (poly_doc(alternating_sets=[1, 2]), "/alternating_sets", SETS),
    (poly_doc(alternating_sets=[[1], [0]]), "/alternating_sets", SETS),
    (poly_doc(alternating_sets=[[True]]), "/alternating_sets", SETS)])
def test_poly_error_paths_keep_pointer_and_message(doc, pointer, message):
    from codimlab.documents import poly_from_json
    with pytest.raises(DocumentError) as err:
        poly_from_json(doc)
    assert (err.value.pointer, err.value.message) == (pointer, message)


def test_poly_coefficients_parsed_once_read_alike():
    from codimlab.documents import poly_from_json
    from codimlab.scalar import RATIONALS
    poly, _, sets = poly_from_json(poly_doc(
        ([[1, 0]], "1/2"), ([[2, 0]], "1/2"), ([[3, 1]], "0"),
        ([[4, 0]], "0"), ([[5, 0]], 3), ([[6, 0]], "3"),
        alternating_sets=[[1, 2]]))
    half, three = RATIONALS.from_rational(Fraction(1, 2)), \
        RATIONALS.from_rational(3)
    assert poly == {((1, 0),): half, ((2, 0),): half, ((5, 0),): three,
                    ((6, 0),): three}
    assert sets == [(1, 2)]


# -- representation instance documents --------------------------------


def test_instance_round_trip():
    from fractions import Fraction
    from codimlab.alternating import RepresentationInstance
    from codimlab.documents import dumps_instance, loads_document
    from codimlab.documents import instance_from_json
    from codimlab.fixtures import sl2
    from codimlab.linalg import MatrixExact
    from codimlab.scalar import RATIONALS
    from codimlab.symmetry import trivial_action

    alg = sl2()
    f = RATIONALS

    def mat(rows):
        return MatrixExact(f, [[f.from_rational(Fraction(x))
                                for x in r] for r in rows])

    maps = [mat([[0, 1], [0, 0]]), mat([[1, 0], [0, -1]]),
            mat([[0, 0], [1, 0]])]
    inst = RepresentationInstance(alg, trivial_action(alg), maps,
                                  [mat([[1, 0], [0, 1]])],
                                  faithful=True,
                                  irreducible_with_group=True)
    inst.validate()
    text = dumps_instance(inst)
    back = instance_from_json(json.loads(text))
    back.validate()
    assert back.algebra_maps == inst.algebra_maps
    assert back.group_maps == inst.group_maps
    assert back.faithful and back.irreducible_with_group
    assert dumps_instance(back) == text


def test_instance_wrong_map_count():
    from codimlab.documents import instance_from_json
    doc = json.loads(dumps_document(build_fixture("sl2_trivial")))
    with pytest.raises(DocumentError) as err:
        instance_from_json({"algebra": doc, "module": {
            "dim": 2, "algebra_maps": [], "group_maps": []}})
    assert err.value.pointer == "/module/algebra_maps"


def test_instance_nested_algebra_pointer():
    from codimlab.documents import instance_from_json
    doc = json.loads(dumps_document(build_fixture("sl2_trivial")))
    doc["dim"] = 5
    with pytest.raises(DocumentError) as err:
        instance_from_json({"algebra": doc, "module": {
            "dim": 2, "algebra_maps": [], "group_maps": []}})
    assert err.value.pointer.startswith("/algebra/")


# -- duality ----------------------------------------------------------


@pytest.mark.parametrize("name", ["gl2_z2_graded", "metabelian_graded_m2"])
def test_dualize_produces_action_bench(name):
    bench = build_fixture(name)
    dual = dualize_bench(bench)
    assert dual.name == bench.name + "_dual"
    assert dual.grading is None
    assert dual.action is not None
    assert not dual.action.validate(dual.algebra)
    # the dual document survives a round trip of its own
    assert loads_document(dumps_document(dual)).action.matrices \
        == dual.action.matrices


def test_dualize_needs_a_grading():
    with pytest.raises(DocumentError):
        dualize_bench(build_fixture("sl2_trivial"))


# -- scalar tokens ------------------------------------------------------


@pytest.mark.parametrize("order", [1, 3, 5])
@pytest.mark.parametrize("token, value", [
    ("0", 0), ("-12", -12), ("+3", 3), (" 7 ", 7), ("1_000", 1000),
    ("3/4", Fraction(3, 4)), ("\u0663", 3), ("007", 7), ("-0", 0),
    (5, 5), (-3, -3), (0, 0)])
def test_scalar_tokens_parse_to_their_value(order, token, value):
    """Plain integer tokens take the int path, every other accepted
    token the Fraction path; both give the Scalar of the value."""
    field = FieldSpec(order)
    assert scalar_from_json(field, token, "/p") == field.from_rational(value)


@pytest.mark.parametrize("order, node, coeffs", [
    (1, [4], [4]), (1, ["-2/6"], [Fraction(-1, 3)]),
    (3, ["2", 3], [2, 3]), (3, [" 7 "], [7, 0]),
    (5, ["1/2", -1, "+3"], [Fraction(1, 2), -1, 3, 0]),
    (5, [], [0, 0, 0, 0])])
def test_coefficient_lists_shorter_than_the_degree(order, node, coeffs):
    field = FieldSpec(order)
    want = field.scalar([Fraction(c) for c in coeffs])
    got = scalar_from_json(field, node, "/p")
    assert got == want and (got.num, got.den) == (want.num, want.den)


@pytest.mark.parametrize("order, node, pointer, message", [
    (1, 1.5, "/p", FLOAT), (3, True, "/p", FLOAT), (1, False, "/p", FLOAT),
    (1, "abc", "/p", "not a rational number: 'abc'"),
    (3, "1/0", "/p", "not a rational number: '1/0'"),
    (1, "", "/p", "not a rational number: ''"),
    (1, "-", "/p", "not a rational number: '-'"),
    (1, "²", "/p", "not a rational number: '²'"),
    (1, None, "/p", "expected an integer or a string"),
    (3, {}, "/p", "expected an integer or a string"),
    (3, [1, "x"], "/p/1", "not a rational number: 'x'"),
    (3, [1.5], "/p/0", FLOAT), (5, [True], "/p/0", FLOAT),
    (1, ["2", 3], "/p", "at most 1 coefficients fit in this field, got 2"),
    (3, [1, 2, 3], "/p", "at most 2 coefficients fit in this field, got 3"),
    (5, [0] * 5, "/p", "at most 4 coefficients fit in this field, got 5")])
def test_scalar_token_rejections_keep_pointer_and_message(
        order, node, pointer, message):
    with pytest.raises(DocumentError) as err:
        scalar_from_json(FieldSpec(order), node, "/p")
    assert (err.value.pointer, err.value.message) == (pointer, message)
