"""JSON documents describing algebras with their symmetry data.

A document carries the structure constants, the group, and exactly one
of an action or a grading, plus optional structure annotations.  Every
scalar is written as an integer, a "p/q" string, or a coefficient
array over the cyclotomic basis.  Floats are rejected on sight.

Loading validates everything it can: the bracket table, the group
table, the action or grading axioms.  Errors carry a JSON-pointer-like
path to the offending field.
"""
from __future__ import annotations

import json
from fractions import Fraction

from codimlab.fixtures import Workbench
from codimlab.lie_core import LieAlgebra, StructureAnnotation
from codimlab.linalg import MatrixExact, Subspace
from codimlab.scalar import RATIONALS, FieldSpec, Scalar
from codimlab.symmetry import (FiniteGroup, Grading, GroupAction,
                               grading_to_action)


class DocumentError(ValueError):
    """Schema or content problem, with the path of the bad field."""

    def __init__(self, pointer: str, message: str):
        super().__init__(f"{pointer or '/'}: {message}")
        self.pointer = pointer
        self.message = message


# -- scalars and matrices ---------------------------------------------


def scalar_to_json(s: Scalar):
    if s.field.degree == 1:
        return str(s.as_rational())
    return [str(c) for c in s.coeffs]


def _rational_from_json(node, pointer: str) -> int | Fraction:
    """A JSON scalar token as a number: an int for a JSON integer or a
    plain ASCII integer string -?[0-9]+, else the Fraction of the
    string, with its DocumentError when there is none."""
    if type(node) is int:
        return node
    if type(node) is str:
        digits = node[1:] if node[:1] == "-" else node
        if digits.isdigit() and digits.isascii():
            return int(node)
    if isinstance(node, bool) or isinstance(node, float):
        raise DocumentError(pointer, "scalars must be integers or "
                            "\"p/q\" strings, never floats")
    if isinstance(node, int):
        return Fraction(node)
    if isinstance(node, str):
        try:
            return Fraction(node)
        except (ValueError, ZeroDivisionError):
            raise DocumentError(
                pointer, f"not a rational number: {node!r}") from None
    raise DocumentError(pointer, "expected an integer or a string")


def scalar_from_json(field: FieldSpec, node, pointer: str) -> Scalar:
    if isinstance(node, list):
        if len(node) > field.degree:
            raise DocumentError(
                pointer, f"at most {field.degree} coefficients fit in "
                f"this field, got {len(node)}")
        coeffs = [_rational_from_json(c, f"{pointer}/{i}")
                  for i, c in enumerate(node)]
        coeffs += [0] * (field.degree - len(coeffs))
        return field.scalar(coeffs)
    return field.from_rational(_rational_from_json(node, pointer))


def matrix_to_json(mat: MatrixExact):
    return [[scalar_to_json(x) for x in row] for row in mat.data]


def matrix_from_json(field: FieldSpec, node, size: int,
                     pointer: str) -> MatrixExact:
    if not isinstance(node, list) or len(node) != size:
        raise DocumentError(pointer, f"expected {size} rows")
    rows = []
    for i, row in enumerate(node):
        if not isinstance(row, list) or len(row) != size:
            raise DocumentError(f"{pointer}/{i}",
                                f"expected {size} entries")
        rows.append([scalar_from_json(field, x, f"{pointer}/{i}/{j}")
                     for j, x in enumerate(row)])
    return MatrixExact(field, rows)


def vector_from_json(field: FieldSpec, node, dim: int,
                     pointer: str) -> tuple:
    if not isinstance(node, list) or len(node) != dim:
        raise DocumentError(pointer, f"expected {dim} coordinates")
    return tuple(scalar_from_json(field, x, f"{pointer}/{i}")
                 for i, x in enumerate(node))


# -- document assembly ------------------------------------------------


def _field_to_json(field: FieldSpec) -> dict:
    return ({"kind": "rational"} if field.order == 1
            else {"kind": "cyclotomic", "order": field.order})


def bench_to_document(bench: Workbench) -> dict:
    alg = bench.algebra
    doc = {
        "name": bench.name,
        "field": _field_to_json(alg.field),
        "dim": alg.dim,
        "basis": list(alg.basis_names),
        "brackets": [
            {"i": i, "j": j,
             "coeffs": {str(k): scalar_to_json(c)
                        for k, c in sorted(comp.items())}}
            for (i, j), comp in sorted(alg.table.items())],
        "group": _group_to_json(bench.group),
    }
    if bench.action is not None:
        doc["action"] = {"matrices": [matrix_to_json(m)
                                      for m in bench.action.matrices]}
    if bench.grading is not None:
        doc["grading"] = {"labels": [bench.group.names[g]
                                     for g in bench.grading.labels]}
    ann = bench.annotation
    if ann is not None:
        block = {}
        for key, space in (("levi_basis", ann.levi),
                           ("nilradical_basis", ann.nilradical),
                           ("complement_basis", ann.complement)):
            if space is not None:
                block[key] = [[scalar_to_json(x) for x in v]
                              for v in space.basis]
        doc["annotations"] = block
    return doc


def _group_to_json(group: FiniteGroup) -> dict:
    out = {"names": list(group.names),
           "table": [list(r) for r in group.table]}
    if group.abelian_orders is not None:
        out["abelian_orders"] = list(group.abelian_orders)
    return out


def dumps_document(bench: Workbench) -> str:
    return json.dumps(bench_to_document(bench), sort_keys=True,
                      indent=2) + "\n"


# -- loading ----------------------------------------------------------

_TOP_KEYS = {"name", "field", "dim", "basis", "brackets", "group",
             "action", "grading", "annotations"}


def _require(doc: dict, key: str, kind, pointer: str):
    if key not in doc:
        raise DocumentError(f"{pointer}/{key}", "missing field")
    value = doc[key]
    if kind is int and isinstance(value, bool) or \
            not isinstance(value, kind):
        raise DocumentError(f"{pointer}/{key}",
                            f"expected {kind.__name__}")
    return value


def _field_from_json(node, pointer: str) -> FieldSpec:
    kind = _require(node, "kind", str, pointer)
    if kind == "rational":
        return RATIONALS
    if kind != "cyclotomic":
        raise DocumentError(f"{pointer}/kind",
                            f"unknown field kind {kind!r}")
    order = _require(node, "order", int, pointer)
    if order < 1:
        raise DocumentError(f"{pointer}/order", "order must be >= 1")
    return RATIONALS if order == 1 else FieldSpec(order)


def _group_from_json(node, pointer: str) -> FiniteGroup:
    if not isinstance(node, dict):
        raise DocumentError(pointer, "expected an object")
    orders = node.get("abelian_orders")
    if orders is not None and not (
            isinstance(orders, list)
            and all(isinstance(m, int) and not isinstance(m, bool)
                    and m >= 1 for m in orders)):
        raise DocumentError(f"{pointer}/abelian_orders",
                            "expected a list of positive integers")
    if "table" in node:
        names = _require(node, "names", list, pointer)
        _check_names(names, len(names), pointer)
        table = _require(node, "table", list, pointer)
        try:
            return FiniteGroup(
                names, table,
                abelian_orders=tuple(orders) if orders is not None
                else None)
        except (ValueError, TypeError, IndexError) as e:
            raise DocumentError(f"{pointer}/table", str(e)) from None
    if orders is None:
        raise DocumentError(
            pointer, "need either abelian_orders or names with table")
    group = FiniteGroup.abelian(orders)
    if "names" in node:
        names = node["names"]
        _check_names(names, group.order, pointer)
        group = FiniteGroup(names, group.table,
                            abelian_orders=group.abelian_orders)
    return group


def _check_names(names, order: int, pointer: str):
    """A written document names grading labels by their elements, so
    a group needs `order` distinct name strings."""
    if not isinstance(names, list) or len(names) != order \
            or not all(isinstance(s, str) for s in names):
        raise DocumentError(f"{pointer}/names", f"expected {order} strings")
    if len(set(names)) != order:
        raise DocumentError(f"{pointer}/names",
                            "element names must be distinct")


def _algebra_from_json(doc: dict, field: FieldSpec) -> LieAlgebra:
    dim = _require(doc, "dim", int, "")
    if dim < 0:
        raise DocumentError("/dim", "dim must be non-negative")
    basis = _require(doc, "basis", list, "")
    if len(basis) != dim or not all(isinstance(s, str) for s in basis):
        raise DocumentError("/basis", f"expected {dim} name strings")
    if len(set(basis)) != dim:
        raise DocumentError("/basis", "basis names must be distinct")
    brackets = _require(doc, "brackets", list, "")
    table = {}
    for t, entry in enumerate(brackets):
        ptr = f"/brackets/{t}"
        if not isinstance(entry, dict) \
                or set(entry) != {"i", "j", "coeffs"}:
            raise DocumentError(ptr, "expected {i, j, coeffs}")
        i, j = entry["i"], entry["j"]
        if not (type(i) is int and type(j) is int and 0 <= i < j < dim):
            raise DocumentError(ptr, f"need 0 <= i < j < {dim}")
        if (i, j) in table:
            raise DocumentError(ptr, f"duplicate bracket ({i},{j})")
        coeffs = entry["coeffs"]
        if not isinstance(coeffs, dict):
            raise DocumentError(f"{ptr}/coeffs", "expected an object")
        comp = {}
        for key, val in coeffs.items():
            if not (key.isascii() and key.isdigit()):
                raise DocumentError(f"{ptr}/coeffs/{key}",
                                    "key must be a basis index")
            k = int(key)
            if not 0 <= k < dim:
                raise DocumentError(f"{ptr}/coeffs/{key}",
                                    f"index outside 0..{dim - 1}")
            if k in comp:
                raise DocumentError(f"{ptr}/coeffs/{key}",
                                    f"index {k} repeats")
            comp[k] = scalar_from_json(field, val,
                                       f"{ptr}/coeffs/{key}")
        table[(i, j)] = comp
    algebra = LieAlgebra(field, basis, table)
    report = algebra.validate()
    if report.failures:
        raise DocumentError("/brackets",
                            "; ".join(report.failures))
    return algebra


def document_to_bench(doc) -> Workbench:
    if not isinstance(doc, dict):
        raise DocumentError("", "expected a JSON object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise DocumentError(f"/{sorted(unknown)[0]}", "unknown field")
    name = _require(doc, "name", str, "")
    field = _field_from_json(_require(doc, "field", dict, ""), "/field")
    algebra = _algebra_from_json(doc, field)
    group = _group_from_json(_require(doc, "group", dict, ""), "/group")

    if "action" in doc and "grading" in doc:
        raise DocumentError("/action",
                            "give an action or a grading, not both")
    action = grading = None
    if "action" in doc:
        node = _require(doc, "action", dict, "")
        mats = _require(node, "matrices", list, "/action")
        if len(mats) != group.order:
            raise DocumentError("/action/matrices",
                                f"expected {group.order} matrices")
        matrices = [matrix_from_json(field, m, algebra.dim,
                                     f"/action/matrices/{g}")
                    for g, m in enumerate(mats)]
        action = GroupAction(group, matrices)
        problems = action.validate(algebra)
        if problems:
            raise DocumentError("/action", "; ".join(problems))
    if "grading" in doc:
        node = _require(doc, "grading", dict, "")
        raw = _require(node, "labels", list, "/grading")
        labels = []
        for i, lab in enumerate(raw):
            ptr = f"/grading/labels/{i}"
            if isinstance(lab, str):
                try:
                    labels.append(group.index_of(lab))
                except KeyError as e:
                    raise DocumentError(ptr, e.args[0]) from None
            elif isinstance(lab, int) and not isinstance(lab, bool) \
                    and 0 <= lab < group.order:
                labels.append(lab)
            else:
                raise DocumentError(ptr, "expected a group element "
                                    "name or index")
        try:
            grading = Grading(group, labels)
        except ValueError as e:
            raise DocumentError("/grading/labels", str(e)) from None
        problems = grading.validate(algebra)
        if problems:
            raise DocumentError("/grading", "; ".join(problems))

    annotation = None
    if "annotations" in doc:
        node = _require(doc, "annotations", dict, "")
        known = {"levi_basis", "nilradical_basis", "complement_basis"}
        unknown = set(node) - known
        if unknown:
            raise DocumentError(
                f"/annotations/{sorted(unknown)[0]}", "unknown field")
        spaces = {}
        for key in known:
            if key not in node:
                continue
            vecs = node[key]
            ptr = f"/annotations/{key}"
            if not isinstance(vecs, list) or not vecs:
                raise DocumentError(ptr, "expected a non-empty list "
                                    "of vectors")
            parsed = [vector_from_json(field, v, algebra.dim,
                                       f"{ptr}/{i}")
                      for i, v in enumerate(vecs)]
            spaces[key] = Subspace(field, algebra.dim, parsed)
        annotation = StructureAnnotation(
            levi=spaces.get("levi_basis"),
            nilradical=spaces.get("nilradical_basis"),
            complement=spaces.get("complement_basis"))

    return Workbench(name, algebra, group, action=action,
                     grading=grading, annotation=annotation)


def _parse_json(text: str):
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as e:
        raise DocumentError("", f"not valid JSON: {e}") from None


def _unique_keys(pairs) -> dict:
    """A JSON object, refusing a key that repeats: json.loads would
    keep the last value silently."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise DocumentError("", f"duplicate object key {key!r}")
        obj[key] = value
    return obj


def loads_document(text: str) -> Workbench:
    return document_to_bench(_parse_json(text))


def load_document(path) -> Workbench:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_document(fh.read())


# -- polynomial files -------------------------------------------------


def poly_to_json(poly: dict, field: FieldSpec, sets=None) -> dict:
    """Associative G-polynomial as a document.  Words are lists of
    [variable, group-index] pairs; sets records the variable blocks
    the polynomial alternates in, when the producer knows them."""
    doc = {
        "kind": "g_polynomial",
        "field": _field_to_json(field),
        "terms": [{"word": [[v, g] for v, g in word],
                   "coeff": scalar_to_json(poly[word])}
                  for word in sorted(poly)],
    }
    if sets is not None:
        doc["alternating_sets"] = [list(s) for s in sets]
    return doc


def dumps_poly(poly: dict, field: FieldSpec, sets=None) -> str:
    return json.dumps(poly_to_json(poly, field, sets), sort_keys=True,
                      indent=2) + "\n"


def poly_from_json(doc) -> tuple:
    """Returns (poly, field, sets-or-None)."""
    if not isinstance(doc, dict):
        raise DocumentError("", "expected a JSON object")
    unknown = set(doc) - {"kind", "field", "terms", "alternating_sets"}
    if unknown:
        raise DocumentError(f"/{sorted(unknown)[0]}", "unknown field")
    if doc.get("kind") != "g_polynomial":
        raise DocumentError("/kind", "expected \"g_polynomial\"")
    field = _field_from_json(_require(doc, "field", dict, ""), "/field")
    terms = _require(doc, "terms", list, "")
    poly, parsed = {}, {}
    for t, entry in enumerate(terms):
        ptr = f"/terms/{t}"
        if not isinstance(entry, dict) \
                or set(entry) != {"word", "coeff"}:
            raise DocumentError(ptr, "expected {word, coeff}")
        raw = entry["word"]
        if not isinstance(raw, list):
            raise DocumentError(f"{ptr}/word", "expected a list")
        word = []
        for i, pair in enumerate(raw):
            if not (isinstance(pair, list) and len(pair) == 2
                    and type(pair[0]) is int and type(pair[1]) is int
                    and pair[0] >= 1 and pair[1] >= 0):
                raise DocumentError(
                    f"{ptr}/word/{i}",
                    "expected a [variable >= 1, group index >= 0] pair")
            word.append((pair[0], pair[1]))
        key = tuple(word)
        if key in poly:
            raise DocumentError(f"{ptr}/word", "duplicate word")
        # each distinct coefficient string is parsed once
        raw = entry["coeff"]
        coeff = parsed.get(raw) if type(raw) is str else None
        if coeff is None:
            coeff = scalar_from_json(field, raw, f"{ptr}/coeff")
            if type(raw) is str:
                parsed[raw] = coeff
        if coeff:
            poly[key] = coeff
    sets = None
    if "alternating_sets" in doc:
        raw = doc["alternating_sets"]
        if not isinstance(raw, list) or not all(
                isinstance(s, list) and all(
                    type(v) is int and v >= 1 for v in s) for s in raw):
            raise DocumentError("/alternating_sets",
                                "expected lists of variables >= 1")
        sets = [tuple(s) for s in raw]
    return poly, field, sets


def loads_poly(text: str) -> tuple:
    return poly_from_json(_parse_json(text))


def load_poly(path) -> tuple:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_poly(fh.read())


# -- representation instance files ------------------------------------


def instance_to_json(inst) -> dict:
    """Module-with-operators document: the algebra document plus the
    matrices of the representation and the supplier's claims."""
    doc = {"algebra": bench_to_document(
        Workbench("module_base", inst.algebra, inst.action.group,
                  action=inst.action)),
        "module": {
            "dim": inst.module_dim,
            "algebra_maps": [matrix_to_json(m)
                             for m in inst.algebra_maps],
            "group_maps": [matrix_to_json(m) for m in inst.group_maps],
            "faithful": inst.faithful,
            "irreducible_with_group": inst.irreducible_with_group,
    }}
    return doc


def dumps_instance(inst) -> str:
    return json.dumps(instance_to_json(inst), sort_keys=True,
                      indent=2) + "\n"


def instance_from_json(doc):
    """Returns an unvalidated RepresentationInstance; callers run
    validate() so claim inconsistencies surface as their own error."""
    from codimlab.alternating import RepresentationInstance
    from codimlab.exponent import resolve_action

    if not isinstance(doc, dict):
        raise DocumentError("", "expected a JSON object")
    unknown = set(doc) - {"algebra", "module"}
    if unknown:
        raise DocumentError(f"/{sorted(unknown)[0]}", "unknown field")
    bench_doc = _require(doc, "algebra", dict, "")
    try:
        bench = document_to_bench(bench_doc)
    except DocumentError as e:
        raise DocumentError("/algebra" + e.pointer, e.message) from None
    action = resolve_action(bench)
    node = _require(doc, "module", dict, "")
    unknown = set(node) - {"dim", "algebra_maps", "group_maps",
                           "faithful", "irreducible_with_group"}
    if unknown:
        raise DocumentError(f"/module/{sorted(unknown)[0]}",
                            "unknown field")
    m = _require(node, "dim", int, "/module")
    if m < 1:
        raise DocumentError("/module/dim", "dim must be positive")
    field = bench.algebra.field
    raw = _require(node, "algebra_maps", list, "/module")
    if len(raw) != bench.algebra.dim:
        raise DocumentError("/module/algebra_maps",
                            f"expected {bench.algebra.dim} matrices")
    algebra_maps = [matrix_from_json(field, mat, m,
                                     f"/module/algebra_maps/{i}")
                    for i, mat in enumerate(raw)]
    raw = _require(node, "group_maps", list, "/module")
    if len(raw) != action.group.order:
        raise DocumentError("/module/group_maps",
                            f"expected {action.group.order} matrices")
    group_maps = [matrix_from_json(field, mat, m,
                                   f"/module/group_maps/{g}")
                  for g, mat in enumerate(raw)]
    for key in ("faithful", "irreducible_with_group"):
        if key in node and not isinstance(node[key], bool):
            raise DocumentError(f"/module/{key}", "expected a boolean")
    return RepresentationInstance(
        bench.algebra, action, algebra_maps, group_maps,
        faithful=bool(node.get("faithful", False)),
        irreducible_with_group=bool(
            node.get("irreducible_with_group", False)))


def load_instance(path):
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_json(_parse_json(fh.read()))


# -- duality ----------------------------------------------------------


def dualize_bench(bench: Workbench) -> Workbench:
    """Replace a grading by the action of the character group."""
    if bench.grading is None:
        raise DocumentError("/grading",
                            "document carries no grading to dualize")
    dual, action = grading_to_action(bench.algebra, bench.grading)
    return Workbench(bench.name + "_dual", bench.algebra, dual,
                     action=action, annotation=bench.annotation)
