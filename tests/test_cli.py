"""Exit codes, report formats, and determinism of the command line."""
import argparse
import hashlib
import json
from fractions import Fraction

import pytest

from codimlab.alternating import RepresentationInstance
from codimlab.cli import build_parser, main
from codimlab.config import DEFAULT_BUDGET
from codimlab.documents import (bench_to_document, dumps_document,
                                dumps_instance, load_document, load_poly)
from codimlab.fixtures import (FIXTURE_BUILDERS, Workbench, abelian,
                               build_fixture, diagonal_action, gl2,
                               heisenberg, permutation_action)
from codimlab.linalg import MatrixExact
from codimlab.partitions import partitions
from codimlab.scalar import RATIONALS
from codimlab.symmetry import FiniteGroup
from lattice_oracle import first_letter_closure, full_closure


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _mat(rows):
    f = RATIONALS
    return MatrixExact(f, [[f.from_rational(Fraction(x)) for x in r]
                           for r in rows])


@pytest.fixture(scope="module")
def gl2_instance_file(tmp_path_factory):
    """Defining representation of gl2 with the sign action realized
    by conjugation with diag(1, -1)."""
    alg = gl2()
    group = FiniteGroup.cyclic(2, gen_name="psi")
    one = RATIONALS.one()
    minus = RATIONALS.from_rational(-1)
    action = diagonal_action(alg, group, [[one] * 4,
                                          [one, minus, minus, one]])
    units = [_mat([[1, 0], [0, 0]]), _mat([[0, 1], [0, 0]]),
             _mat([[0, 0], [1, 0]]), _mat([[0, 0], [0, 1]])]
    rho = [_mat([[1, 0], [0, 1]]), _mat([[1, 0], [0, -1]])]
    inst = RepresentationInstance(alg, action, units, rho,
                                  faithful=True,
                                  irreducible_with_group=True)
    inst.validate()
    path = tmp_path_factory.mktemp("inst") / "gl2_defining.json"
    path.write_text(dumps_instance(inst), encoding="utf-8")
    return str(path)


# -- fixtures and validate --------------------------------------------


def test_fixtures_command_writes_loadable_corpus(tmp_path, capsys):
    code, out, _ = run(capsys, "fixtures", "--dir", str(tmp_path))
    assert code == 0
    written = sorted(p.name for p in tmp_path.glob("*.json"))
    assert written == sorted(f"{n}.json" for n in FIXTURE_BUILDERS)
    for p in tmp_path.glob("*.json"):
        load_document(p)
    assert out.count("wrote ") == len(FIXTURE_BUILDERS)


def test_validate_accepts_fixture_names(capsys):
    code, out, _ = run(capsys, "validate", "--algebra", "sl2_trivial")
    assert code == 0
    assert out.startswith("VALID: sl2_trivial (dim 3")


def test_validate_accepts_file_paths(tmp_path, capsys):
    path = tmp_path / "h.json"
    path.write_text(dumps_document(build_fixture("heisenberg")))
    code, out, _ = run(capsys, "validate", "--algebra", str(path),
                       "--format", "json")
    assert code == 0
    info = json.loads(out)
    assert info["valid"] and info["dim"] == 3
    assert info["symmetry"] == "none"


def test_validate_rejects_broken_documents(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"name": "x"}')
    code, out, err = run(capsys, "validate", "--algebra", str(path))
    assert code == 2
    assert "error:" in err


def test_group_that_misdeclares_its_invariant_factors(tmp_path, capsys):
    # Z6 in cyclic order declared as Z2 x Z3, acting on sl2 over
    # Q(zeta_6): characters would be read off the wrong elements
    doc = bench_to_document(build_fixture("sl2_trivial"))
    doc["field"] = {"kind": "cyclotomic", "order": 6}
    doc["group"] = {"names": ["e", "t", "t2", "t3", "t4", "t5"],
                    "table": [[(a + b) % 6 for b in range(6)]
                              for a in range(6)],
                    "abelian_orders": [2, 3]}
    doc["action"] = {"matrices": [[[(-1) ** k, 0, 0], [0, 1, 0],
                                   [0, 0, (-1) ** k]] for k in range(6)]}
    path = tmp_path / "z6.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "codim", "--algebra", str(path),
                       "--flavor", "g_action", "--n", "2")
    assert code == 2
    assert "product of cyclic groups of orders [2, 3]" in err


def test_unknown_algebra_reference(capsys):
    code, _, err = run(capsys, "validate", "--algebra", "no_such")
    assert code == 2
    assert "bundled fixture" in err


# -- codim ------------------------------------------------------------


def test_codim_csv_metabelian(capsys):
    code, out, _ = run(capsys, "codim", "--algebra",
                       "metabelian_m2_cyclic", "--flavor", "ordinary",
                       "--n", "2..6")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,flavor,c_n,root_num,root_den"
    got = [tuple(line.split(",")[:3]) for line in lines[1:]]
    assert got == [(str(n), "ordinary", str(n - 1))
                   for n in range(2, 7)]


def test_codim_json_and_text(capsys):
    code, out, _ = run(capsys, "codim", "--algebra", "sl2_trivial",
                       "--flavor", "ordinary", "--n", "3",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["points"] == [{"n": 3, "c_n": 2, "root": [1259, 1000]}]
    code, out, _ = run(capsys, "codim", "--algebra", "sl2_trivial",
                       "--flavor", "ordinary", "--n", "3",
                       "--format", "text")
    assert code == 0
    assert "n=3  c_n=2" in out


def test_codim_verify_on_decorated_rational_fixtures(capsys):
    for name, flavor in [("sl2xsl2_swap", "g_action"),
                         ("gl2_z2_graded", "graded")]:
        argv = ["codim", "--algebra", name, "--flavor", flavor,
                "--n", "1..4", "--format", "json"]
        code, plain, _ = run(capsys, *argv)
        assert code == 0
        code, verified, _ = run(capsys, *argv, "--verify")
        assert code == 0
        assert verified == plain


def test_codim_verify_on_cyclotomic_fixture(capsys, monkeypatch):
    # metabelian_m3_cyclic lives over Q(zeta_3); --verify cross-checks
    # its components and prints what the plain run prints
    import codimlab.codim as codim

    checked = []
    original = codim._cross_check_rank
    monkeypatch.setattr(codim, "_cross_check_rank",
                        lambda rows, rank: checked.append(rank)
                        or original(rows, rank))
    argv = ["codim", "--algebra", "metabelian_m3_cyclic", "--flavor",
            "g_action", "--n", "1..4", "--format", "json"]
    code, plain, _ = run(capsys, *argv)
    assert code == 0 and checked == []
    code, verified, _ = run(capsys, *argv, "--verify")
    assert code == 0 and checked
    assert verified == plain


def test_codim_budget_refusal(capsys):
    code, out, _ = run(capsys, "codim", "--algebra", "sl2_trivial",
                       "--flavor", "ordinary", "--n", "1..9",
                       "--budget", "100")
    assert code == 1
    refusal = json.loads(out)
    assert refusal["refused"] and refusal["reason"] == "budget"
    assert refusal["max_feasible_n"] == 2


def test_codim_missing_grading_is_invalid_input(capsys):
    code, _, err = run(capsys, "codim", "--algebra", "sl2_trivial",
                       "--flavor", "graded", "--n", "2")
    assert code == 2
    assert "no grading" in err


def test_bad_range_rejected(capsys):
    code, _, err = run(capsys, "codim", "--algebra", "sl2_trivial",
                       "--flavor", "ordinary", "--n", "6..2")
    assert code == 2
    assert "range" in err


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out, _ = run(capsys, "codim", "--algebra", "heisenberg",
                       "--flavor", "ordinary", "--n", "1..3",
                       "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("n,flavor,c_n")


# -- cochar, exponent -------------------------------------------------


def test_cochar_text(capsys):
    code, out, _ = run(capsys, "cochar", "--algebra", "sl2_trivial",
                       "--flavor", "ordinary", "--n", "4")
    assert code == 0
    assert "c_n=6 colength=2" in out
    assert "(3+1): 1" in out
    assert "(2+1+1): 1" in out


def test_cochar_json_range(capsys):
    code, out, _ = run(capsys, "cochar", "--algebra", "heisenberg",
                       "--flavor", "ordinary", "--n", "2..3",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert [d["n"] for d in data] == [2, 3]


def test_cochar_refused_range_does_no_component_work(capsys, monkeypatch):
    import codimlab.codim as codim

    # every weight space is built through IntRowSpace.add
    calls = []
    original = codim.IntRowSpace.add
    monkeypatch.setattr(codim.IntRowSpace, "add",
                        lambda self, row: calls.append(row)
                        or original(self, row))
    code, out, _ = run(capsys, "cochar", "--algebra", "sl2_trivial",
                       "--flavor", "ordinary", "--n", "1..6",
                       "--budget", "1000000")
    assert code == 1 and calls == []
    # the refusal the range gave when n = 1..5 ran first
    assert out == (
        '{"budget": 1000000, "cost": 1574640, "flavor": "ordinary", '
        '"max_feasible_n": 5, "message": "codimension at n=6 needs '
        '~1574640 scalar multiplications, budget is 1000000", "n": 6, '
        '"reason": "budget", "refused": true}\n')
    code, out, _ = run(capsys, "cochar", "--algebra", "sl2_trivial",
                       "--flavor", "ordinary", "--n", "1..5",
                       "--budget", "1000000")
    assert code == 0 and calls and "c_n=14 colength=3" in out


def test_codim_and_cochar_ranges_build_one_lattice(capsys, monkeypatch):
    """A range reads every n and every block off one lattice: each
    command calls the lattice once, and builds each weight space of
    the union of the targets once."""
    import codimlab.codim as codim

    calls, spaces = [], []
    lattice, init = codim._lattice_ranks, codim.IntRowSpace.__init__

    def spy(*args):
        calls.append(args)
        return lattice(*args)

    def build(self):
        spaces.append(self)
        init(self)

    monkeypatch.setattr(codim, "_lattice_ranks", spy)
    monkeypatch.setattr(codim.IntRowSpace, "__init__", build)
    # sl2 has three letters; the targets are the partitions of 1..6
    # with at most three parts, padded to three.  44 compositions lie
    # below them, and the first-letter terms reach 35 of them
    tops = {mu + (0,) * (3 - len(mu)) for n in range(1, 7)
            for mu in partitions(n) if len(mu) <= 3}
    assert len(full_closure(tops)) == 44
    expected = len(first_letter_closure(tops))
    for command in ("cochar", "codim"):
        calls.clear()
        spaces.clear()
        code, _, _ = run(capsys, command, "--algebra", "sl2_trivial",
                         "--flavor", "ordinary", "--n", "1..6")
        assert code == 0 and len(calls) == 1
        assert len(spaces) == expected == 35


def test_exponent_text_and_json(capsys):
    code, out, _ = run(capsys, "exponent", "--algebra", "sl2_trivial")
    assert code == 0
    assert out.startswith("d(sl2_trivial) = 3")
    code, out, _ = run(capsys, "exponent", "--algebra", "sl2_trivial",
                       "--format", "json")
    assert json.loads(out)["d"] == 3


# -- dualize ----------------------------------------------------------


def test_dualize_agrees_with_grading(tmp_path, capsys):
    dual_path = tmp_path / "dual.json"
    code, _, _ = run(capsys, "dualize", "--algebra", "gl2_z2_graded",
                     "--out", str(dual_path))
    assert code == 0
    dual = load_document(dual_path)
    assert dual.name == "gl2_z2_graded_dual"
    assert dual.action is not None and dual.grading is None

    _, graded, _ = run(capsys, "codim", "--algebra", "gl2_z2_graded",
                       "--flavor", "graded", "--n", "1..3")
    code, dualed, _ = run(capsys, "codim", "--algebra", str(dual_path),
                          "--flavor", "g_action", "--n", "1..3")
    assert code == 0
    strip = [line.split(",") for line in graded.strip().split("\n")[1:]]
    strip2 = [line.split(",") for line in dualed.strip().split("\n")[1:]]
    assert [r[2] for r in strip] == [r[2] for r in strip2]


def test_dualize_without_grading(capsys):
    code, _, err = run(capsys, "dualize", "--algebra", "sl2_trivial")
    assert code == 2
    assert "no grading" in err


# -- identity ---------------------------------------------------------


def test_identity_true(capsys):
    code, out, _ = run(capsys, "identity", "--algebra",
                       "gl2_z2_action", "--expr",
                       "[x1 + x1^psi, x2 + x2^psi]")
    assert code == 0
    assert out.splitlines()[0] == "IDENTITY: true"


def test_identity_false_with_witness(capsys):
    code, out, _ = run(capsys, "identity", "--algebra", "sl2_trivial",
                       "--expr", "[x1, x2]", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["is_identity"] is False
    assert data["flavor"] == "ordinary"
    assert data["witness"]["substitution"]


# (algebra, flavor, expression, text report, json report); in the
# last, x1 carries two decorations and runs over the options of one
IDENTITY_PINS = [
    ("sl2_trivial", "ordinary", "[x1, x2]",
     "IDENTITY: false\n  witness: x1 = e, x2 = h\n  value: (-2) e\n",
     '{"flavor": "ordinary", "is_identity": false, "witness": '
     '{"substitution": {"x1": "e", "x2": "h"}, "value": {"e": "-2"}}}\n'),
    ("gl2_z2_graded", "graded", "[x1^t, x2^t]",
     "IDENTITY: false\n  witness: x1 = E12, x2 = E21\n"
     "  value: (1) E11 + (-1) E22\n",
     '{"flavor": "graded", "is_identity": false, "witness": '
     '{"substitution": {"x1": "E12", "x2": "E21"}, '
     '"value": {"E11": "1", "E22": "-1"}}}\n'),
    ("metabelian_m3_cyclic", "g_action", "[x1^tau, x2^tau^2]",
     "IDENTITY: false\n  witness: x1 = a1, x2 = b3\n  value: (1) b2\n",
     '{"flavor": "g_action", "is_identity": false, "witness": '
     '{"substitution": {"x1": "a1", "x2": "b3"}, "value": {"b2": "1"}}}\n'),
    ("gl2_z2_action", "g_action", "[x1 + x1^psi, x2]",
     "IDENTITY: false\n  witness: x1 = E11, x2 = E12\n  value: (2) E12\n",
     '{"flavor": "g_action", "is_identity": false, "witness": '
     '{"substitution": {"x1": "E11", "x2": "E12"}, '
     '"value": {"E12": "2"}}}\n'),
]


@pytest.mark.parametrize("algebra,flavor,expr,text,json_line",
                         IDENTITY_PINS)
def test_identity_reports_are_pinned(capsys, algebra, flavor, expr, text,
                                     json_line):
    argv = ("identity", "--algebra", algebra, "--flavor", flavor,
            "--expr", expr)
    assert run(capsys, *argv) == (0, text, "")
    assert run(capsys, *argv, "--format", "json") == (0, json_line, "")


def test_identity_budget_refusal(capsys):
    # 9 substitutions x 1 bracket x 3^3 for [x1, x2] on sl2
    code, out, _ = run(capsys, "identity", "--algebra", "sl2_trivial",
                       "--expr", "[x1, x2]", "--budget", "1")
    assert code == 1
    assert out == (
        '{"budget": 1, "cost": 243, "flavor": "ordinary", "message": '
        '"identity check needs ~243 scalar multiplications, budget is '
        '1", "reason": "budget", "refused": true}\n')


def test_exponent_checks_invariance_before_the_split(tmp_path, capsys):
    # the annotated nilradical is not invariant, so no invariant
    # complement to it exists
    alg = abelian(2)
    group = FiniteGroup.cyclic(2, gen_name="s")
    doc = bench_to_document(Workbench(
        "swap", alg, group,
        action=permutation_action(alg, group, [(0, 1), (1, 0)])))
    doc["annotations"] = {"nilradical_basis": [[1, 0]]}
    path = tmp_path / "swap.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "exponent", "--algebra", str(path))
    assert (code, out) == (2, "")
    assert err == "error: nilradical is not invariant under s\n"


def test_exponent_of_the_zero_algebra(tmp_path, capsys):
    doc = bench_to_document(build_fixture("sl2_trivial"))
    doc.update(name="zero", dim=0, basis=[], brackets=[])
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "exponent", "--algebra", str(path),
                       "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["d"] == 0
    assert report["closed_form_checks"]
    assert all(c["agrees"] and c["expected"] == 0
               for c in report["closed_form_checks"])


def test_exponent_budget_refusal(capsys):
    # one section, tuples of length r <= 1, q in 0..6: 7 products at 6^3
    code, out, _ = run(capsys, "exponent", "--algebra", "sl2xsl2_swap",
                       "--budget", "1")
    assert code == 1
    assert out == (
        '{"budget": 1, "cost": 1512, "message": "exponent search needs '
        '~1512 scalar multiplications, budget is 1", "q_max": 6, '
        '"r_max": 1, "reason": "budget", "refused": true, '
        '"sections": 1}\n')


# sha256 of the whole `exponent --format json` stdout of each bundled
# fixture: d, witness, sections, table and closed_form_checks
EXPONENT_JSON_SHA256 = {
    "sl2_trivial":
        "2b21dc4288c47c8f82ced645bdb05ca7f694245ee6811919c048e04fccda66b7",
    "gl2_z2_graded":
        "5e0d473c829ada2c569f443e37b11f1ea671fcb8660e351331a681f3ed6598a8",
    "gl2_z2_action":
        "d630cfeb43e1b8b7476fca1023361b695a6fb211473f32e63a7d032baed9e5ba",
    "sl2xsl2_swap":
        "926827d2586fb5bb58299edb102e9f52049dbde3e49c7a745b0710e475263fe1",
    "heisenberg":
        "98aace3c05cbc973df516ca2f08d6ef3b08265ef6ea4e54b4bbe5af11dba1e28",
    "metabelian_m1_cyclic":
        "fd564f85f14ed8096ec876eac2e2b569be4a25d94936b35ddf81e9846d0b7f2e",
    "metabelian_m2_cyclic":
        "4d0c7d6b16b9edbb0a0d2bed934d908b759189bf71872afe97c40198e4f58da0",
    "metabelian_m3_cyclic":
        "c5e67b7596abece39c9176dbfa2e1e35227e01fca6bd0df87bbfe5773124bff0",
    "metabelian_m2_trivial":
        "cae9c1a3605c483f7ecde62d8af78859599722096598070a7be6f2ddce30f5ab",
    "metabelian_graded_m2":
        "3c1a8dffdda07e11584593d707035eef88b6bbc8c2cf47d75475ac509eb3e263",
}


def test_exponent_json_stdout_pinned(capsys):
    """Every bundled fixture is admitted at the default budget, and its
    report is byte-identical to the pinned one."""
    assert sorted(EXPONENT_JSON_SHA256) == sorted(FIXTURE_BUILDERS)
    for name, digest in EXPONENT_JSON_SHA256.items():
        code, out, _ = run(capsys, "exponent", "--algebra", name,
                           "--format", "json", "--budget",
                           str(DEFAULT_BUDGET))
        assert code == 0, name
        assert hashlib.sha256(out.encode()).hexdigest() == digest, name


def test_identity_parse_error(capsys):
    code, _, err = run(capsys, "identity", "--algebra", "sl2_trivial",
                       "--expr", "[x1,")
    assert code == 2
    assert "error:" in err


def test_identity_zero_denominator(capsys):
    code, _, err = run(capsys, "identity", "--algebra", "sl2_trivial",
                       "--expr", "2/0*[x1,x2]")
    assert code == 2
    assert "zero denominator" in err


def test_identity_graded_variable_in_two_degrees(capsys):
    code, out, err = run(capsys, "identity", "--algebra", "gl2_z2_graded",
                         "--flavor", "graded", "--expr", "[x1 + x1^t, x2]",
                         "--format", "json")
    assert code == 2 and out == ""
    assert err == ("error: graded variable x1 appears in degrees e, t;"
                   " a homogeneous variable has one degree\n")


@pytest.mark.parametrize("expr,message", [
    ("[x1,x1]", "x1 repeats in one monomial"),
    ("[x2,[x1,x2]]", "x2 repeats in one monomial"),
    ("[x1,x2]+x3", "monomials use different variable sets")])
def test_identity_rejects_a_polynomial_that_is_not_multilinear(
        capsys, expr, message):
    code, out, err = run(capsys, "identity", "--algebra", "sl2_trivial",
                         "--flavor", "ordinary", "--expr", expr)
    assert code == 2 and out == ""
    assert err == f"error: polynomial is not multilinear: {message}\n"


def test_identity_unknown_decoration(capsys):
    code, _, err = run(capsys, "identity", "--algebra", "sl2_trivial",
                       "--expr", "[x1^psi, x2]")
    assert code == 2


# -- regev ------------------------------------------------------------


def test_regev_summary_and_poly_file(tmp_path, capsys):
    target = tmp_path / "regev2.json"
    code, out, _ = run(capsys, "regev", "--q", "2", "--out",
                       str(target))
    assert code == 0
    assert "576 terms" in out
    poly, field, sets = load_poly(target)
    assert len(poly) == 576
    assert field == RATIONALS
    assert sets == [(1, 2, 3, 4), (5, 6, 7, 8)]


def test_regev_centrality_line(capsys):
    code, out, _ = run(capsys, "regev", "--q", "1", "--centrality")
    assert code == 0
    assert out == ("regev q=1: 1 terms, x vars [1], y vars [2]\n"
                   "q=1: 1 substitutions, central, 1 nonzero values\n")
    code, out, _ = run(capsys, "regev", "--q", "2", "--centrality")
    assert code == 0
    assert out == ("regev q=2: 576 terms, x vars [1, 2, 3, 4], "
                   "y vars [5, 6, 7, 8]\n"
                   "q=2: 65536 substitutions, central, "
                   "576 nonzero values\n")


def test_regev_centrality_expands_once(capsys, monkeypatch):
    import codimlab.alternating
    import codimlab.cli
    expansions = []

    def counting(q):
        expansions.append(q)
        return regev_polynomial(q)

    regev_polynomial = codimlab.alternating.regev_polynomial
    monkeypatch.setattr(codimlab.alternating, "regev_polynomial", counting)
    monkeypatch.setattr(codimlab.cli, "regev_polynomial", counting)
    code, _, _ = run(capsys, "regev", "--q", "2", "--centrality")
    assert code == 0 and expansions == [2]


def test_regev_scale_refusal(capsys):
    code, out, _ = run(capsys, "regev", "--q", "3")
    assert code == 1
    refusal = json.loads(out)
    assert refusal["reason"] == "scale" and refusal["q"] == 3


def test_regev_bad_q(capsys):
    code, _, err = run(capsys, "regev", "--q", "0")
    assert code == 2


# -- lemma-s and verify-alt -------------------------------------------


def test_lemma_s_text_and_poly_out(tmp_path, gl2_instance_file,
                                   capsys):
    poly_path = tmp_path / "sep.json"
    code, out, _ = run(capsys, "lemma-s", "--instance",
                       gl2_instance_file, "--poly-out", str(poly_path))
    assert code == 0
    assert "centre dim t=1, eigencomponents q=1" in out
    assert "invertible" in out
    poly, field, sets = load_poly(poly_path)
    assert list(poly) == [((1, 0),)]
    assert sets == [(1,)]


def test_lemma_s_json(gl2_instance_file, capsys):
    code, out, _ = run(capsys, "lemma-s", "--instance",
                       gl2_instance_file, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["t"] == 1 and data["q"] == 1
    assert data["polynomial"] == "x1"
    assert data["determinant"] == "1"


def test_lemma_s_rejects_false_claims(tmp_path, capsys):
    """The instance file says not-faithful for a faithful module."""
    alg = gl2()
    group = FiniteGroup.trivial()
    from codimlab.symmetry import trivial_action
    units = [_mat([[1, 0], [0, 0]]), _mat([[0, 1], [0, 0]]),
             _mat([[0, 0], [1, 0]]), _mat([[0, 0], [0, 1]])]
    inst = RepresentationInstance(alg, trivial_action(alg), units,
                                  [_mat([[1, 0], [0, 1]])],
                                  faithful=False)
    path = tmp_path / "lying.json"
    path.write_text(dumps_instance(inst), encoding="utf-8")
    code, _, err = run(capsys, "lemma-s", "--instance", str(path))
    assert code == 2
    assert "claims" in err


def test_lemma_s_dimension_cap_refusal(tmp_path, capsys):
    """Heisenberg acting on its 3-dim faithful module: centre is
    nontrivial and the module is too wide for the pipeline."""
    alg = heisenberg()
    from codimlab.symmetry import trivial_action
    x = _mat([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    y = _mat([[0, 0, 0], [0, 0, 1], [0, 0, 0]])
    z = _mat([[0, 0, 1], [0, 0, 0], [0, 0, 0]])
    ident = _mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    inst = RepresentationInstance(alg, trivial_action(alg), [x, y, z],
                                  [ident], faithful=True)
    inst.validate()
    path = tmp_path / "heis3.json"
    path.write_text(dumps_instance(inst), encoding="utf-8")
    code, out, _ = run(capsys, "lemma-s", "--instance", str(path))
    assert code == 1
    refusal = json.loads(out)
    assert refusal["reason"] == "scale"
    assert refusal["module_dim"] == 3


def test_verify_alt_regev_on_gl2(tmp_path, gl2_instance_file, capsys):
    poly_path = tmp_path / "regev2.json"
    run(capsys, "regev", "--q", "2", "--out", str(poly_path))
    code, out, _ = run(capsys, "verify-alt", "--poly", str(poly_path),
                       "--instance", gl2_instance_file,
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["alternating"] is True
    assert data["per_set"] == [True, True]
    assert data["is_identity"] is False
    assert data["witness"] == [0, 1, 2, 3, 0, 1, 2, 3]
    assert data["mode"] == "exhaustive"
    assert out == ('{"alternating": true, "is_identity": false, '
                   '"mode": "exhaustive", "per_set": [true, true], '
                   '"searched": 6940, "witness": [0, 1, 2, 3, 0, 1, 2, 3]}'
                   '\n')


def test_verify_alt_sets_override(tmp_path, gl2_instance_file,
                                  capsys):
    poly_path = tmp_path / "regev1.json"
    run(capsys, "regev", "--q", "1", "--out", str(poly_path))
    code, out, _ = run(capsys, "verify-alt", "--poly", str(poly_path),
                       "--instance", gl2_instance_file,
                       "--sets", "1,2")
    assert code == 0
    assert "non-identity" in out


def test_verify_alt_missing_files(gl2_instance_file, capsys):
    code, _, err = run(capsys, "verify-alt", "--poly", "/no/such",
                       "--instance", gl2_instance_file)
    assert code == 2
    code, _, err = run(capsys, "verify-alt",
                       "--poly", gl2_instance_file,
                       "--instance", gl2_instance_file)
    assert code == 2  # an instance document is not a polynomial


def test_verify_alt_rejects_group_index_past_the_order(
        tmp_path, gl2_instance_file, capsys):
    poly_path = tmp_path / "bad.json"
    poly_path.write_text(json.dumps({
        "kind": "g_polynomial", "field": {"kind": "rational"},
        "terms": [{"word": [[1, 7], [2, 0]], "coeff": "1"}]}),
        encoding="utf-8")
    code, out, err = run(capsys, "verify-alt", "--poly", str(poly_path),
                         "--instance", gl2_instance_file)
    assert (code, out, err) == (
        2, "", "error: the polynomial names group index 7, but the "
        "instance's group has order 2\n")


@pytest.mark.parametrize("limit,samples,message", [
    ("0", "-5", "samples must be positive"),
    ("-3", "0", "exhaustive limit must not be negative"),
    ("-1", "2000", "exhaustive limit must not be negative")])
def test_verify_alt_rejects_bad_search_sizes(tmp_path, gl2_instance_file,
                                             capsys, limit, samples,
                                             message):
    poly_path = tmp_path / "regev2.json"
    run(capsys, "regev", "--q", "2", "--out", str(poly_path))
    code, out, err = run(capsys, "verify-alt", "--poly", str(poly_path),
                         "--instance", gl2_instance_file,
                         "--limit", limit, "--samples", samples,
                         "--format", "json")
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_nonpositive_budget_is_invalid_input(capsys):
    for budget in ("0", "-4"):
        code, out, err = run(capsys, "codim", "--algebra", "sl2_trivial",
                             "--flavor", "ordinary", "--n", "2",
                             "--budget", budget)
        assert (code, out, err) == (2, "", "error: budget must be positive\n")


def test_budget_flag_reads_the_environment_syntax(capsys, monkeypatch):
    """--budget takes the whole numbers CODIMLAB_BUDGET takes, 1e9
    included, to the same budget, and refuses the same values with a
    message that names the flag."""
    argv = ["codim", "--algebra", "sl2_trivial", "--flavor", "ordinary",
            "--n", "9"]
    monkeypatch.delenv("CODIMLAB_BUDGET", raising=False)
    by_flag = run(capsys, *argv, "--budget", "1e9")
    monkeypatch.setenv("CODIMLAB_BUDGET", "1e9")
    assert run(capsys, *argv) == by_flag
    code, out, err = by_flag
    assert code == 1 and json.loads(out)["budget"] == 10 ** 9
    for raw in ("2.5", "10/3"):
        assert run(capsys, *argv, "--budget", raw) == (
            2, "", f"error: --budget must be a whole number, got {raw!r}\n")
    assert run(capsys, *argv, "--budget", "inf") == (
        2, "", "error: --budget must be numeric, got 'inf'\n")


# -- determinism ------------------------------------------------------


def test_reports_are_byte_identical(tmp_path, capsys):
    outs = []
    for _ in range(2):
        _, out, _ = run(capsys, "codim", "--algebra",
                        "gl2_z2_action", "--flavor", "g_action",
                        "--n", "1..3", "--format", "json")
        outs.append(out)
    assert outs[0] == outs[1]
    texts = []
    for k in range(2):
        d = tmp_path / f"run{k}"
        run(capsys, "fixtures", "--dir", str(d))
        texts.append({p.name: p.read_text() for p in d.glob("*.json")})
    assert texts[0] == texts[1]


# option strings per subcommand: a new or removed option is a change of
# the command-line contract and shows up here
CLI_OPTIONS = {
    "validate": ["--algebra", "--format", "--out"],
    "codim": ["--algebra", "--budget", "--flavor", "--format", "--n",
              "--out", "--verify"],
    "cochar": ["--algebra", "--budget", "--flavor", "--format", "--n",
               "--out"],
    "exponent": ["--algebra", "--budget", "--format", "--out"],
    "dualize": ["--algebra", "--out"],
    "identity": ["--algebra", "--budget", "--expr", "--flavor",
                 "--format", "--out"],
    "regev": ["--centrality", "--out", "--q"],
    "lemma-s": ["--format", "--instance", "--out", "--poly-out"],
    "verify-alt": ["--format", "--instance", "--limit", "--out", "--poly",
                   "--samples", "--seed", "--sets"],
    "fixtures": ["--dir"],
}


def test_cli_surface_is_pinned():
    [sub] = [action for action in build_parser()._actions
             if isinstance(action, argparse._SubParsersAction)]
    surface = {name: sorted(option for action in parser._actions
                            for option in action.option_strings
                            if option not in ("-h", "--help"))
               for name, parser in sub.choices.items()}
    assert surface == CLI_OPTIONS
