"""Job mixes, seeded inputs and the answer oracle of the benchmark.

This module imports nothing from codimlab except inside
`write_inputs`, so the oracle and the relabelling can be read and
tested on plain JSON.

A job is one `codimlab` command line.  Its arguments name inputs as
`{doc:NAME}` (an algebra document built from the bundled fixture
NAME), `{inst:NAME}` (a representation instance) or `{poly:NAME}` (a
polynomial document); the worker substitutes file paths.  Every job
that has a budget is given `--budget 10**12` so no cost estimate can
turn it into a refusal.
"""
from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

BUDGET = str(10 ** 12)

# Every bundled fixture, in the order the exponent jobs run them.
FIXTURES = ("sl2_trivial", "gl2_z2_graded", "gl2_z2_action",
            "sl2xsl2_swap", "heisenberg", "metabelian_m1_cyclic",
            "metabelian_m2_cyclic", "metabelian_m3_cyclic",
            "metabelian_m2_trivial", "metabelian_graded_m2")

IDENTITY_EXPR = "[x1 + x1^psi, x2 + x2^psi]"

# Commands whose wall time is summed into each per-command metric.
COMMAND_GROUPS = {"codim": "codim", "cochar": "cochar",
                  "exponent": "exponent", "regev": "certify",
                  "verify-alt": "certify", "lemma-s": "certify",
                  "identity": "certify"}


def _codim(fixture, flavor, n):
    return ["codim", "--algebra", "{doc:%s}" % fixture, "--flavor",
            flavor, "--n", n, "--budget", BUDGET]


def _cochar(fixture, flavor, n):
    return ["cochar", "--algebra", "{doc:%s}" % fixture, "--flavor",
            flavor, "--n", n, "--budget", BUDGET, "--format", "json"]


def _exponent(fixture):
    return ["exponent", "--algebra", "{doc:%s}" % fixture, "--budget",
            BUDGET, "--format", "json"]


def _certify(q, poly):
    return [
        ["regev", "--q", str(q), "--centrality"],
        ["verify-alt", "--poly", "{poly:%s}" % poly, "--instance",
         "{inst:gl2_defining}", "--format", "json"],
        ["lemma-s", "--instance", "{inst:gl2_defining}", "--format",
         "json"],
        ["lemma-s", "--instance", "{inst:swap_centre}", "--format",
         "json"],
        ["identity", "--algebra", "{doc:gl2_z2_action}", "--expr",
         IDENTITY_EXPR, "--budget", BUDGET, "--format", "json"],
    ]


# Full-size mixes.  Each pass of a run executes one list in order.
FULL = {
    # codimension tables in all three flavours, rational fields only:
    # row generation and integer elimination, no traces.
    "codim-ladder": [
        _codim("sl2_trivial", "ordinary", "1..6"),
        _codim("sl2xsl2_swap", "g_action", "5"),
        _codim("gl2_z2_graded", "graded", "6"),
        _codim("metabelian_m2_cyclic", "g_action", "6"),
        _codim("gl2_z2_action", "g_action", "4"),
    ],
    # cocharacters: trace solves, and the cyclotomic row space through
    # Q(zeta_3) (metabelian_m3_cyclic) next to the rational one.
    "cochar-traces": [
        _cochar("metabelian_m3_cyclic", "g_action", "5"),
        _cochar("sl2xsl2_swap", "g_action", "5"),
        _cochar("metabelian_graded_m2", "graded", "6"),
        _cochar("sl2_trivial", "ordinary", "6"),
    ],
    # exponent and alternating certificates, no codimension engine.
    "certify": ([_exponent(f) for f in FIXTURES]
                + _certify(2, "regev_q2")),
}

# The same mixes at degree at most 3 (and q = 1), for the self-test.
TINY = {
    "codim-ladder": [
        _codim("sl2_trivial", "ordinary", "1..3"),
        _codim("sl2xsl2_swap", "g_action", "3"),
        _codim("gl2_z2_graded", "graded", "3"),
        _codim("metabelian_m2_cyclic", "g_action", "3"),
        _codim("gl2_z2_action", "g_action", "3"),
    ],
    "cochar-traces": [
        _cochar("metabelian_m3_cyclic", "g_action", "3"),
        _cochar("sl2xsl2_swap", "g_action", "3"),
        _cochar("metabelian_graded_m2", "graded", "3"),
        _cochar("sl2_trivial", "ordinary", "3"),
    ],
    "certify": ([_exponent(f) for f in ("sl2_trivial", "gl2_z2_action",
                                        "metabelian_m2_cyclic")]
                + _certify(1, "regev_q1")),
}

WORKLOADS = tuple(FULL)


def jobs(workload: str, tiny: bool = False) -> list:
    return [list(argv) for argv in (TINY if tiny else FULL)[workload]]


def job_id(argv) -> str:
    """Stable name of a job: its command line without the budget."""
    out, skip = [], False
    for arg in argv:
        if skip:
            skip = False
        elif arg == "--budget":
            skip = True
        else:
            out.append(arg)
    return " ".join(out)


def inputs_of(job_list) -> dict:
    """{"doc": [...], "inst": [...], "poly": [...]} named by the jobs."""
    found = {"doc": set(), "inst": set(), "poly": set()}
    for argv in job_list:
        for arg in argv:
            if arg.startswith("{") and arg.endswith("}"):
                kind, _, name = arg[1:-1].partition(":")
                found[kind].add(name)
    return {k: sorted(v) for k, v in found.items()}


# -- seeded relabelling ------------------------------------------------


def basis_permutation(seed: int, name: str, dim: int) -> list:
    """perm[i] is the new index of old basis vector i.  Seed 0 keeps
    every document unchanged."""
    perm = list(range(dim))
    if seed:
        random.Random(f"{seed}/{name}").shuffle(perm)
    return perm


def _negate(node):
    if isinstance(node, list):
        return [_negate(c) for c in node]
    if isinstance(node, int):
        return -node
    return str(-Fraction(node))


def relabel_document(doc: dict, perm: list) -> dict:
    """The same algebra in the basis order given by perm.

    Brackets, action matrices, grading labels and annotation vectors
    move with the basis, so every isomorphism invariant (codimensions,
    cocharacters, d, identity verdicts) is unchanged.
    """
    dim = doc["dim"]

    def move(vec):
        new = [None] * dim
        for i, x in enumerate(vec):
            new[perm[i]] = x
        return new

    out = dict(doc, basis=move(doc["basis"]))
    brackets = []
    for entry in doc["brackets"]:
        i, j = perm[entry["i"]], perm[entry["j"]]
        coeffs = {str(perm[int(k)]): v for k, v in entry["coeffs"].items()}
        if i > j:
            i, j = j, i
            coeffs = {k: _negate(v) for k, v in coeffs.items()}
        brackets.append({"i": i, "j": j, "coeffs": coeffs})
    out["brackets"] = sorted(brackets, key=lambda e: (e["i"], e["j"]))
    if "action" in doc:
        out["action"] = {"matrices": [
            move([move(row) for row in mat])
            for mat in doc["action"]["matrices"]]}
    if "grading" in doc:
        out["grading"] = {"labels": move(doc["grading"]["labels"])}
    if "annotations" in doc:
        out["annotations"] = {key: [move(v) for v in vecs]
                              for key, vecs in doc["annotations"].items()}
    return out


def write_inputs(job_list, seed: int, out_dir: Path) -> dict:
    """Write every input document the jobs name; returns the
    placeholder -> path map.  Algebra documents are relabelled by the
    seed.  Instances and polynomials stay fixed under every seed,
    because verify-alt's witness and search length depend on their
    basis order."""
    from codimlab.alternating import regev_polynomial
    from codimlab.documents import (bench_to_document, dumps_instance,
                                    dumps_poly)
    from codimlab.fixtures import build_fixture
    from codimlab.scalar import RATIONALS

    import instances

    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    wanted = inputs_of(job_list)
    for name in wanted["doc"]:
        doc = bench_to_document(build_fixture(name))
        doc = relabel_document(
            doc, basis_permutation(seed, name, doc["dim"]))
        paths["{doc:%s}" % name] = _write(
            out_dir / f"{name}.json",
            json.dumps(doc, sort_keys=True, indent=2) + "\n")
    for name in wanted["inst"]:
        inst = getattr(instances, name)()
        paths["{inst:%s}" % name] = _write(out_dir / f"{name}.json",
                                           dumps_instance(inst))
    for name in wanted["poly"]:
        q = int(name.removeprefix("regev_q"))
        reg = regev_polynomial(q)
        paths["{poly:%s}" % name] = _write(
            out_dir / f"{name}.json",
            dumps_poly(reg.poly, RATIONALS,
                       sets=[reg.x_vars, reg.y_vars]))
    return paths


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


# -- answer oracle -------------------------------------------------------


def parse_answer(argv, stdout: str):
    """The isomorphism-invariant answer a job printed, as plain JSON.

    Raises ValueError when the output does not have the expected
    shape."""
    cmd = argv[0]
    if cmd == "codim":
        lines = stdout.splitlines()
        if not lines or lines[0] != "n,flavor,c_n,root_num,root_den":
            raise ValueError("codim output is not the CSV table")
        return {line.split(",")[0]: int(line.split(",")[2])
                for line in lines[1:]}
    if cmd == "regev":
        return stdout.splitlines()[-1]
    payload = json.loads(stdout)
    if cmd == "cochar":
        return {",".join(map(str, e["partition"])): e["multiplicity"]
                for e in payload["entries"]}
    if cmd == "exponent":
        return {"d": payload["d"],
                "closed_forms_agree": all(
                    c["agrees"] for c in payload["closed_form_checks"])}
    if cmd == "verify-alt":
        return {k: payload[k] for k in ("alternating", "is_identity",
                                        "witness", "searched")}
    if cmd == "lemma-s":
        return {"t": payload["t"], "q": payload["q"]}
    if cmd == "identity":
        return {"is_identity": payload["is_identity"]}
    raise ValueError(f"no oracle for command {cmd!r}")


ANSWERS_PATH = Path(__file__).with_name("answers.json")


def load_answers() -> dict:
    return json.loads(ANSWERS_PATH.read_text(encoding="utf-8"))
