"""Codimension tables for every bundled fixture and applicable flavor.

Prints c_n with display roots up to --n-max, refusing politely where
the budget runs out.  With --csv-dir each table is also written as a
CSV file named {fixture}_{flavor}.csv.
"""
import argparse
from pathlib import Path

from codimlab.codim import empirical_exponent
from codimlab.config import Refusal, RunConfig, parse_budget
from codimlab.fixtures import FIXTURE_BUILDERS, build_fixture


def flavors_of(bench):
    out = ["ordinary"]
    if bench.grading is not None:
        out.append("graded")
    if bench.action is not None:
        out.append("g_action")
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-max", type=int, default=5)
    ap.add_argument("--budget", help="a whole number such as 1e9")
    ap.add_argument("--csv-dir", default=None)
    args = ap.parse_args()

    try:
        config = RunConfig() if args.budget is None else RunConfig(
            budget=parse_budget(args.budget, "--budget"))
    except ValueError as err:
        ap.error(str(err))
    csv_dir = Path(args.csv_dir) if args.csv_dir else None
    if csv_dir:
        csv_dir.mkdir(parents=True, exist_ok=True)

    for name in sorted(FIXTURE_BUILDERS):
        bench = build_fixture(name)
        for flavor in flavors_of(bench):
            print(f"== {name} [{flavor}] ==")
            try:
                report = empirical_exponent(bench, flavor,
                                            args.n_max, config)
            except Refusal as refusal:
                print(f"  refused: {refusal.message}")
                feasible = refusal.details.get("max_feasible_n", 0)
                if feasible < 1:
                    continue
                report = empirical_exponent(bench, flavor, feasible,
                                            config)
            for n, c, root in report.points:
                print(f"  n={n:2d}  c_n={c:6d}  "
                      f"c_n^(1/n) ~ {root.numerator}/{root.denominator}")
            if csv_dir:
                path = csv_dir / f"{name}_{flavor}.csv"
                path.write_text(report.to_csv(), encoding="utf-8")
                print(f"  -> {path}")


if __name__ == "__main__":
    main()
