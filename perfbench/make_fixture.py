"""Rebuild the committed inputs of the `solve_from_table` workload.

    python3 perfbench/make_fixture.py [--table]

Run from the repository root.  With --table it first fills the effective
table from fixtures/solve_table.cfg with `hjhom effective` and stores it as
fixtures/solve_table.csv; that takes a few minutes and is done once, so that
later changes to the cell solver cannot change this workload's input.  Then,
for every horizon factor a seed can pick, it runs the workload's solve,
records the (p, l) range its table queries reach, checks that range against
the table box with MARGIN to spare, and stores the final state at every
REF_STRIDE-th node as fixtures/solve_reference.csv.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile

import numpy as np

import workloads as wl

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MARGIN = 0.25    # room kept on each side, as a share of the largest |value| reached


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--table", action="store_true",
                        help="also refill fixtures/solve_table.csv (slow)")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import hjhom.cli
    import hjhom.effective

    scratch = os.path.join(ROOT, ".bench_work")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(prefix="fixture-", dir=scratch)
    try:
        if args.table:
            code = hjhom.cli.main(["effective", "--config",
                                   os.path.join(wl.FIXTURES, "solve_table.cfg"),
                                   "--out", work])
            if code != 0:
                return code
            shutil.copy(os.path.join(work, "solve_table_effective.csv"), wl.TABLE_CSV)

        table = hjhom.effective.load_table(wl.TABLE_CSV)
        reached = {"p": [np.inf, -np.inf], "l": [np.inf, -np.inf]}
        query_many = hjhom.effective.query_many

        def recording(tab, x, p, l):
            for name, q in (("p", p), ("l", l)):
                reached[name] = [min(reached[name][0], float(np.min(q))),
                                 max(reached[name][1], float(np.max(q)))]
            return query_many(tab, x, p, l)

        hjhom.effective.query_many = recording
        rows = []
        for factor in wl.T_FACTORS:
            spec = wl.spec_solve_from_table(0)
            spec.config["grid.T"] = repr(0.5 * factor)
            cfg = os.path.join(work, "solve.cfg")
            with open(cfg, "w") as fh:
                fh.write(spec.text())
            if hjhom.cli.main(["solve", "--config", cfg, "--out", work]) != 0:
                return 1
            state = wl.final_state(work)
            xs = np.arange(state.size) / state.size
            rows += [(factor, x, u) for x, u in
                     zip(xs[::wl.REF_STRIDE], state[::wl.REF_STRIDE])]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ok = True
    for name, axis in (("p", table.ps), ("l", table.ls)):
        lo, hi = reached[name]
        room = MARGIN * max(abs(lo), abs(hi))
        fits = axis[0] <= lo - room and hi + room <= axis[-1]
        ok = ok and fits
        print(f"{name} reached [{lo:.4f}, {hi:.4f}], table box [{axis[0]:g}, "
              f"{axis[-1]:g}], {MARGIN:.0%} margin {'kept' if fits else 'NOT kept'}")
    with open(wl.REFERENCE_CSV, "w") as fh:
        fh.write(f"# final states of solve_from_table at every {wl.REF_STRIDE}th node, "
                 "written by perfbench/make_fixture.py\n")
        fh.write("t_factor,x,u\n")
        for factor, x, u in rows:
            fh.write(f"{factor!r},{x:.17e},{u:.17e}\n")
    print(f"reference -> {wl.REFERENCE_CSV}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
