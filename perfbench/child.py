"""Run one hjhom CLI command in this process, as the benchmark's child.

    python3 perfbench/child.py REPORT.json [--trace] COMMAND --config CFG --out DIR

REPORT.json receives the CLI's exit code and the peak resident set of this
process, read as VmHWM: unlike ru_maxrss, which also counts the image of the
parent a child was forked from, it covers only this program.  The exit code
is the CLI's.

With --trace, every public hjhom function in SITES is replaced, at each
module that bound it, by a wrapper that times the call and charges that time
to the caller's span, so each layer gets calls, inclusive seconds and self
seconds (inclusive minus the time of traced callees).  Times are process CPU
seconds, which equal wall seconds for this single-threaded numpy code and
stand still while the benchmark has the process stopped.  Spans are
aggregated per layer rather than kept one by one, because one cell table
makes close to a million calls.  Exact work counts are read from the values
the layers return.  Layers, counts and missing sites go to REPORT.json too.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

# layer name -> (module, attribute) sites where callers look the function up
SITES = {
    "config.parse_config": [("hjhom.cli", "parse_config")],
    "cli.audit_gate": [("hjhom.cli", "audit_ellipticity"),
                       ("hjhom.cli", "audit_superlinearity"),
                       ("hjhom.cli", "audit_regularity")],
    "kernels.periodized_weights": [("hjhom.cli", "periodized_weights"),
                                   ("hjhom.cell", "periodized_weights"),
                                   ("hjhom.homogenize", "periodized_weights")],
    "kernels.drift_vector": [("hjhom.cli", "drift_vector")],
    "cell.vanishing_discount_sweep": [("hjhom.cli", "vanishing_discount_sweep")],
    "grid.diff": [("hjhom.cell", "forward_diff"), ("hjhom.cell", "backward_diff"),
                  ("hjhom.parabolic", "forward_diff"),
                  ("hjhom.parabolic", "backward_diff")],
    "parabolic.godunov_power_flux": [("hjhom.cell", "godunov_power_flux"),
                                     ("hjhom.parabolic", "godunov_power_flux")],
    "operators.apply_table": [("hjhom.cell", "apply_table"),
                              ("hjhom.parabolic", "apply_table"),
                              ("hjhom.homogenize", "apply_table")],
    "effective.tabulate": [("hjhom.cli", "tabulate")],
    "effective.audit_properties": [("hjhom.cli", "audit_properties")],
    "effective.save_table": [("hjhom.cli", "save_table")],
    # imported inside cmd_solve and effective_source_from_table at call time
    "effective.load_table": [("hjhom.effective", "load_table")],
    "effective.query_many": [("hjhom.effective", "query_many")],
    "parabolic.solve": [("hjhom.cli", "solve"), ("hjhom.homogenize", "solve")],
    "homogenize.run_sweep": [("hjhom.cli", "run_sweep")],
    "homogenize.corrector_reconstruction": [("hjhom.homogenize",
                                             "corrector_reconstruction")],
    "homogenize.effective_source_from_formula": [("hjhom.cli",
                                                  "effective_source_from_formula")],
    "csvio.emit_csv": [("hjhom.csvio", "emit_csv")],
}
ROOT = "cli.main"


class Tracer:
    """Per-layer [calls, inclusive s, callee s] plus exact work counts."""

    def __init__(self):
        self.layers = {}
        self.stack = []
        self.counts = {"cell.march_steps": 0, "cell.unconverged": 0,
                       "csvio.emit_csv.bytes": 0}
        self.solves = []         # (dt, record times) of each parabolic solve

    def wrap(self, name, fn, observe=None):
        stats = self.layers.setdefault(name, [0, 0.0, 0.0])
        stack = self.stack
        clock = time.process_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if observe is not None:
                observe(result, args, kwargs)
            return result

        return traced

    def observe_cell(self, sol, args, kwargs):
        self.counts["cell.march_steps"] += sum(steps for _, _, steps in sol.residuals)
        self.counts["cell.unconverged"] += int(not sol.converged)

    def observe_solve(self, traj, args, kwargs):
        problem, cfg = args[:2]
        self.solves.append((traj.dt, cfg.resolved_record_times(problem.T)))

    def observe_emit(self, result, args, kwargs):
        self.counts["csvio.emit_csv.bytes"] += os.path.getsize(args[0])

    def install(self) -> list:
        """Patch every site; return the sites that no longer exist."""
        observers = {"cell.vanishing_discount_sweep": self.observe_cell,
                     "parabolic.solve": self.observe_solve,
                     "csvio.emit_csv": self.observe_emit}
        missing = []
        for name, sites in SITES.items():
            self.layers.setdefault(name, [0, 0.0, 0.0])
            for module, attr in sites:
                mod = importlib.import_module(module)
                if not hasattr(mod, attr):
                    missing.append(f"{module}.{attr}")
                    continue
                setattr(mod, attr, self.wrap(name, getattr(mod, attr),
                                             observers.get(name)))
        return missing

    def report(self, missing: list) -> dict:
        steps = sum(_solve_steps(dt, record) for dt, record in self.solves)
        counts = dict(self.counts, **{
            "parabolic.steps": steps,
            "parabolic.dt_min": min((dt for dt, _ in self.solves), default=0.0)})
        layers = {name: {"calls": c, "s": s, "self_s": s - child}
                  for name, (c, s, child) in self.layers.items()}
        return {"layers": layers, "counts": counts, "missing": missing}


def _solve_steps(dt: float, record) -> int:
    """Steps of hjhom.parabolic.solve's loop, replayed on its time variable."""
    t, steps = 0.0, 0
    for target in record:
        while t < target - 1e-14:
            t += min(dt, target - t)
            steps += 1
    return steps


def peak_rss_mb() -> float:
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) / 1024.0 for line in fh
                    if line.startswith("VmHWM:"))


def main(argv) -> int:
    report_path, argv = argv[0], argv[1:]
    tracer = Tracer() if argv[:1] == ["--trace"] else None
    import hjhom.cli
    cli_main, missing = hjhom.cli.main, []
    if tracer is not None:
        argv = argv[1:]
        missing = tracer.install()
        cli_main = tracer.wrap(ROOT, cli_main)
    code = None
    try:
        code = cli_main(argv)
    finally:
        report = {"exit": code, "peak_rss_mb": peak_rss_mb()}
        if tracer is not None:
            report.update(tracer.report(missing))
        with open(report_path, "w") as fh:
            json.dump(report, fh, indent=1)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
