"""Command-line entry point: configuration in, CSV artifacts out.

Commands: audit, drift, cell, effective, solve, homogenize, constants.  The
model (kernel, a, H, u0) is built once per run and mapped here to the
solvers' parameters; every effective table is filled by hjhom.fill.  `main`
maps every failure to its exit code: 0 success, 2 validation or audit failure
or invalid input (including an effective table that cannot be read, was built
for another model, or does not cover the solve), 3 numerical failure (among
them a table with a failed node, on which solve and homogenize take no step),
4 I/O failure.  The gated commands (cell, effective, solve, homogenize) refuse
to run on failed structural audits unless --force is given.  The numerics are
deterministic single-process numpy; the flux and its dissipation are worked
out from the data, the time step is the CFL bound scaled by
parabolic.CFL_SAFETY, and kernel tables sum a fixed 16 periodic images, so no
configuration key selects any of them.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import csvio
from .cell import (CellConfig, CellParams, corrector_below_one, corrector_regularity,
                   solve_ergodic_pair, unconverged)
from .config import ConfigError, Model, RunConfig, build_model, parse_config
from .effective import (EffectiveTable, audit_properties, effective_source_from_formula,
                        effective_source_from_table, save_table)
from .fill import fill_table
from .grid import GridFunction
from .hamiltonians import (audit_periodicity, audit_regularity,
                           audit_superlinearity, coercivity_constants,
                           growth_bound)
from .homogenize import ProblemFamily, SweepConfig, run_sweep
from .kernels import audit_ellipticity, drift_vector, periodized_weights
from .parabolic import (NumericalFailure, ParabolicProblem, SolverConfig,
                        holder_exponent_alpha0, oscillating_scheme, solve)

EXIT_OK = 0
EXIT_AUDIT = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def _out_path(args, cfg: RunConfig, suffix: str) -> str:
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, f"{cfg['output.prefix']}_{suffix}")


def _run_audits(model: Model, quick: bool = True) -> tuple:
    budget = 20 ** 3 if quick else 64 ** 3
    ell = audit_ellipticity(model.a, model.kernel, nx=64 if quick else 512,
                            ny=256 if quick else 512, modulus=model.modulus)
    sup = audit_superlinearity(model.ham, sample_budget=budget)
    reg = audit_regularity(model.ham, sample_budget=budget)
    return ell, sup, reg


def _gate(model: Model, force: bool) -> bool:
    """Run the quick structural audits; True when they refuse the run."""
    ell, sup, reg = _run_audits(model, quick=True)
    if ell.passed and sup.passed and reg.passed:
        return False
    for name, rep in (("ellipticity", ell), ("superlinearity", sup), ("regularity", reg)):
        if not rep.passed:
            print(f"audit failed: {name}: {rep}", file=sys.stderr)
    if not force:
        print("refusing to run on failed audits (use --force to override)", file=sys.stderr)
        return True
    print("continuing despite failed audits (--force)", file=sys.stderr)
    return False


def _drift_for(model: Model) -> float:
    if model.kernel.sigma != 1.0 or model.kernel.symmetric:
        return 0.0
    return drift_vector(model.kernel, tol=1e-8).b


def cmd_audit(args, cfg: RunConfig, model: Model) -> int:
    ell, sup, reg = _run_audits(model, quick=False)
    grow = growth_bound(model.ham)
    period_gap = audit_periodicity(model.ham)
    periodic_ok = period_gap <= 1e-10
    mod = ell.modulus_integral
    print(f"ellipticity: {'PASS' if ell.passed else 'FAIL'} a0={ell.a0:.6g} "
          f"witness={ell.witness} messages={list(ell.messages)}"
          + ("" if mod is None else f" modulus_integral={mod.value:.6g} "
             f"tail_estimate={mod.tail_estimate:.3g}"))
    print(f"superlinearity: {'PASS' if sup.passed else 'FAIL'} "
          f"worst_slack={sup.worst_slack:.6g} witness={sup.witness}")
    print(f"regularity: {'PASS' if reg.passed else 'FAIL'} measured_L={reg.measured_L:.6g} "
          f"(L_x={reg.L_x:.4g} L_y={reg.L_y:.4g} L_p={reg.L_p:.4g})")
    print(f"periodicity: {'PASS' if periodic_ok else 'FAIL'} "
          f"sup |H(x, y+1, p) - H(x, y, p)| = {period_gap:.3g}")
    print(f"growth: |H| <= {grow:.6g} (1 + |p|^m) on the sample")
    ok = ell.passed and sup.passed and reg.passed and periodic_ok
    return EXIT_OK if ok else EXIT_AUDIT


def cmd_drift(args, cfg: RunConfig, model: Model) -> int:
    if model.kernel.sigma != 1.0:
        print("drift extraction requires kernel.sigma = 1", file=sys.stderr)
        return EXIT_AUDIT
    dv = drift_vector(model.kernel, tol=1e-8)
    print(f"{dv.b:.17e}")
    if not dv.converged:
        print(f"warning: truncation limit not converged (residual {dv.residual:.3e})",
              file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def _cell_params(cfg: RunConfig, model: Model) -> CellParams:
    return CellParams(x=cfg["cell.x"], p=cfg["cell.p"], l=cfg["cell.l"],
                      sigma=cfg["kernel.sigma"], a=model.a, ham=model.ham,
                      drift_b=_drift_for(model))


def _cell_config(cfg: RunConfig) -> CellConfig:
    return CellConfig(n=cfg["cell.n"], tol=cfg["cell.tol"], max_steps=cfg["cell.max_steps"])


def cmd_cell(args, cfg: RunConfig, model: Model) -> int:
    params, n = _cell_params(cfg, model), cfg["cell.n"]
    if params.sigma == 1.0:
        sol = solve_ergodic_pair(params, _cell_config(cfg))
        psi, H_bar, spread, stop = sol.psi, sol.H_bar, sol.spread, sol.stop
    else:
        # exact forms: the corrector on cell.n nodes, a one-node table fill's value and err
        psi = GridFunction(corrector_below_one(params, n)[:-1] if params.sigma < 1.0 else
                           effective_source_from_formula(model.a, model.ham).corrector(
                               params.sigma, n)(params.x, params.p, params.l)[0])
        table, _ = fill_table(params, params.x, params.p, params.l, _cell_config(cfg))
        H_bar, spread, stop = table.values.item(), table.err.item(), None
    reg = corrector_regularity(psi)
    path = _out_path(args, cfg, "cell.csv")
    csvio.emit_csv(path, ["x", "p", "l", "sigma", "H_bar", "spread", "osc", "lip",
                          "flap_sup"],
                   [(params.x, params.p, params.l, params.sigma, H_bar, spread, *reg)],
                   cfg.header_lines())
    print(f"regime {params.regime}: H_bar = {H_bar:.10g} +/- {spread / 2:.3g} "
          f"(spread {spread:.3g}), corrector osc {reg[0]:.4g}, report -> {path}")
    if stop is not None and not stop.converged:
        print(unconverged(params, stop), file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def _model_name(cfg: RunConfig) -> str:
    return cfg["hamiltonian.b"] + "|" + cfg["hamiltonian.f"]


def _build_table(cfg: RunConfig, model: Model) -> EffectiveTable:
    """The configured table box, filled; prints the fill's line, if any."""
    axes = (cfg[f"cell.table_{axis}"] for axis in "xpl")
    table, record = fill_table(_cell_params(cfg, model), *axes, _cell_config(cfg),
                               {"model": _model_name(cfg), "m": str(cfg["hamiltonian.m"])})
    if line := record.line():
        print(line)
    return table


def _load_table_for(cfg: RunConfig, path: str):
    """The table at path; raises ValueError, naming both values, when it was
    built for another sigma, or another m or model where it records them."""
    from .effective import load_table
    table = load_table(path)
    m, model = cfg["hamiltonian.m"], _model_name(cfg)
    for key, built, run in (("sigma", table.sigma, cfg["kernel.sigma"]),
                            ("m", float(table.meta.get("m", m)), m),
                            ("model", table.meta.get("model", model), model)):
        if built != run:
            raise ValueError(f"{path} was built for {key} = {built}, "
                             f"but the run has {key} = {run}")
    return table


def cmd_effective(args, cfg: RunConfig, model: Model) -> int:
    table = _build_table(cfg, model)
    ham = model.ham
    a_vals = model.a(np.zeros(512), np.arange(512) / 512)
    audit = audit_properties(table, b0=ham.b_min, C=ham.f_sup,
                             a_sup=float(np.max(np.abs(a_vals))), m=ham.m)
    path = _out_path(args, cfg, "effective.csv")
    save_table(table, path, config_lines=cfg.header_lines())
    print(f"table {table.values.shape} saved -> {path}")
    print(f"audit: monotone violations {audit.monotone_violations}, "
          f"coercivity margin {audit.coercivity_margin:.4g}, "
          f"continuity C_l={audit.C_l:.4g} C_x={audit.C_x:.4g} C_p={audit.C_p:.4g}")
    if np.any(table.provenance == "failed"):
        print("some nodes failed to converge (marked 'failed'):", file=sys.stderr)
        for reason in table.failures:
            print(f"  {reason}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK if audit.passed else EXIT_AUDIT


def cmd_solve(args, cfg: RunConfig, model: Model) -> int:
    n = cfg["grid.n"]
    u0 = GridFunction.from_callable(model.u0, n)
    table = periodized_weights(model.kernel, n)
    if cfg["grid.kind"] == "oscillating":
        scheme = oscillating_scheme(cfg["grid.eps"], model.a, model.ham, table)
    else:
        if model.kernel.sigma > 1.0:
            src = effective_source_from_formula(model.a, model.ham)
        else:
            path = cfg["grid.table_csv"]
            if not path:
                print(f"effective solves at kernel.sigma = {model.kernel.sigma:g} <= 1 need "
                      f"grid.table_csv", file=sys.stderr)
                return EXIT_AUDIT
            src = effective_source_from_table(_load_table_for(cfg, path))
        scheme = src.scheme(u0.nodes(), table)
    traj = solve(ParabolicProblem(scheme, u0, cfg["grid.T"]),
                 SolverConfig(snapshots=cfg["grid.snapshots"]))
    tpath = _out_path(args, cfg, "trajectory.csv")
    spath = _out_path(args, cfg, "summary.csv")
    csvio.emit_csv(tpath, ["t", "x", "u"], csvio.trajectory_rows(traj),
                   cfg.header_lines())
    csvio.emit_csv(spath, ["t", "sup_norm", "initial_layer"],
                   csvio.trajectory_summary_rows(traj, u0), cfg.header_lines())
    bound = u0.sup_norm() + model.ham.f_sup * cfg["grid.T"] + 1e-8
    print(f"final sup norm {traj.sup_norm_track[-1]:.6g} "
          f"(a-priori bound {bound:.6g}), dt = {traj.dt:.3e} to {traj.max_dt:.3e}, "
          f"steps = {traj.steps}, path = {traj.path}")
    print(f"trajectory -> {tpath}\nsummary -> {spath}")
    return EXIT_OK


def cmd_homogenize(args, cfg: RunConfig, model: Model) -> int:
    sigma = model.kernel.sigma
    psi_provider = None
    if sigma > 1.0:
        src = effective_source_from_formula(model.a, model.ham)
        psi_provider = src.corrector(sigma, cfg["cell.n"])
    else:
        table = _build_table(cfg, model)
        tpath = _out_path(args, cfg, "effective.csv")
        save_table(table, tpath, config_lines=cfg.header_lines())
        print(f"effective table -> {tpath}")
        src = effective_source_from_table(table)
    family = ProblemFamily(a=model.a, ham=model.ham, kernel=model.kernel,
                           u0_func=model.u0, T=cfg["sweep.T"], effective=src)
    n_fixed = cfg["sweep.n_fixed"]
    scfg = SweepConfig(n_per_k=cfg["sweep.n_per_k"],
                       n_fixed=None if n_fixed == 0 else n_fixed,
                       snapshots=cfg["sweep.snapshots"])
    report = run_sweep(family, cfg["sweep.eps_list"], scfg, psi_provider=psi_provider)
    path = _out_path(args, cfg, "sweep.csv")
    csvio.emit_csv(path, ["eps", "n", "dt", "error", "rate", "corrector_residual",
                          "seconds"], csvio.sweep_rows(report), cfg.header_lines())
    snap_path = _out_path(args, cfg, "sweep_snapshots.csv")
    csvio.emit_csv(snap_path, ["eps", "x", "u"], csvio.sweep_snapshot_rows(report),
                   cfg.header_lines())
    for i, eps in enumerate(report.eps_list):
        print(f"eps = {eps:.6g}: n = {report.ns[i]}, error = {report.errors[i]:.6g}, "
              f"dt = {report.dts[i]:.3e} to {report.max_dts[i]:.3e}, "
              f"steps = {report.steps[i]}, path = {report.paths[i]}")
    print(f"sweep -> {path}\nsnapshots -> {snap_path}")
    for eps, message in report.failures:
        print(f"eps = {eps:.6g} failed: {message}", file=sys.stderr)
    return EXIT_NUMERICAL if report.failures else EXIT_OK


def cmd_constants(args, cfg: RunConfig, model: Model) -> int:
    ham = model.ham
    sigma = cfg["kernel.sigma"]
    m = ham.m
    n_struct = cfg["cell.structure_n"]
    grow = growth_bound(ham)
    cert0 = coercivity_constants(m, ham.b0, ham.C0, grow, 0.0)
    xs = np.arange(64) / 64
    ps = np.linspace(-2.0, 2.0, 81)
    X, Y, P = np.meshgrid(xs, xs, ps, indexing="ij")
    k_small = float(np.max(cert0.C_tilde * (1.0 + np.abs(P) ** m) - ham.eval(X, Y, P)))
    cert = coercivity_constants(m, ham.b0, ham.C0, grow, max(k_small, 0.0))
    if sigma <= 1.0:
        alpha0 = holder_exponent_alpha0(n_struct, sigma, m)
        print(f"alpha0({n_struct:g}, {sigma:g}, {m:g}) = {alpha0:.10f}")
    else:
        print(f"threshold exponent applies to orders <= 1 (sigma = {sigma:g})")
    print(f"c_m = {cert.c_m:.17g}")
    print(f"C_m = {cert.C_m:.17g}")
    print(f"C_tilde = {cert.C_tilde:.17g}")
    print(f"K = {cert.K:.17g} (valid for |p| > {cert.valid_above:g}, "
          f"K_small = {max(k_small, 0.0):.6g})")
    return EXIT_OK


_COMMANDS = {
    "audit": cmd_audit,
    "drift": cmd_drift,
    "cell": cmd_cell,
    "effective": cmd_effective,
    "solve": cmd_solve,
    "homogenize": cmd_homogenize,
    "constants": cmd_constants,
}
_GATED = ("cell", "effective", "solve", "homogenize")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hjhom",
        description="Homogenization toolkit for nonlocal Hamilton-Jacobi "
                    "equations on the 1-D torus")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to the run configuration")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--force", action="store_true",
                        help="run even if structural audits fail")
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config)
    except ConfigError as exc:
        for line in exc.errors:
            print(line, file=sys.stderr)
        return EXIT_AUDIT if os.path.exists(args.config) else EXIT_IO
    try:
        model = build_model(cfg)
        if args.command in _GATED and _gate(model, args.force):
            return EXIT_AUDIT
        return _COMMANDS[args.command](args, cfg, model)
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        # a table that cannot be read, was built for another model or does
        # not cover the solve, or a coefficient a the solver cannot use
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_AUDIT
    except OSError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
