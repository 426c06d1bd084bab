import contextlib
import io
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hjhom
from hjhom.cell import CellConfig, CellParams, corrector_below_one, solve_ergodic_pair
from hjhom.cli import _cell_config, _cell_params, main
from hjhom.config import (SCHEMA, ConfigError, build_model, defaults, parse_config,
                          parse_text)
from hjhom.effective import ClosedForm
from hjhom.fill import fill_table, solve_cells
from hjhom.hamiltonians import coefficient, model_bpm
from hjhom.kernels import normalizing_constant
from lemmas import vanishing_discount_sweep


def write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestParsing:
    def test_minimal_config_fills_defaults(self, tmp_path):
        cfg = parse_config(write(tmp_path, "kernel.sigma = 1.5\n"))
        assert cfg["kernel.sigma"] == 1.5
        assert cfg["grid.n"] == 256
        assert cfg["hamiltonian.m"] == 2.0
        ref = defaults()
        ref.values["kernel.sigma"] = 1.5
        assert cfg == ref

    def test_misspelled_key_names_nearest(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            parse_config(write(tmp_path, "kernl.sigma = 1.5\n"))
        assert "kernel" in str(err.value)
        assert "unknown key" in str(err.value)

    def test_all_errors_reported_together(self, tmp_path):
        text = "kernel.sigma = 3.5\nnope.key = 1\nhamiltonian.m = banana\n"
        with pytest.raises(ConfigError) as err:
            parse_config(write(tmp_path, text))
        assert len(err.value.errors) >= 3

    def test_fraction_values(self, tmp_path):
        cfg = parse_config(write(tmp_path, "grid.eps = 1/16\nsweep.eps_list = 1/2,1/4\n"))
        assert cfg["grid.eps"] == pytest.approx(1.0 / 16.0)
        assert cfg["sweep.eps_list"] == (0.5, 0.25)

    @pytest.mark.parametrize("line", ["grid.eps = 1/-4", "grid.eps = 1/+4",
                                      "sweep.eps_list = 1/2,1/-4", "cell.p = 1/2/3"])
    def test_bad_ratios_rejected(self, tmp_path, line):
        key, _, raw = line.partition(" = ")
        with pytest.raises(ConfigError) as err:
            parse_config(write(tmp_path, line + "\n"))
        assert err.value.errors == [f"{tmp_path / 'run.cfg'}:1: {key}: cannot parse "
                                    f"{raw!r} as {'floats' if ',' in raw else 'float'}"]

    @pytest.mark.parametrize("key, least", [("grid.snapshots", 1), ("sweep.snapshots", 1),
                                            ("cell.n", 8), ("cell.max_steps", 1),
                                            ("sweep.n_per_k", 16)])
    def test_lower_bounds_rejected_at_validation(self, tmp_path, capsys, key, least):
        path = write(tmp_path, f"{key} = {least - 1}\n")
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert err.value.errors == [f"{key} = {least - 1} must be at least {least}"]
        parse_config(write(tmp_path, f"{key} = {least}\n", name="least.cfg"))
        capsys.readouterr()
        command = "homogenize" if key.startswith("sweep") else "solve"
        assert main([command, "--config", path, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == err.value.errors[0] + "\n"

    @pytest.mark.parametrize("bad, message, good", [
        ("grid.T = 0", "grid.T = 0.0 must be positive", "grid.T = 1e-3"),
        ("sweep.T = -0.1", "sweep.T = -0.1 must be positive", "sweep.T = 1e-3"),
        ("grid.n = 64\ngrid.eps = 1/8", "grid.n = 64 must be at least 16 / grid.eps = 128",
         "grid.n = 64\ngrid.eps = 1/8\ngrid.kind = effective"),
        ("sweep.n_fixed = 32\nsweep.eps_list = 1/2,1/4",
         "sweep.n_fixed = 32 must be 0 or at least 16 / min eps = 64",
         "sweep.n_fixed = 64\nsweep.eps_list = 1/2,1/4"),
    ], ids=["grid.T", "sweep.T", "grid.n", "sweep.n_fixed"])
    def test_unworkable_runs_rejected_at_validation(self, tmp_path, capsys, bad, message,
                                                    good):
        # a horizon that is not positive, or a grid too coarse for its
        # smallest eps, exits 2 naming the key before any model is built
        path = write(tmp_path, bad + "\n")
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert err.value.errors == [message]
        parse_config(write(tmp_path, good + "\n", name="good.cfg"))
        capsys.readouterr()
        command = "homogenize" if bad.startswith("sweep") else "solve"
        assert main([command, "--config", path, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == message + "\n"

    @pytest.mark.parametrize("line, message", [
        ("grid.eps = 1e-320", "grid.eps = 1e-320 is not the reciprocal of an integer"),
        ("grid.eps = nan", "{cfg}:1: grid.eps: 'nan' is not finite"),
        ("sweep.eps_list = 1/2,1e-320",
         "sweep.eps_list entry 1e-320 is not the reciprocal of an integer"),
        ("sweep.eps_list = 1/2,nan", "{cfg}:1: sweep.eps_list: '1/2,nan' is not finite"),
        ("hamiltonian.m = 1e308", "hamiltonian.m = 1e+308 must exceed 1 and be at most 100"),
        ("hamiltonian.m = inf", "{cfg}:1: hamiltonian.m: 'inf' is not finite"),
        ("cell.tol = nan", "{cfg}:1: cell.tol: 'nan' is not finite"),
        ("cell.tol = inf", "{cfg}:1: cell.tol: 'inf' is not finite"),
        ("cell.tol = -1", "cell.tol = -1.0 must be positive"),
        ("kernel.family = csv\nkernel.csv_path = {empty}",
         "invalid input: kernel.csv_path = {empty} holds no samples"),
        ("kernel.family = csv\nkernel.csv_path = {one_column}",
         "invalid input: kernel.csv_path = {one_column}: invalid column index 1 at row 1 "
         "with 1 columns"),
        ("kernel.family = csv\nkernel.csv_path = {not_finite}",
         "invalid input: kernel.csv_path = {not_finite} holds a sample that is not finite"),
    ], ids=["grid.eps-subnormal", "grid.eps-nan", "sweep.eps_list-subnormal",
            "sweep.eps_list-nan", "hamiltonian.m-huge", "hamiltonian.m-inf", "cell.tol-nan",
            "cell.tol-inf", "cell.tol-negative", "kernel.csv_path-empty",
            "kernel.csv_path-one-column", "kernel.csv_path-not-finite"])
    def test_unusable_numbers_exit_2_naming_the_key(self, tmp_path, capsys, line, message):
        # one line on stderr, naming the key: no traceback and no numpy warning
        files = {"empty": "", "one_column": "0\n0.5\n1\n", "not_finite": "-1,1\n0,nan\n1,1\n"}
        for name, content in files.items():
            (tmp_path / f"{name}.csv").write_text(content)
        files = {name: tmp_path / f"{name}.csv" for name in files}
        path = write(tmp_path, line.format(**files) + "\n")
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["audit", "--config", path]) == 2
        assert capsys.readouterr().err == message.format(cfg=path, **files) + "\n"

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    @pytest.mark.parametrize("key", ["coefficient_a.kind", "hamiltonian.b", "hamiltonian.f"])
    def test_non_finite_constant_coefficient_exits_2(self, tmp_path, capsys, key, value):
        # as a non-finite number is: a nan constant would make K read nan and
        # pass the regularity audit, whose max drops NaN
        path = write(tmp_path, f"{key} = constant:{value}\n")
        capsys.readouterr()
        assert main(["constants", "--config", path]) == 2
        assert capsys.readouterr().err == (f"{key} = 'constant:{value}': constant coefficient "
                                           f"{float(value)} is not finite\n")

    # kernel files the property draws; {c} is the order's normalizing
    # constant, so the valid file passes the ellipticity audit
    CSV_KERNELS = {"missing": None, "empty": "", "one-column": "0\n0.5\n1\n",
                   "not-finite": "-inf,{c}\n0,nan\n1,{c}\n", "valid": "-1,{c}\n0,{c}\n1,{c}\n"}

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.one_of(st.sampled_from(["", "kernel.sigma = 1\nkernel.family = tilt\n"]),
                     st.tuples(st.sampled_from(["0.5", "1", "1.5"]),
                               st.sampled_from(sorted(CSV_KERNELS)))),
           st.sampled_from([f"{section}.{key}" for section, keys in SCHEMA.items()
                            for key, (tag, _) in keys.items() if tag in ("float", "floats")]),
           st.lists(st.sampled_from(["nan", "inf", "-inf", "1e-320", "-1e-320", "1e308",
                                     "-1e308", "1e400", "0", "-1", "-0.5"]),
                    min_size=1, max_size=3))
    def test_schema_numbers_never_raise(self, tmp_path_factory, base, key, values):
        # any of these in any number key, on a built-in or a csv kernel, is
        # accepted and builds a model, or is rejected with every message
        # naming the key or the kernel file; nothing raises or warns.  On a
        # csv kernel `hjhom audit` runs too: exit 0, 2, 3 or 4, every stderr
        # line one of those named errors
        if SCHEMA[key.split(".")[0]][key.split(".")[1]][0] == "float":
            values = values[:1]
        csv_errors = ("invalid input: kernel.csv_path = ", "I/O failure: kernel.csv_path = ")
        csv = isinstance(base, tuple)
        if csv:
            sigma, kind = base
            kernel = tmp_path_factory.mktemp("kernel") / "kernel.csv"
            if self.CSV_KERNELS[kind] is not None:
                c = repr(normalizing_constant(float(sigma)))
                kernel.write_text(self.CSV_KERNELS[kind].format(c=c))
            base = f"kernel.sigma = {sigma}\nkernel.family = csv\nkernel.csv_path = {kernel}\n"
        text = base + f"{key} = {','.join(values)}\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                build_model(parse_text(text))
            except ConfigError as exc:
                assert exc.errors and all(key in line for line in exc.errors)
            except (OSError, ValueError) as exc:      # the kernel file, read by build_model
                assert csv and str(exc).startswith("kernel.csv_path = ")
            if csv:
                path = kernel.parent / "run.cfg"
                path.write_text(text)
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(["audit", "--config", str(path)])
                assert code in (0, 2, 3, 4)
                assert all(key in line or line.startswith(csv_errors)
                           for line in err.getvalue().splitlines())

    @pytest.mark.parametrize("key", ["grid.cfl_safety", "kernel.image_budget",
                                     "grid.flux", "grid.theta", "hamiltonian.model",
                                     "grid.gradient_range"])
    def test_removed_keys_rejected(self, tmp_path, key):
        with pytest.raises(ConfigError) as err:
            parse_config(write(tmp_path, f"{key} = 1\n"))
        assert f"unknown key {key!r}" in str(err.value)

    @pytest.mark.parametrize("line, message", [
        ("coefficient_a.kind = bogus", "coefficient_a.kind = 'bogus': unknown coefficient"),
        ("coefficient_a.kind = constant:abc", "could not convert string to float"),
        ("hamiltonian.f = nope", "hamiltonian.f = 'nope': unknown coefficient"),
        ("hamiltonian.b = cos_y", "hamiltonian.b = 'cos_y': coefficient b must be "
                                  "strictly positive"),
    ])
    def test_bad_model_names_rejected(self, tmp_path, capsys, line, message):
        path = write(tmp_path, f"kernel.sigma = 3.5\n{line}\n")
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert len(err.value.errors) == 2          # reported with the sigma error
        assert any(message in e for e in err.value.errors)
        # a command exits 2 with the errors, not with a traceback
        capsys.readouterr()
        assert main(["audit", "--config", path, "--out", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("key, good", [
        ("cell.deltas", "1/4,1/8,1/16"), ("sweep.eps_list", "1/4,1/8,1/16"),
        ("cell.table_x", "0,0.5,1"), ("cell.table_p", "0,0.5,1"), ("cell.table_l", "0,0.5,1")])
    @pytest.mark.parametrize("case", ["empty", "unsorted", "repeated"])
    def test_bad_lists_rejected_at_validation(self, tmp_path, capsys, key, good, case):
        first, second, rest = good.split(",")
        value = {"empty": "", "unsorted": f"{second},{first},{rest}",
                 "repeated": f"{first},{first},{second},{rest}"}[case]
        path = write(tmp_path, f"{key} = {value}\n")
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert len(err.value.errors) == 1 and err.value.errors[0].startswith(key + " must")
        capsys.readouterr()
        assert main(["effective", "--config", path, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == err.value.errors[0] + "\n"

    def test_round_trip(self, tmp_path):
        cfg = parse_config(write(tmp_path, "kernel.sigma = 0.5\ncell.p = 0.25\n"))
        again = parse_text(cfg.to_text())
        assert again == cfg

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            parse_config("/no/such/file.cfg")

    def test_rough_order_one_kernel_rejected_at_validation(self, tmp_path):
        # an asymmetric order-one density whose modulus integral diverges is
        # caught while the configuration is being validated
        z = np.concatenate([-np.geomspace(1e-15, 3.0, 4000)[::-1], [0.0],
                            np.geomspace(1e-15, 3.0, 4000)])
        c = 1.0 / np.pi
        mod = np.where(np.abs(z) <= 1.0,
                       np.where(z == 0.0, 0.0, 0.5 / np.log(np.e / np.abs(np.where(z == 0, 1, z)))),
                       0.0)
        vals = c * (1.0 + np.sign(z) * mod)
        csv_path = tmp_path / "kernel.csv"
        np.savetxt(csv_path, np.column_stack([z, vals]), delimiter=",")
        text = (f"kernel.sigma = 1\nkernel.family = csv\nkernel.csv_path = {csv_path}\n")
        with pytest.raises(ConfigError) as err:
            parse_config(write(tmp_path, text))
        assert "modulus integral" in str(err.value)


class TestCommands:
    def test_constants_output(self, tmp_path, capsys):
        path = write(tmp_path, "kernel.sigma = 1\nhamiltonian.m = 2\ncell.structure_n = 1\n")
        code = main(["constants", "--config", path, "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "0.6339745962" in out
        assert "c_m = 0.16666666666666666" in out
        assert "C_m = 0.75" in out

    def test_drift_value(self, tmp_path, capsys):
        path = write(tmp_path, "kernel.sigma = 1\nkernel.family = tilt\nkernel.slope = 0.5\n")
        code = main(["drift", "--config", path])
        assert code == 0
        val = float(capsys.readouterr().out.strip())
        assert val == pytest.approx(1.0 / np.pi, abs=1e-6)

    def test_drift_requires_order_one(self, tmp_path, capsys):
        path = write(tmp_path, "kernel.sigma = 1.5\n")
        assert main(["drift", "--config", path]) == 2

    def test_audit_pass_and_fail(self, tmp_path, capsys):
        good = write(tmp_path, "kernel.sigma = 1.5\n", name="good.cfg")
        assert main(["audit", "--config", good, "--out", str(tmp_path)]) == 0
        bad = write(tmp_path, "coefficient_a.kind = cos_y\n", name="bad.cfg")
        assert main(["audit", "--config", bad, "--out", str(tmp_path)]) == 2

    def test_gate_blocks_and_force_overrides(self, tmp_path):
        bad = write(tmp_path, "\n".join([
            "coefficient_a.kind = cos_y",   # fails ellipticity
            "grid.n = 64", "grid.eps = 1/4", "grid.T = 0.02", "kernel.sigma = 0.5",
        ]) + "\n")
        assert main(["solve", "--config", bad, "--out", str(tmp_path)]) == 2

    def test_solve_writes_csvs_deterministically(self, tmp_path):
        path = write(tmp_path, "\n".join([
            "kernel.sigma = 0.5", "grid.n = 64", "grid.eps = 1/4",
            "grid.T = 0.05", "grid.snapshots = 3", "coefficient_a.kind = constant:1",
        ]) + "\n")
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert main(["solve", "--config", path, "--out", str(out1)]) == 0
        assert main(["solve", "--config", path, "--out", str(out2)]) == 0
        t1 = (out1 / "run_trajectory.csv").read_bytes()
        t2 = (out2 / "run_trajectory.csv").read_bytes()
        assert t1 == t2
        header = t1.decode().splitlines()
        assert any(line == "t,x,u" for line in header)
        assert header[0].startswith("#")
        # the echoed header reproduces the run configuration exactly
        from hjhom.config import parse_text
        echoed = "\n".join(line[2:] for line in header if line.startswith("# "))
        assert parse_text(echoed) == parse_config(path)

    def test_solve_constant_exact_solution(self, tmp_path, capsys):
        # flat data with H(.,.,0) = -1 integrates to u = t exactly
        path = write(tmp_path, "\n".join([
            "grid.u0 = zero", "hamiltonian.f = constant:1", "grid.n = 64",
            "grid.eps = 1/4", "grid.T = 0.05", "grid.snapshots = 5",
        ]) + "\n")
        assert main(["solve", "--config", path, "--out", str(tmp_path)]) == 0
        rows = [l.split(",") for l in (tmp_path / "run_summary.csv").read_text().splitlines()
                if not l.startswith("#")][1:]
        for t, sup, layer in rows:
            assert float(sup) == pytest.approx(float(t), abs=1e-10)
            assert float(layer) == pytest.approx(float(t), abs=1e-10)
        m = re.search(r"final sup norm (\S+) \(a-priori bound \S+\), "
                      r"dt = (\S+) to (\S+), steps = (\d+), path = (\w+)\n",
                      capsys.readouterr().out)
        assert float(m.group(1)) == pytest.approx(0.05, abs=1e-10)
        assert m.group(5) == "implicit"      # a(x, x / eps) = 2 + cos repeats every 16 nodes
        # the smallest and the largest full step, printed to 4 digits
        dt, max_dt, steps = float(m.group(2)), float(m.group(3)), int(m.group(4))
        assert dt <= max_dt
        assert 0.05 * (1.0 - 1e-3) <= steps * max_dt
        assert steps * dt <= 0.05 * (1.0 + 1e-3) + 5 * dt

    def test_solve_numerical_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        import hjhom.cli
        from hjhom.parabolic import NumericalFailure

        def blow_up(problem, cfg):
            raise NumericalFailure("non-finite state at step 7, t = 0.01")

        monkeypatch.setattr(hjhom.cli, "solve", blow_up)
        path = write(tmp_path, "\n".join([
            "kernel.sigma = 0.5", "grid.n = 64", "grid.eps = 1/4",
            "grid.T = 0.1", "coefficient_a.kind = constant:1",
        ]) + "\n")
        assert main(["solve", "--config", path, "--out", str(tmp_path)]) == 3
        assert ("numerical failure: non-finite state at step 7, t = 0.01"
                in capsys.readouterr().err)

    def test_cell_command(self, tmp_path, capsys):
        path = write(tmp_path, "\n".join([
            "kernel.sigma = 0.5", "coefficient_a.kind = constant:1",
            "cell.n = 64", "cell.deltas = 0.1,0.05",
        ]) + "\n")
        assert main(["cell", "--config", path, "--out", str(tmp_path)]) == 0
        body = (tmp_path / "run_cell.csv").read_text()
        assert "x,p,l,sigma,H_bar,spread,osc,lip,flap_sup" in body

    @pytest.mark.parametrize("sigma", ["0.5", "1", "1.5"])
    def test_cell_report_columns_match_the_corrector(self, tmp_path, sigma):
        # osc, lip and flap_sup as written, bit for bit, from the mean-free
        # corrector: max - min, the largest wrapped forward difference times
        # n, and sup |irfft(2 pi |k| rfft(psi))|
        path = write(tmp_path, "\n".join([
            f"kernel.sigma = {sigma}", "cell.n = 64", "cell.p = 0.5", "cell.l = 0.25",
            "cell.deltas = 0.1,0.01"]) + "\n")
        assert main(["cell", "--config", path, "--out", str(tmp_path)]) == 0
        rows = [l for l in (tmp_path / "run_cell.csv").read_text().splitlines()
                if not l.startswith("#")]
        osc, lip, flap_sup = (float(v) for v in rows[1].split(",")[6:])
        cfg = parse_config(path)
        params, n = _cell_params(cfg, build_model(cfg)), cfg["cell.n"]
        if sigma == "0.5":
            psi = corrector_below_one(params, n)[:-1]
        elif sigma == "1":
            psi = solve_ergodic_pair(params, _cell_config(cfg)).psi.values
        else:       # the closed form's profile, as the sweep's corrector takes it
            psi = ClosedForm(params.a, params.ham).corrector(params.sigma, n, params.x,
                                                             params.p, params.l)[0]
        psi = psi - np.mean(psi)
        assert psi.size == n
        assert osc == np.ptp(psi) > 0.0
        assert lip == np.max(np.abs(np.append(psi[1:], psi[:1]) - psi) * n)
        k = np.arange(n // 2 + 1)
        assert flap_sup == np.max(np.abs(np.fft.irfft(2 * np.pi * k * np.fft.rfft(psi), n=n)))

    def test_cell_command_at_a_grid_size_not_a_power_of_two(self, tmp_path, capsys):
        # the regularity report takes spectral_flap of the corrector at cell.n
        path = write(tmp_path, "\n".join([
            "kernel.sigma = 0.5", "coefficient_a.kind = constant:1",
            "cell.n = 100", "cell.deltas = 0.1,0.05",
        ]) + "\n")
        assert main(["cell", "--config", path, "--out", str(tmp_path)]) == 0
        assert "invalid input" not in capsys.readouterr().err

    def test_cell_command_reports_unreached_steady_state(self, tmp_path, capsys):
        # only order >= 1 takes Newton steps; below it the cell is exact
        path = write(tmp_path, "\n".join([
            "kernel.sigma = 1", "coefficient_a.kind = constant:1",
            "cell.n = 64", "cell.max_steps = 1",
        ]) + "\n")
        assert main(["cell", "--config", path, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert re.fullmatch(r"numerical failure: cell solve at \(x, p, l\) = \(0, 0, 0\) not "
                            r"converged: residual \S+ after 1 Newton steps, stopped by budget\n",
                            err)
        # an unconverged node has no value or corrector to report
        assert not (tmp_path / "run_cell.csv").exists()

    def test_cell_at_order_one_takes_one_newton_solve(self, tmp_path, monkeypatch):
        # the node's value and its corrector come from the one solve
        import hjhom.fill
        calls, real = [], hjhom.fill.solve_ergodic_pair
        monkeypatch.setattr(hjhom.fill, "solve_ergodic_pair",
                            lambda *args, **kw: calls.append(kw) or real(*args, **kw))
        path = write(tmp_path, "kernel.sigma = 1\ncell.n = 64\ncell.p = 0.5\n")
        assert main(["cell", "--config", path, "--out", str(tmp_path)]) == 0
        assert calls == [{"start": None}]

    def test_cell_command_below_order_one_prints_the_formula(self, tmp_path, capsys,
                                                             monkeypatch):
        # H_bar is the cell formula's, and no Newton solve runs
        import hjhom.fill
        from hjhom.cell import formula_below_one
        from hjhom.hamiltonians import coefficient, model_bpm
        monkeypatch.setattr(hjhom.fill, "solve_ergodic_pair",
                            lambda *args, **kw: pytest.fail("a Newton solve ran"))
        path = write(tmp_path, "\n".join([
            "kernel.sigma = 0.5", "hamiltonian.b = two_plus_cos_y", "cell.n = 64",
            "cell.p = 1.5", "cell.l = 0.5", "cell.deltas = 0.1,0.01,0.001",
        ]) + "\n")
        assert main(["cell", "--config", path, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out.splitlines()
        want = float(formula_below_one(coefficient("two_plus_cos_y"),
                                       model_bpm("two_plus_cos_y", "cos_y", 2.0), 0.0, 1.5, 0.5))
        assert len(out) == 1 and out[0].startswith(f"regime below_one: H_bar = {want:.10g} +/- ")
        # one header plus one data row, as at every order
        rows = [l for l in (tmp_path / "run_cell.csv").read_text().splitlines()
                if not l.startswith("#")]
        assert rows[0] == "x,p,l,sigma,H_bar,spread,osc,lip,flap_sup" and len(rows) == 2

    @pytest.mark.parametrize("p, l", [(0.45, 0.0), (1.2, 0.5), (-2.0, -1.0)])
    def test_cell_below_order_one_is_the_table_fill_value(self, tmp_path, p, l):
        # hjhom cell's one-node fill writes the H_bar and err that hjhom
        # effective stores for the same node of a larger box, bit for bit:
        # the cell formula's below order one, the closed form's (err 0) above
        for sigma, f in (("0.5", "cos_y"), ("0.5", "cos_x_cos_y"), ("1.5", "cos_y"),
                         ("1.5", "cos_x_cos_y")):
            lines = [f"kernel.sigma = {sigma}", "hamiltonian.b = two_plus_cos_y",
                     f"hamiltonian.f = {f}", "cell.n = 64", "cell.x = 0.25", f"cell.p = {p}",
                     f"cell.l = {l}", "cell.table_x = 0,0.25",
                     f"cell.table_p = {p - 1},{p},{p + 0.5}", f"cell.table_l = {l},{l + 1}"]
            path = write(tmp_path, "\n".join(lines) + "\n")
            rows = {}
            for command in ("cell", "effective"):
                assert main([command, "--config", path, "--out", str(tmp_path)]) == 0
                body = [line.split(",") for line in (tmp_path / f"run_{command}.csv")
                        .read_text().splitlines() if not line.startswith("#")]
                rows[command] = [dict(zip(body[0], row)) for row in body[1:]
                                 if tuple(map(float, row[:3])) == (0.25, p, l)]
            assert len(rows["cell"]) == len(rows["effective"]) == 1
            assert rows["cell"][0]["H_bar"] == rows["effective"][0]["H_bar"]
            assert rows["cell"][0]["spread"] == rows["effective"][0]["err"]
            assert sigma == "0.5" or float(rows["cell"][0]["spread"]) == 0.0

    @pytest.mark.parametrize("sigma", ["0.5", "1"])
    def test_effective_solve_without_a_table_names_the_key(self, tmp_path, capsys, sigma):
        path = write(tmp_path, "\n".join([
            f"kernel.sigma = {sigma}", "coefficient_a.kind = constant:1",
            "grid.kind = effective", "grid.n = 64", "grid.T = 0.05"]) + "\n")
        capsys.readouterr()
        assert main(["solve", "--config", path, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"effective solves at kernel.sigma = {sigma} <= 1 need grid.table_csv"]

    def test_effective_below_order_one_fills_from_the_formula(self, tmp_path, capsys,
                                                              monkeypatch):
        import hjhom.fill
        from hjhom.cell import CLOSED_FORM_NODES, formula_below_one
        from hjhom.effective import load_table
        from hjhom.hamiltonians import coefficient, model_bpm
        monkeypatch.setattr(hjhom.fill, "solve_ergodic_pair",
                            lambda *args, **kw: pytest.fail("a cell solve ran"))
        path = write(tmp_path, "\n".join([
            "kernel.sigma = 0.5", "coefficient_a.kind = two_plus_cos_y",
            "cell.table_x = 0,0.5", "cell.table_p = -2,0,0.45,1.2,2",
            "cell.table_l = -1,0,1",
        ]) + "\n")
        assert main(["effective", "--config", path, "--out", str(tmp_path)]) == 0
        fill = [l for l in capsys.readouterr().out.splitlines() if l.startswith("fill: ")]
        assert len(fill) == 1 and re.fullmatch(
            r"fill: cell formula on 2048 nodes, largest gap to 1024 nodes \S+ at "
            r"\(x, p, l\) = \(\S+, \S+, \S+\)", fill[0])
        table = load_table(str(tmp_path / "run_effective.csv"))
        assert np.all(table.provenance == "formula")
        a, ham = coefficient("two_plus_cos_y"), model_bpm("one", "cos_y", 2.0)
        X, P, L = table.xs[:, None, None], table.ps[None, :, None], table.ls[None, None, :]
        values = formula_below_one(a, ham, X, P, L)
        half = formula_below_one(a, ham, X, P, L, nodes=CLOSED_FORM_NODES // 2)
        assert np.array_equal(table.values, values)
        assert np.array_equal(table.err, np.abs(values - half))

    def test_effective_command_and_reload(self, tmp_path):
        path = write(tmp_path, "\n".join([
            "kernel.sigma = 1.5",
            "cell.table_p = 0,1,2", "cell.table_l = -1,0,1",
        ]) + "\n")
        assert main(["effective", "--config", path, "--out", str(tmp_path)]) == 0
        from hjhom.effective import effective_source_from_table, load_table
        table = load_table(str(tmp_path / "run_effective.csv"))
        got = float(effective_source_from_table(table).at(0.0)(1.0, 0.0))
        assert got == pytest.approx(3.0 - np.sqrt(3.0), abs=1e-10)

    @pytest.mark.parametrize("m", ["2", "3"])
    def test_effective_above_one_takes_the_means_once(self, tmp_path, monkeypatch, m):
        # the closed form fills the whole table in one call, bit for bit as
        # node by node
        from conftest import formula_fill
        from hjhom.effective import ClosedForm, load_table
        from hjhom.hamiltonians import coefficient, model_bpm
        calls, means = [], ClosedForm.means
        monkeypatch.setattr(ClosedForm, "means",
                            lambda self, *args: calls.append(args) or means(self, *args))
        path = write(tmp_path, "\n".join([
            "kernel.sigma = 1.5", f"hamiltonian.m = {m}", "cell.table_x = 0,0.25,0.5,0.75",
            "cell.table_p = -2,-0.75,0,0.3,1,2", "cell.table_l = -1,-0.2,0,0.5,1",
        ]) + "\n")
        assert main(["effective", "--config", path, "--out", str(tmp_path)]) == 0
        assert len(calls) == 1
        table = load_table(str(tmp_path / "run_effective.csv"))
        fill = formula_fill(coefficient("two_plus_cos_y"), model_bpm("one", "cos_y", float(m)))
        want = [[[fill(x, p, l)[0] for l in table.ls] for p in table.ps] for x in table.xs]
        assert np.array_equal(table.values, np.array(want))
        assert np.all(table.err == 0.0) and np.all(table.provenance == "formula")

    def test_homogenize_command(self, tmp_path, capsys):
        path = write(tmp_path, "\n".join([
            "kernel.sigma = 1.5", "sweep.eps_list = 1/2,1/4", "sweep.T = 0.05",
            "sweep.snapshots = 3",
        ]) + "\n")
        assert main(["homogenize", "--config", path, "--out", str(tmp_path)]) == 0
        runs = re.findall(r"eps = \S+: n = (\d+), error = \S+, dt = \S+ to \S+, "
                          r"steps = (\d+), path = (\w+)\n", capsys.readouterr().out)
        assert [(n, path) for n, _, path in runs] == [("32", "implicit"), ("64", "implicit")]
        lines = (tmp_path / "run_sweep.csv").read_text().splitlines()
        data = [l for l in lines if not l.startswith("#")]
        assert data[0] == "eps,n,dt,error,rate,corrector_residual,seconds"
        errs = [float(row.split(",")[3]) for row in data[1:]]
        assert errs[0] > errs[1]

    def test_homogenize_repeats_in_process(self, tmp_path, capsys):
        # two runs in one process write the same CSVs, the sweep's wall-clock
        # `seconds` aside: no fitted theta or block inverse outlives its run
        path = write(tmp_path, "\n".join([
            "kernel.sigma = 1.5", "sweep.eps_list = 1/4,1/8", "sweep.T = 0.05",
            "sweep.snapshots = 3",
        ]) + "\n")
        outputs = []
        for out in (tmp_path / "a", tmp_path / "b"):
            assert main(["homogenize", "--config", path, "--out", str(out)]) == 0
            sweep = [line if line.startswith("#") else line.rsplit(",", 1)[0]
                     for line in (out / "run_sweep.csv").read_text().splitlines()]
            stdout = capsys.readouterr().out.replace(str(out), "OUT")
            outputs.append((sweep, (out / "run_sweep_snapshots.csv").read_bytes(), stdout))
        assert outputs[0] == outputs[1]
        assert "steps = " in outputs[0][2]

    def test_homogenize_failed_runs_exit_numerical(self, tmp_path, monkeypatch, capsys):
        # blown-up eps runs still leave both CSVs, then name themselves on
        # stderr and set the exit code
        import hjhom.homogenize
        from hjhom.parabolic import NumericalFailure
        solve, oscillating_scheme = hjhom.homogenize.solve, hjhom.homogenize.oscillating_scheme
        eps_of = {}           # each oscillating scheme's eps

        def tagged(eps, *args):
            scheme = oscillating_scheme(eps, *args)
            eps_of[scheme] = eps
            return scheme

        def failing(problem, cfg):
            if problem.scheme in eps_of:
                eps = eps_of[problem.scheme]
                raise NumericalFailure(f"non-finite state at step 3, eps = {eps}")
            return solve(problem, cfg)

        monkeypatch.setattr(hjhom.homogenize, "oscillating_scheme", tagged)
        monkeypatch.setattr(hjhom.homogenize, "solve", failing)
        path = write(tmp_path, "\n".join([
            "kernel.sigma = 1.5", "sweep.eps_list = 1/2,1/4", "sweep.T = 0.05",
            "sweep.snapshots = 3",
        ]) + "\n")
        assert main(["homogenize", "--config", path, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err == ["eps = 0.5 failed: non-finite state at step 3, eps = 0.5",
                       "eps = 0.25 failed: non-finite state at step 3, eps = 0.25"]
        sweep = [l for l in (tmp_path / "run_sweep.csv").read_text().splitlines()
                 if not l.startswith("#")]
        assert [row.split(",")[3] for row in sweep[1:]] == ["nan", "nan"]
        assert (tmp_path / "run_sweep_snapshots.csv").stat().st_size > 0

    def test_asymmetry_audit_runs_once(self, tmp_path, monkeypatch):
        # validation reads the csv kernel and takes its order-one modulus
        # integral; the model and the gate reuse both
        from hjhom import kernels
        zs = np.linspace(-3.0, 3.0, 601)
        csv_path = tmp_path / "kernel.csv"
        np.savetxt(csv_path, np.column_stack([zs, kernels.tilt_kernel(1.0, 0.5).kbar(zs)]),
                   delimiter=",")
        calls = []
        integral, loadtxt = kernels.modulus_log_integral, np.loadtxt
        monkeypatch.setattr(kernels, "modulus_log_integral",
                            lambda k: calls.append("integral") or integral(k))
        monkeypatch.setattr(np, "loadtxt",
                            lambda *a, **kw: calls.append("read") or loadtxt(*a, **kw))
        path = write(tmp_path, "\n".join([
            "kernel.sigma = 1", "kernel.family = csv", f"kernel.csv_path = {csv_path}",
            "cell.n = 32", "cell.deltas = 0.1",
        ]) + "\n")
        assert main(["cell", "--config", path, "--out", str(tmp_path)]) == 0
        assert sorted(calls) == ["integral", "read"]

    def test_homogenize_below_order_one_uses_table(self, tmp_path):
        path = write(tmp_path, "\n".join([
            "kernel.sigma = 0.5", "coefficient_a.kind = constant:1",
            "sweep.eps_list = 1/4,1/8", "sweep.T = 0.04", "sweep.snapshots = 2",
            "cell.n = 64", "cell.deltas = 0.05,0.01", "cell.tol = 1e-7",
            "cell.table_p = -8,-4,0,4,8", "cell.table_l = -4,0,4",
        ]) + "\n")
        assert main(["homogenize", "--config", path, "--out", str(tmp_path)]) == 0
        assert (tmp_path / "run_effective.csv").exists()
        assert (tmp_path / "run_sweep.csv").exists()

    def test_effective_command_order_one_fill(self, tmp_path):
        path = write(tmp_path, "\n".join([
            "kernel.sigma = 1", "coefficient_a.kind = constant:1",
            "cell.n = 64", "cell.deltas = 0.1,0.05", "cell.tol = 1e-8",
            "cell.table_p = 0.5", "cell.table_l = -0.5,0.5",
        ]) + "\n")
        assert main(["effective", "--config", path, "--out", str(tmp_path)]) == 0
        from hjhom.effective import load_table
        table = load_table(str(tmp_path / "run_effective.csv"))
        assert set(np.unique(table.provenance)) == {"ergodic"}
        assert table.values[0, 0, 0] > table.values[0, 0, 1]  # decreasing in l

    def test_effective_solve_from_saved_table(self, tmp_path):
        table_cfg = write(tmp_path, "\n".join([
            "kernel.sigma = 0.5", "coefficient_a.kind = constant:1",
            "cell.n = 64", "cell.deltas = 0.05,0.01", "cell.tol = 1e-7",
            "cell.table_p = -8,-4,0,4,8", "cell.table_l = -4,0,4",
        ]) + "\n", name="table.cfg")
        assert main(["effective", "--config", table_cfg, "--out", str(tmp_path)]) == 0
        solve_cfg = write(tmp_path, "\n".join([
            "kernel.sigma = 0.5", "coefficient_a.kind = constant:1",
            "grid.kind = effective", "grid.n = 64", "grid.T = 0.05",
            "grid.snapshots = 3",
            f"grid.table_csv = {tmp_path / 'run_effective.csv'}",
        ]) + "\n", name="solve.cfg")
        assert main(["solve", "--config", solve_cfg, "--out", str(tmp_path)]) == 0
        missing_cfg = write(tmp_path, "\n".join([
            "kernel.sigma = 0.5", "coefficient_a.kind = constant:1",
            "grid.kind = effective", "grid.n = 64", "grid.T = 0.05",
        ]) + "\n", name="missing.cfg")
        assert main(["solve", "--config", missing_cfg, "--out", str(tmp_path)]) == 2

    def test_unusable_table_is_invalid_input(self, tmp_path, capsys):
        from hjhom.effective import save_table
        from lemmas import tabulate
        # |p| <= 1 cannot cover the gradients of sin(2 pi x)
        narrow = tabulate(lambda x, p, l: (p * p - 1.0 - l, 0.0, "discount"), [0.0],
                          [-1.0, 0.0, 1.0], [-4.0, 0.0, 4.0], sigma=0.5)
        table_path = tmp_path / "narrow.csv"
        save_table(narrow, str(table_path))
        solve_cfg = write(tmp_path, "\n".join([
            "kernel.sigma = 0.5", "coefficient_a.kind = constant:1",
            "grid.kind = effective", "grid.n = 64", "grid.T = 0.05",
            f"grid.table_csv = {table_path}",
        ]) + "\n", name="solve.cfg")
        capsys.readouterr()
        assert main(["solve", "--config", solve_cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("invalid input: p = ")
        assert "outside the table hull" in err[0]
        # a repeated row is rejected while the table is read
        lines = table_path.read_text().splitlines(keepends=True)
        table_path.write_text("".join(lines + lines[-1:]))
        assert main(["solve", "--config", solve_cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "repeats the node" in err[0]
        # a file cut off partway through its last row
        table_path.write_text("".join(lines[:-1]) + ",".join(lines[-1].split(",")[:4]))
        assert main(["solve", "--config", solve_cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "expected 6 fields" in err[0]
        # the sweep's own table, filled over the same narrow box
        sweep_cfg = write(tmp_path, "\n".join([
            "kernel.sigma = 0.5", "coefficient_a.kind = constant:1",
            "sweep.eps_list = 1/4", "sweep.T = 0.02", "sweep.snapshots = 1",
            "cell.n = 64", "cell.deltas = 0.05,0.01", "cell.tol = 1e-7",
            "cell.table_p = -1,0,1", "cell.table_l = -4,4",
        ]) + "\n", name="sweep.cfg")
        assert main(["homogenize", "--config", sweep_cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.splitlines()[-1].startswith("invalid input: p = ")

    @staticmethod
    def _solve_on_a_saved_table(tmp_path, failed):
        """hjhom solve at sigma = 0.5 on a saved table of p^2 - 1 - l over p
        from -8 to 8 and l from -6 to 6, step 2, whose fill failed at the
        (p, l) nodes `failed`: the exit code, stderr and the files written."""
        from hjhom.effective import save_table
        from lemmas import tabulate
        from hjhom.parabolic import NumericalFailure

        def fill(x, p, l):
            if (p, l) in failed:
                raise NumericalFailure(f"node ({p:g}, {l:g})")
            return p * p - 1.0 - l, 0.0, "discount"

        table = tabulate(fill, [0.0], np.arange(-8.0, 9.0, 2.0), np.arange(-6.0, 7.0, 2.0),
                         sigma=0.5)
        save_table(table, str(tmp_path / "table.csv"))
        solve_cfg = write(tmp_path, "\n".join([
            "kernel.sigma = 0.5", "coefficient_a.kind = constant:1",
            "grid.kind = effective", "grid.n = 64", "grid.T = 0.05",
            f"grid.table_csv = {tmp_path / 'table.csv'}",
        ]) + "\n")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["solve", "--config", solve_cfg, "--out", str(tmp_path)])
        return code, err.getvalue(), sorted(f.name for f in tmp_path.iterdir())

    def test_failed_node_outside_the_reach_stops_the_solve(self, tmp_path):
        # the node (p, l) = (8, 6) lies beyond every gradient and nonlocal
        # value the solve reaches; the complete table serves it, and the
        # table with that one failed row stops it before its first step
        assert self._solve_on_a_saved_table(tmp_path, ())[0] == 0
        assert (tmp_path / "run_trajectory.csv").exists()
        (tmp_path / "failed").mkdir()
        code, err, files = self._solve_on_a_saved_table(tmp_path / "failed", ((8.0, 6.0),))
        assert code == 3
        assert err == ("numerical failure: a table with a failed node serves no solve; "
                       "1 of 63 nodes failed:\n  (x, p, l) = (0, 8, 6)\n")
        assert files == ["run.cfg", "table.csv"]

    def test_failed_node_reached_is_named(self, tmp_path):
        # the saved table keeps no reason: the failure names the node alone,
        # takes no step and writes no trajectory
        code, err, files = self._solve_on_a_saved_table(tmp_path, ((2.0, 0.0),))
        assert code == 3
        assert err == ("numerical failure: a table with a failed node serves no solve; "
                       "1 of 63 nodes failed:\n  (x, p, l) = (0, 2, 0)\n")
        assert "step" not in err and files == ["run.cfg", "table.csv"]

    def test_non_numeric_field_is_invalid_input(self, tmp_path, capsys):
        # named by file and line, as every malformed row is
        table = tmp_path / "table.csv"
        table.write_text("# sigma = 0.5\nx,p,l,H_bar,err,provenance\n0,0,0,abc,0,formula\n")
        path = write(tmp_path, "\n".join([
            "kernel.sigma = 0.5", "coefficient_a.kind = constant:1", "grid.kind = effective",
            "grid.n = 64", "grid.T = 0.01", f"grid.table_csv = {table}"]) + "\n")
        capsys.readouterr()
        assert main(["solve", "--config", path, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"invalid input: {table}:3: could not convert string to float: 'abc'"]

    @pytest.mark.parametrize("p", ["nan", "inf"])
    def test_non_finite_axis_value_is_invalid_input(self, tmp_path, capsys, p):
        # named by file and line, as a malformed row is
        table = tmp_path / "table.csv"
        table.write_text("# sigma = 0.5\nx,p,l,H_bar,err,provenance\n"
                         "0,0,0,0,0,formula\n"
                         f"0,{p},0,1,0,formula\n")
        path = write(tmp_path, "\n".join([
            "kernel.sigma = 0.5", "coefficient_a.kind = constant:1", "grid.kind = effective",
            "grid.n = 64", "grid.T = 0.01", f"grid.table_csv = {table}"]) + "\n")
        capsys.readouterr()
        assert main(["solve", "--config", path, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"invalid input: {table}:4: the axis values (x, p, l) = (0, {p}, 0) must be finite"]

    def test_homogenize_stops_on_a_table_with_failed_nodes(self, tmp_path, capsys):
        # one Newton step: every node stops on its budget.  The table is
        # saved, then the run stops with every node and its reason, before
        # any eps run
        path = write(tmp_path, "\n".join([
            "kernel.sigma = 1", "kernel.family = tilt", "cell.n = 32", "cell.max_steps = 1",
            "cell.table_p = 0,1", "cell.table_l = 0,1", "sweep.eps_list = 1/2",
            "sweep.T = 0.01"]) + "\n")
        capsys.readouterr()
        assert main(["homogenize", "--config", path, "--out", str(tmp_path)]) == 3
        out, err = capsys.readouterr()
        assert out.splitlines()[-1] == f"table (1, 2, 2) saved -> {tmp_path / 'run_effective.csv'}"
        err = err.splitlines()
        assert err[0] == ("numerical failure: a table with a failed node serves no solve; "
                          "4 of 4 nodes failed:")
        assert [re.match(r"  \(x, p, l\) = \(0, (\d), (\d)\): cell solve at \(x, p, l\) = "
                         r"\(0, \1, \2\) not converged: residual .* after 1 Newton steps, "
                         r"stopped by budget$", line).groups() for line in err[1:]] == [
            ("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")]
        assert sorted(f.name for f in tmp_path.iterdir()) == ["run.cfg", "run_effective.csv"]

    def test_table_without_rows_is_invalid_input(self, tmp_path, capsys):
        # the sigma line and the column header, and no data row
        table = tmp_path / "empty.csv"
        table.write_text("# sigma = 0.5\nx,p,l,H_bar,err,provenance\n")
        path = write(tmp_path, "\n".join([
            "kernel.sigma = 0.5", "coefficient_a.kind = constant:1", "grid.kind = effective",
            "grid.n = 64", "grid.T = 0.01", f"grid.table_csv = {table}"]) + "\n")
        capsys.readouterr()
        assert main(["solve", "--config", path, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"invalid input: {table} holds no table rows"]

    def test_table_built_for_another_model_is_invalid_input(self, tmp_path, capsys):
        # a sigma = 0.5, m = 2 table as `hjhom effective` writes it
        table_cfg = write(tmp_path, "\n".join([
            "kernel.sigma = 0.5", "coefficient_a.kind = constant:1",
            "hamiltonian.m = 2", "cell.n = 32", "cell.deltas = 0.1,0.05",
            "cell.table_p = -8,0,8", "cell.table_l = -6,6",
        ]) + "\n", name="table.cfg")
        assert main(["effective", "--config", table_cfg, "--out", str(tmp_path)]) == 0
        table = tmp_path / "run_effective.csv"
        solve = ["kernel.sigma = 0.5", "coefficient_a.kind = constant:1",
                 "grid.kind = effective", "grid.n = 64", "grid.T = 0.01",
                 "grid.u0 = zero", f"grid.table_csv = {table}"]
        for changed, named in (("kernel.sigma = 1", "sigma = 0.5, but the run has sigma = 1.0"),
                               ("hamiltonian.m = 3", "m = 2.0, but the run has m = 3.0"),
                               ("hamiltonian.f = one",
                                "model = one|cos_y, but the run has model = one|one")):
            path = write(tmp_path, "\n".join(solve + [changed]) + "\n", name="solve.cfg")
            capsys.readouterr()
            assert main(["solve", "--config", path, "--out", str(tmp_path)]) == 2
            err = capsys.readouterr().err.splitlines()
            assert err == [f"invalid input: {table} was built for {named}"]
        # the matching run solves from it
        path = write(tmp_path, "\n".join(solve) + "\n", name="solve.cfg")
        assert main(["solve", "--config", path, "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("command", ["homogenize", "solve", "effective", "cell"])
    def test_non_positive_a_rejected_above_order_one(self, tmp_path, capsys, command):
        path = write(tmp_path, "\n".join([
            "kernel.sigma = 1.5", "coefficient_a.kind = cos_y",
            "sweep.eps_list = 1/2,1/4", "sweep.T = 0.05", "sweep.snapshots = 3",
            "grid.kind = effective", "grid.n = 64", "grid.T = 0.02",
        ]) + "\n")
        capsys.readouterr()
        assert main([command, "--config", path, "--out", str(tmp_path), "--force"]) == 2
        err = [line for line in capsys.readouterr().err.splitlines()
               if line.startswith("invalid input: ")]
        assert err == ["invalid input: coefficient a must be strictly positive above "
                       "order one: a(x, y) = -1 at (x, y) = (0, 0.5)"]

    def _rejects_non_positive_a(self, tmp_path, capsys, command, sigma):
        path = write(tmp_path, "\n".join([
            f"kernel.sigma = {sigma}", "coefficient_a.kind = cos_y",
            "sweep.eps_list = 1/2,1/4", "sweep.T = 0.05", "sweep.snapshots = 3",
        ]) + "\n")
        out = tmp_path / "out"
        capsys.readouterr()
        assert main([command, "--config", path, "--out", str(out), "--force"]) == 2
        captured = capsys.readouterr()
        err = [line for line in captured.err.splitlines()
               if line.startswith("invalid input: ")]
        assert err == ["invalid input: coefficient a must be positive on the cell: "
                       "a(x, y) = -1 at (x, y) = (0, 0.5)"]
        assert "fill:" not in captured.out
        assert not list(tmp_path.rglob("*_effective.csv"))

    @pytest.mark.parametrize("command", ["effective", "homogenize", "cell"])
    def test_non_positive_a_rejected_below_order_one(self, tmp_path, capsys, command):
        # the cell formula refuses a, naming its least value, in every
        # command, before any table is filled or written
        self._rejects_non_positive_a(tmp_path, capsys, command, "0.5")

    @pytest.mark.parametrize("command", ["effective", "homogenize", "cell"])
    def test_non_positive_a_rejected_at_order_one(self, tmp_path, capsys, command):
        # the first node's cell solve refuses a the same way: the fill stops,
        # rather than marking every node failed, and no table is written
        self._rejects_non_positive_a(tmp_path, capsys, command, "1")

    def test_failed_audit_prints_its_report(self, tmp_path, capsys):
        # the gate prints the failed report's repr, the nested modulus report
        # included, byte for byte, then the command goes on under --force
        path = write(tmp_path, "\n".join([
            "kernel.sigma = 1", "kernel.family = tilt", "kernel.slope = 0.5",
            "coefficient_a.kind = cos_y", "cell.n = 64"]) + "\n")
        capsys.readouterr()
        assert main(["cell", "--config", path, "--out", str(tmp_path / "out"), "--force"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "audit failed: ellipticity: EllipticityReport(passed=False, a0=0.0, "
            "witness=(0.0, 0.5, -1.0), modulus_integral=ModulusIntegralReport("
            "value=0.15915494309189507, tail_estimate=5.7543199113012e-16, finite=True, "
            "detail='increments decayed'), messages=('coefficient a vanishes or is "
            "negative at (0.0, 0.5, -1.0)',))",
            "continuing despite failed audits (--force)",
            "invalid input: coefficient a must be positive on the cell: "
            "a(x, y) = -1 at (x, y) = (0, 0.5)"]

    def test_missing_config_is_io_failure(self, tmp_path):
        assert main(["audit", "--config", str(tmp_path / "none.cfg")]) == 4

    @pytest.mark.parametrize("command, lines, out_is_file, code, prefix", [
        ("cell", ["kernel.sigma = 0.5", "coefficient_a.kind = cos_y", "cell.n = 64",
                  "cell.deltas = 0.1,0.05"], False, 2, "invalid input: "),
        ("cell", ["kernel.sigma = 0.5", "coefficient_a.kind = constant:1", "cell.n = 64",
                  "cell.deltas = 0.1,0.05"], True, 4, "I/O failure: "),
        ("effective", ["kernel.sigma = 1.5", "cell.table_p = 0,1", "cell.table_l = -1,1"],
         True, 4, "I/O failure: "),
        ("solve", ["kernel.sigma = 0.5", "coefficient_a.kind = constant:1", "grid.n = 64",
                   "grid.eps = 1/4", "grid.T = 0.02", "grid.snapshots = 1"],
         True, 4, "I/O failure: "),
        ("homogenize", ["kernel.sigma = 1.5", "sweep.eps_list = 1/2", "sweep.T = 0.02",
                        "sweep.snapshots = 1"], True, 4, "I/O failure: "),
    ])
    def test_failures_map_to_exit_codes(self, tmp_path, capsys, command, lines,
                                        out_is_file, code, prefix):
        # a non-positive a the cell solver refuses past --force, or an --out
        # that names an existing regular file
        path = write(tmp_path, "\n".join(lines) + "\n")
        out = tmp_path / "out"
        if out_is_file:
            out.write_text("not a directory\n")
        capsys.readouterr()
        assert main([command, "--config", path, "--out", str(out), "--force"]) == code
        err = capsys.readouterr().err.splitlines()
        assert len([line for line in err if line.startswith(prefix)]) == 1
        assert not any(line.startswith("Traceback") for line in err)

    @pytest.mark.parametrize("sigma", ["0.5", "1"])
    @pytest.mark.parametrize("content, code, prefix", [
        (None, 4, "I/O failure: "), ("z,kbar\n0,1\n", 2, "invalid input: "),
        ("0\n1\n", 2, "invalid input: ")], ids=["missing", "not-numbers", "one-column"])
    def test_csv_kernel_read_failures_map_to_exit_codes(self, tmp_path, capsys, sigma,
                                                        content, code, prefix):
        # the kernel file is read on one path at every sigma, validation's
        # order-one audit included: one line, no traceback
        csv_path = tmp_path / "kernel.csv"
        if content is not None:
            csv_path.write_text(content)
        path = write(tmp_path, f"kernel.sigma = {sigma}\nkernel.family = csv\n"
                               f"kernel.csv_path = {csv_path}\n")
        capsys.readouterr()
        assert main(["audit", "--config", path]) == code
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(prefix)

    def test_effective_failed_nodes_exit_numerical(self, tmp_path, capsys):
        # one Newton step: every node stops on its budget at zero discount,
        # and is listed and saved as failed
        path = write(tmp_path, "\n".join([
            "kernel.sigma = 1", "kernel.family = tilt", "cell.n = 32", "cell.max_steps = 1",
            "cell.table_p = 0,1", "cell.table_l = 0,1"]) + "\n")
        capsys.readouterr()
        assert main(["effective", "--config", path, "--out", str(tmp_path)]) == 3
        out, err = capsys.readouterr()
        assert "fill: 4 nodes, 4 Newton steps, 0 warm-started" in out.splitlines()
        err = err.splitlines()
        assert err[0] == "some nodes failed to converge (marked 'failed'):"
        assert [re.match(r"  cell solve at \(x, p, l\) = \(0, (\d), (\d)\) not converged: "
                         r"residual .* after 1 Newton steps, stopped by budget$",
                         line).groups() for line in err[1:]] == [
            ("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")]
        from hjhom.effective import load_table
        table = load_table(str(tmp_path / "run_effective.csv"))
        assert np.all(table.provenance == "failed") and np.all(np.isnan(table.values))

    @pytest.mark.parametrize("sigma", ["1.1", "1.5"])
    def test_cell_above_order_one_is_the_closed_form(self, tmp_path, monkeypatch, sigma):
        # the cell problem is linear above order one: hjhom cell writes the
        # closed form's value, with spread 0, and no Newton solve runs
        import hjhom.fill
        from hjhom.hamiltonians import coefficient, model_bpm
        monkeypatch.setattr(hjhom.fill, "solve_ergodic_pair",
                            lambda *args, **kw: pytest.fail("a Newton solve ran"))
        path = write(tmp_path, f"kernel.sigma = {sigma}\ncell.p = 0.7\ncell.l = 0.3\n")
        assert main(["cell", "--config", path, "--out", str(tmp_path)]) == 0
        rows = [l for l in (tmp_path / "run_cell.csv").read_text().splitlines()
                if not l.startswith("#")]
        h_bar, spread = (float(v) for v in rows[1].split(",")[4:6])
        exact = float(ClosedForm(coefficient("two_plus_cos_y"),
                                 model_bpm("one", "cos_y", 2.0)).value(0.0, 0.7, 0.3))
        assert h_bar == exact and spread == 0.0

    @pytest.mark.parametrize("sigma", ["0.5", "1", "1.5"])
    @pytest.mark.parametrize("command", ["cell", "effective"])
    def test_cell_deltas_unread_at_and_above_order_one(self, tmp_path, sigma, command):
        # two runs apart only in cell.deltas write the same data rows; the
        # header echoes the configuration, so it differs in that one line
        data = []
        for deltas in ("0.1,0.05", "0.2,0.01,0.001"):
            path = write(tmp_path, "\n".join([
                f"kernel.sigma = {sigma}", "kernel.family = tilt", "cell.n = 32",
                "cell.p = 0.5", f"cell.deltas = {deltas}", "cell.table_p = 0,1",
                "cell.table_l = 0,1"]) + "\n")
            out = tmp_path / deltas
            assert main([command, "--config", path, "--out", str(out)]) == 0
            data.append([line for line in (out / f"run_{command}.csv").read_text()
                         .splitlines() if not line.startswith("#")])
        assert data[0] == data[1]

    def test_effective_builds_the_hamiltonian_once(self, tmp_path, monkeypatch):
        # while the configuration is validated; the run's model reuses it
        import hjhom.hamiltonians as hamiltonians
        calls = []
        real = hamiltonians.model_bpm
        monkeypatch.setattr(hamiltonians, "model_bpm",
                            lambda *args: calls.append(args) or real(*args))
        path = write(tmp_path, "kernel.sigma = 1.5\ncell.table_p = 0,1,2\n"
                               "cell.table_l = -1,0,1\n")
        assert main(["effective", "--config", path, "--out", str(tmp_path)]) == 0
        assert len(calls) == 1


class TestContinuationFill:
    """fill_table at order one solves each node's ergodic pair at zero
    discount, from the previous node's corrector where that beats zero's
    residual; a node that fails is marked failed and the next starts from
    zero.  The fill reads no discount list, and its record keeps each node's
    Newton steps and whether it started warm."""

    def _fill(self, tmp_path, lines, ps, ls):
        cfg = parse_config(write(tmp_path, "\n".join(lines) + "\n"))
        base = _cell_params(cfg, build_model(cfg))
        return (cfg, base) + fill_table(base, [0.0], ps, ls, _cell_config(cfg))

    @pytest.mark.parametrize("sigma", ["1"])
    def test_matches_the_ladder_in_fewer_steps(self, tmp_path, sigma):
        # the ladder's Richardson value 2 Hbar(delta / 2) - Hbar(delta) at
        # delta = 1e-3 removes its bias linear in delta
        nodes = (0.0, 0.5, 1.0)
        cfg, base, table, record = self._fill(tmp_path, [
            f"kernel.sigma = {sigma}", "coefficient_a.kind = two_plus_cos_y", "cell.n = 64"],
            nodes, nodes)
        ladder_steps = 0
        for i, p in enumerate(nodes):
            for k, l in enumerate(nodes):
                params = base._replace(p=p, l=l)
                sols = [vanishing_discount_sweep(params, deltas, _cell_config(cfg))
                        for deltas in (cfg["cell.deltas"], cfg["cell.deltas"] + (5e-4,))]
                ladder_steps += sum(rec[2] for rec in sols[0].residuals)
                value = table.values[0, i, k]
                assert abs(value - (2.0 * sols[1].H_bar - sols[0].H_bar)) <= 1e-8
                assert table.err[0, i, k] <= 2.0 * cfg["cell.tol"]
                assert table.provenance[0, i, k] == "ergodic"
        assert record.steps.shape == record.warm.shape == (1, 3, 3)
        assert record.warm.sum() > 0
        assert record.steps.sum() < ladder_steps

    def test_exact_column_stays_exact_in_no_steps(self, tmp_path):
        # a = 2 + cos(2 pi y) against H = |p|^2 - cos(2 pi y): at l = -1 the
        # zero corrector is exact, H_bar = 2 + p^2, whatever came before
        ps, ls = np.array([0.0, 0.5, 1.0]), np.array([-1.0, 0.0, 1.0])
        _, _, table, record = self._fill(tmp_path, [
            "kernel.sigma = 1", "kernel.family = tilt", "kernel.slope = 0.5",
            "coefficient_a.kind = two_plus_cos_y", "cell.n = 64"], ps, ls)
        for i, p in enumerate(ps):
            assert abs(table.values[0, i, 0] - (2.0 + p * p)) <= 1e-12
        assert np.all(record.steps[0, :, ls == -1.0] == 0)
        # the node before each exact one, (p, 1) of the previous line, was not exact
        assert record.steps[0, 0, 2] > 0 and record.steps[0, 1, 2] > 0

    def test_rerun_writes_identical_bytes(self, tmp_path, capsys):
        # each node starts from the previous node's corrector; a second run,
        # which finds the cell table already built, repeats every byte
        path = write(tmp_path, "\n".join([
            "kernel.sigma = 1", "kernel.family = tilt",
            "coefficient_a.kind = two_plus_cos_y", "cell.n = 32",
            "cell.table_p = 0,0.5,1", "cell.table_l = 0,0.5,1"]) + "\n")
        tables = []
        for run in ("first", "second"):
            assert main(["effective", "--config", path, "--out", str(tmp_path / run)]) == 0
            tables.append((tmp_path / run / "run_effective.csv").read_bytes())
        warm = [int(w) for w in re.findall(r"(\d+) warm-started", capsys.readouterr().out)]
        assert len(warm) == 2 and warm[0] == warm[1] > 0
        assert tables[0] == tables[1]

    def test_steps_of_a_raised_solve_are_counted(self, tmp_path, monkeypatch):
        # the second node's second Newton step is made non-finite: its solve
        # raises after two steps, the record keeps them, and the next node
        # starts from zero.  Every Newton step is one linear solve, so the
        # solves recount the total
        solves = []
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda *args: solves.append(1) or (
            np.full(args[1].shape, np.nan) if len(solves) == 6 else solve(*args)))
        cfg, base, table, record = self._fill(tmp_path, [
            "kernel.sigma = 1", "coefficient_a.kind = two_plus_cos_y", "cell.n = 64"],
            [0.0, 0.5, 1.0], [0.0])
        assert record.steps[0, :2, 0].tolist() == [4, 2]
        assert len(table.failures) == 1
        assert re.search(r"non-finite residual at step 2$", table.failures[0])
        assert table.provenance[0, :, 0].tolist() == ["ergodic", "failed", "ergodic"]
        assert not record.warm.any()
        assert record.steps.sum() == len(solves)
        params = base._replace(p=1.0, l=0.0)
        assert table.values[0, 2, 0] == solve_ergodic_pair(params, _cell_config(cfg)).H_bar

    def test_order_one_fill_takes_no_regularity(self, tmp_path, monkeypatch):
        # the corrector's osc, lip and flap_sup are hjhom cell's alone: a
        # table fill takes no fractional Laplacian of its correctors
        import hjhom.cell
        calls, flap = [], hjhom.cell.spectral_flap
        monkeypatch.setattr(hjhom.cell, "spectral_flap",
                            lambda *args: calls.append(1) or flap(*args))
        *_, record = self._fill(tmp_path, ["kernel.sigma = 1", "cell.n = 32"],
                                [0.0, 1.0], [0.0, 1.0])
        assert record.steps.size == 4 and record.steps.sum() > 0
        assert calls == []

    def test_fill_line_below_and_at_order_one_only(self, tmp_path, capsys):
        # the command prints its fill record's line, which is empty above order one
        for sigma, shown in (
                ("0.5", r"fill: cell formula on 2048 nodes, largest gap to 1024 nodes \S+ "
                        r"at \(x, p, l\) = \(0, [01], 0\)"),
                ("1", r"fill: 2 nodes, \d+ Newton steps, [01] warm-started"),
                ("1.5", None)):
            path = write(tmp_path, "\n".join([
                f"kernel.sigma = {sigma}", "cell.n = 32",
                "cell.table_p = 0,1", "cell.table_l = 0"]) + "\n")
            assert main(["effective", "--config", path, "--out", str(tmp_path)]) == 0
            lines = capsys.readouterr().out.splitlines()
            fill = [line for line in lines if line.startswith("fill: ")]
            cfg = parse_config(path)
            _, record = fill_table(_cell_params(cfg, build_model(cfg)), 0.0, [0.0, 1.0], 0.0,
                                   _cell_config(cfg))
            assert fill == ([record.line()] if shown else []) and (shown or record.line() == "")
            if shown:
                assert re.fullmatch(shown, fill[0])
            # per-node steps and warm starts only where nodes are Newton solves
            assert (record.steps is None) == (record.warm is None) == (sigma != "1")


class TestSolveCells:
    """hjhom.fill.solve_cells gives per node the table fill's Hbar and err,
    bit for bit, and its regime's direct corrector, made mean-free."""

    AXES = ([0.0, 0.25], [0.5, 2.0], [-0.5, 0.0])

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 1.5])
    def test_rows_are_the_regime_oracles(self, sigma):
        base = CellParams(0.0, 0.0, 0.0, sigma, coefficient("two_plus_cos_y"),
                          model_bpm("one", "cos_x_cos_y", 2.0))
        cfg = CellConfig(n=64)
        x, p, l = (g.ravel() for g in np.meshgrid(*self.AXES, indexing="ij"))
        values, err, reasons, psi = solve_cells(base, cfg, x, p, l)
        table, _ = fill_table(base, *self.AXES, cfg)
        assert values.tolist() == table.values.ravel().tolist()
        assert err.tolist() == table.err.ravel().tolist()
        assert reasons == [""] * x.size and psi.shape == (x.size, cfg.n)
        for i, node in enumerate(zip(x, p, l)):
            params = base._replace(x=node[0], p=node[1], l=node[2])
            if sigma != 1.0:        # and hjhom cell's one-node fill, bit for bit
                one, _ = fill_table(params, *node, cfg)
                assert (values[i], err[i]) == (one.values.item(), one.err.item())
            if sigma < 1.0:
                want = corrector_below_one(params, cfg.n)[:-1]
            elif sigma == 1.0:      # a cold solve; the chain starts warm
                want = solve_ergodic_pair(params, cfg).psi.values
            else:
                want = ClosedForm(base.a, base.ham).corrector(sigma, cfg.n, *node)[0]
            assert abs(np.mean(psi[i])) <= 1e-15
            tol = 1e-8 if sigma == 1.0 else 1e-14
            assert np.max(np.abs(psi[i] - (want - np.mean(want)))) <= tol

    def test_failed_order_one_node(self):
        # a spent budget fails the node: NaN value and corrector, inf err
        base = CellParams(0.0, 0.0, 0.0, 1.0, coefficient("two_plus_cos_y"),
                          model_bpm("one", "cos_y", 2.0))
        values, err, reasons, psi = solve_cells(base, CellConfig(n=32, max_steps=1),
                                                [0.0, 0.0], [0.5, 0.0], [0.0, -1.0])
        assert re.fullmatch(r"cell solve at \(x, p, l\) = \(0, 0.5, 0\) not converged: .*"
                            r"stopped by budget", reasons[0])
        assert np.isnan(values[0]) and err[0] == np.inf and np.all(np.isnan(psi[0]))
        # the exact node l = -1 needs no step
        assert reasons[1] == "" and values[1] == 2.0 and np.all(psi[1] == 0.0)


class TestSweepCorrectors:
    """hjhom homogenize writes the corrector ansatz's residual in every
    regime: below one from the cell formula's corrector, at order one from
    the ergodic pair at each coarse node."""

    @staticmethod
    def _sweep(tmp_path, sigma, l_step):
        path = write(tmp_path, "\n".join([
            f"kernel.sigma = {sigma}", "cell.n = 64", "cell.table_p = " + ",".join(
                str(p) for p in range(-8, 9)), "cell.table_l = " + ",".join(
                str(l) for l in range(-12, 13, l_step)), "sweep.eps_list = 1/4,1/8,1/16"]) + "\n")
        code = main(["homogenize", "--config", path, "--out", str(tmp_path)])
        body = [line.split(",") for line in (tmp_path / "run_sweep.csv").read_text()
                .splitlines() if not line.startswith("#")]
        return code, [dict(zip(body[0], map(float, row))) for row in body[1:]]

    @pytest.mark.parametrize("sigma, l_step", [("0.5", 1), ("1", 2)])
    def test_residual_finite_and_below_the_error(self, tmp_path, sigma, l_step):
        code, rows = self._sweep(tmp_path, sigma, l_step)
        assert code == 0 and len(rows) == 3
        for row in rows:
            assert 0.0 < row["corrector_residual"] < row["error"]

    def test_failed_corrector_node(self, tmp_path, capsys, monkeypatch):
        # the coarse node x = 1/2 fails its solve (the table's nodes all sit
        # at x = 0): every residual is NaN, the reason goes to stderr, the
        # CSVs are written and the exit code is 3
        import hjhom.fill
        from hjhom.parabolic import NumericalFailure
        real = hjhom.fill.solve_ergodic_pair

        def failing(params, *args, **kw):
            if params.x == 0.5:
                raise NumericalFailure("injected at x = 0.5", 2)
            return real(params, *args, **kw)

        monkeypatch.setattr(hjhom.fill, "solve_ergodic_pair", failing)
        capsys.readouterr()
        code, rows = self._sweep(tmp_path, "1", 2)
        assert code == 3
        assert capsys.readouterr().err.splitlines() == ["corrector: injected at x = 0.5"]
        assert all(np.isnan(row["corrector_residual"]) and np.isfinite(row["error"])
                   for row in rows)
        assert (tmp_path / "run_sweep_snapshots.csv").exists()


def _imported_by_the_cli(prefix: str) -> str:
    """The modules under prefix that a fresh `import hjhom.cli` loads, as printed."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(hjhom.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = ("import sys, hjhom.cli; "
            f"print(sorted(m for m in sys.modules if (m + '.').startswith({prefix + '.'!r})))")
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout.strip()


# scipy is a test dependency only; the Gauss rule is written out in
# hjhom.kernels, since numpy.polynomial adds about 1.3 MB to every command's
# peak resident set; ratios are parsed as int / int, not through fractions
# (which loads decimal); difflib loads only to suggest a key for an unknown one;
# records are NamedTuples or plain classes, since the methods @dataclass
# generates for the package's 25 records cost about 25 ms of every command's
# start without a bytecode cache
@pytest.mark.parametrize("prefix", ["scipy", "numpy.polynomial", "fractions", "decimal",
                                    "difflib", "dataclasses"])
def test_cli_imports_none_of(prefix):
    assert _imported_by_the_cli(prefix) == "[]"
