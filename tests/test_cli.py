import os
import re
import subprocess
import sys

import numpy as np
import pytest

import hjhom
from hjhom.cli import main
from hjhom.config import ConfigError, defaults, parse_config, parse_text


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
                      r"dt = (\S+), steps = (\d+), path = (\w+)\n", capsys.readouterr().out)
        assert float(m.group(1)) == pytest.approx(0.05, abs=1e-10)
        assert m.group(4) == "implicit"      # a(x, x / eps) = 2 + cos repeats every 16 nodes
        dt, steps = float(m.group(2)), int(m.group(3))   # dt is printed to 4 digits
        assert 0.05 * (1.0 - 1e-3) <= steps * dt <= 0.05 * (1.0 + 1e-3) + 5 * dt

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

    def test_cell_command_at_a_grid_size_not_a_power_of_two(self, tmp_path, capsys):
        # the regularity report takes spectral_flap of the corrector at cell.n
        path = write(tmp_path, "\n".join([
            "kernel.sigma = 0.5", "coefficient_a.kind = constant:1",
            "cell.n = 100", "cell.deltas = 0.1,0.05",
        ]) + "\n")
        assert main(["cell", "--config", path, "--out", str(tmp_path)]) == 0
        assert "invalid input" not in capsys.readouterr().err

    def test_cell_command_reports_unreached_steady_state(self, tmp_path, capsys):
        path = write(tmp_path, "\n".join([
            "kernel.sigma = 0.5", "coefficient_a.kind = constant:1",
            "cell.n = 64", "cell.deltas = 0.1,0.05", "cell.max_steps = 1",
        ]) + "\n")
        assert main(["cell", "--config", path, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "residual" in err
        assert "(x, p, l) = (0, 0, 0)" in err and "delta = 0.1:" in err
        assert "after 1 Newton steps, stopped by budget" in err

    def test_effective_command_and_reload(self, tmp_path):
        path = write(tmp_path, "\n".join([
            "kernel.sigma = 1.5",
            "cell.table_p = 0,1,2", "cell.table_l = -1,0,1",
        ]) + "\n")
        assert main(["effective", "--config", path, "--out", str(tmp_path)]) == 0
        from hjhom.effective import load_table, query
        table = load_table(str(tmp_path / "run_effective.csv"))
        assert query(table, 0.0, 1.0, 0.0) == pytest.approx(3.0 - np.sqrt(3.0), abs=1e-10)

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
        runs = re.findall(r"eps = \S+: n = (\d+), error = \S+, steps = (\d+), path = (\w+)\n",
                          capsys.readouterr().out)
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
        assert set(np.unique(table.provenance)) == {"discount"}
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
        from hjhom.effective import save_table, tabulate
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

    def test_failed_node_outside_the_reach_is_harmless(self, tmp_path):
        from hjhom.effective import save_table, tabulate
        from hjhom.parabolic import NumericalFailure

        def fill(p, l, fail_corner):
            if fail_corner and (p, l) == (8.0, 6.0):
                raise NumericalFailure("far corner")
            return p * p - 1.0 - l, 0.0, "discount"

        ps, ls = np.arange(-8.0, 9.0, 2.0), np.arange(-6.0, 7.0, 2.0)
        outputs = []
        for fail_corner in (False, True):
            table = tabulate(lambda x, p, l: fill(p, l, fail_corner), [0.0], ps, ls,
                             sigma=0.5)
            out = tmp_path / str(fail_corner)
            out.mkdir()
            save_table(table, str(out / "table.csv"))
            solve_cfg = write(out, "\n".join([
                "kernel.sigma = 0.5", "coefficient_a.kind = constant:1",
                "grid.kind = effective", "grid.n = 256", "grid.T = 0.02",
                "grid.snapshots = 2", f"grid.table_csv = {out / 'table.csv'}",
            ]) + "\n")
            assert main(["solve", "--config", solve_cfg, "--out", str(out)]) == 0
            rows = (out / "run_trajectory.csv").read_text().splitlines()
            outputs.append([line for line in rows if not line.startswith("#")])
        # the failed node lies beyond every gradient and nonlocal value reached
        assert outputs[0] == outputs[1]

    def test_failed_node_reached_is_named(self, tmp_path, capsys):
        from hjhom.effective import save_table, tabulate
        from hjhom.parabolic import NumericalFailure

        def fill(x, p, l):
            if (p, l) == (2.0, 0.0):
                raise NumericalFailure("node (2, 0)")
            return p * p - 1.0 - l, 0.0, "discount"

        table = tabulate(fill, [0.0], np.arange(-8.0, 9.0, 2.0), np.arange(-6.0, 7.0, 2.0),
                         sigma=0.5)
        save_table(table, str(tmp_path / "table.csv"))
        solve_cfg = write(tmp_path, "\n".join([
            "kernel.sigma = 0.5", "coefficient_a.kind = constant:1",
            "grid.kind = effective", "grid.n = 64", "grid.T = 0.05",
            f"grid.table_csv = {tmp_path / 'table.csv'}",
        ]) + "\n")
        capsys.readouterr()
        assert main(["solve", "--config", solve_cfg, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "numerical failure: at step 1, t = " in err
        assert "draws on the failed table node (x, p, l) = (0, 2, 0)" in err
        assert "the query (x, p, l) = (" in err

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

    @pytest.mark.parametrize("command", ["homogenize", "solve", "effective"])
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

    def test_effective_builds_the_hamiltonian_at_most_twice(self, tmp_path, monkeypatch):
        # once while the configuration is validated, once for the run's model
        import hjhom.hamiltonians as hamiltonians
        calls = []
        real = hamiltonians.model_bpm
        monkeypatch.setattr(hamiltonians, "model_bpm",
                            lambda *args: calls.append(args) or real(*args))
        path = write(tmp_path, "kernel.sigma = 1.5\ncell.table_p = 0,1,2\n"
                               "cell.table_l = -1,0,1\n")
        assert main(["effective", "--config", path, "--out", str(tmp_path)]) == 0
        assert 1 <= len(calls) <= 2


def test_cli_imports_no_scipy():
    # scipy is a test dependency only; the command line must start without it
    src = os.path.dirname(os.path.dirname(os.path.abspath(hjhom.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = ("import sys, hjhom.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
