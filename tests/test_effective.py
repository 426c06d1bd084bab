import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from conftest import formula_fill, patch_source, traced_peak_mb
import hjhom.effective
from hjhom.cell import CellConfig, CellParams, formula_below_one
from hjhom.effective import (_BLOCK_ROWS, CLOSED_FORM_NODES, ClosedForm, EffectiveTable,
                             TableCells, _weighted, audit_properties,
                             effective_source_from_table, load_table, query_many,
                             save_table)
from hjhom.grid import GridFunction
from hjhom.hamiltonians import HamiltonianSpec, coefficient, model_bpm
from hjhom.kernels import constant_kernel, periodized_weights, tilt_kernel
from hjhom.parabolic import (MonotoneScheme, NumericalFailure, ParabolicProblem,
                             SolverConfig, solve)
from lemmas import coefficient_scheme, tabulate, vanishing_discount_sweep

FIXTURES = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures"

WAVY = coefficient("two_plus_cos_y")
# positive and slow-variable dependent, unlike every built-in positive coefficient
X_DEPENDENT = lambda x, y: 2.0 + np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)


def closed_form_oracle(a, ham, x, p, l, nquad=4096):
    """The closed form at one (x, p, l), written out on nquad cell nodes:
    the oracle ClosedForm must match."""
    ys = np.arange(nquad) / nquad
    a_vals = np.asarray(a(np.full(nquad, float(x)), ys), dtype=float)
    if np.min(a_vals) <= 0.0:
        raise ValueError("coefficient a must be strictly positive")
    h_vals = np.asarray(ham.eval(np.full(nquad, float(x)), ys, np.full(nquad, float(p))),
                        dtype=float)
    A = 1.0 / float(np.mean(1.0 / a_vals))
    return A * (float(np.mean(h_vals / a_vals)) - float(l))


def closed_form(a, ham, x, p, l):
    """ClosedForm at one (x, p, l)."""
    return formula_fill(a, ham)(x, p, l)[0]


def _axis_locate_oracle(axis, q, name):
    if axis.size == 1:
        if np.any(np.abs(q - axis[0]) > 1e-9 * max(1.0, abs(axis[0]))):
            bad = float(q.ravel()[np.argmax(np.abs(q - axis[0]))])
            raise ValueError(f"{name} = {bad} outside the single-node axis; "
                             "enlarge the table box")
        z = np.zeros(q.shape, dtype=int)
        return z, z, np.zeros(q.shape)
    if np.any(q < axis[0] - 1e-12) or np.any(q > axis[-1] + 1e-12):
        bad = float(q.ravel()[np.argmax(np.maximum(axis[0] - q, q - axis[-1]))])
        raise ValueError(f"{name} = {bad} outside the table hull "
                         f"[{axis[0]}, {axis[-1]}]; enlarge the table box")
    i = np.clip(np.searchsorted(axis, q) - 1, 0, axis.size - 2)
    w = np.clip((q - axis[i]) / (axis[i + 1] - axis[i]), 0.0, 1.0)
    return i, i + 1, w


def query_oracle(table, x, p, l):
    """The straightforward 8-corner multilinear query: corner_sum reproduces
    it bit for bit, the per-cell bilinear query within rounding."""
    x, p, l = np.broadcast_arrays(np.asarray(x, float), np.asarray(p, float),
                                  np.asarray(l, float))
    ix0, ix1, wx = _axis_locate_oracle(table.xs, x, "x")
    ip0, ip1, wp = _axis_locate_oracle(table.ps, p, "p")
    il0, il1, wl = _axis_locate_oracle(table.ls, l, "l")
    v = table.values
    out = np.zeros(x.shape)
    for ix, cx in ((ix0, 1.0 - wx), (ix1, wx)):
        for ip, cp in ((ip0, 1.0 - wp), (ip1, wp)):
            for il, cl in ((il0, 1.0 - wl), (il1, wl)):
                c = cx * cp * cl
                out += np.where(c != 0.0, c * v[ix, ip, il], 0.0)
    return out


def corner_sum(table, x, p, l):
    """The exact 8-corner sum the table source used before its per-cell
    bilinear forms, kept beside its oracle: each axis located once, a
    single-node axis checked and skipped, corners of zero weight adding zero,
    summed from +0.0 in x, p, l order.  x None serves every query from the
    single x node unchecked."""
    axes = ((table.xs, x, "x", table.ps.size * table.ls.size),
            (table.ps, p, "p", table.ls.size), (table.ls, l, "l", 1))
    if x is None:
        if table.xs.size != 1:
            raise ValueError("x may be left out only for a single-node x axis")
        axes = axes[1:]
    queries = np.broadcast_arrays(*(np.asarray(q, float) for _, q, _, _ in axes))
    flat = np.zeros(queries[0].size, dtype=np.intp)
    corners = [(0, 1.0)]      # (flat offset, weight) per corner, in x, p, l order
    for (axis, _, name, stride), q in zip(axes, queries):
        i, _, w = _axis_locate_oracle(axis, q.ravel(), name)
        if axis.size == 1:
            continue
        flat += i * stride
        pair = ((0, 1.0 - w), (stride, w))
        corners = list(pair) if len(corners) == 1 else [
            (off + off_ax, c * c_ax) for off, c in corners for off_ax, c_ax in pair]
    values = table.values.ravel()
    out = np.zeros(flat.size)
    for off, c in corners:
        cv = values[off:].take(flat) * c
        # 0 * NaN is NaN: a zero weight must not fetch a failed node
        out += np.where(c == 0.0, 0.0, cv)
    return out.reshape(queries[0].shape)


def table_query(table, x, p, l):
    """The table source's query at (x, p, l), broadcast together, from the
    table's per-cell bilinear forms; x is checked on a single-node axis too."""
    x, p, l = np.broadcast_arrays(*(np.asarray(q, float) for q in (x, p, l)))
    located = _weighted(table.xs, x.ravel(), "x")
    return query_many(TableCells(table), None if table.xs.size == 1 else located, p, l)


@st.composite
def tables_and_queries(draw):
    """A complete table (every node finite, as a table source needs) with 1-4
    unevenly spaced nodes per axis and signed zeros, and queries at nodes, at
    the hull ends, inside the hull and inside the 1e-12 slack beyond either
    end."""
    axes = []
    for _ in range(3):
        size = draw(st.integers(1, 4))
        start = draw(st.floats(-4.0, 4.0))
        gaps = draw(st.lists(st.floats(0.05, 3.0), min_size=size - 1, max_size=size - 1))
        axes.append(start + np.concatenate([[0.0], np.cumsum(gaps)]))
    shape = tuple(a.size for a in axes)
    count = int(np.prod(shape))
    values = np.array(draw(st.lists(st.one_of(st.sampled_from([0.0, -0.0]),
                                              st.floats(-10.0, 10.0)),
                                    min_size=count, max_size=count))).reshape(shape)
    table = EffectiveTable(xs=axes[0], ps=axes[1], ls=axes[2], values=values,
                           err=np.zeros(shape),
                           provenance=np.full(shape, "discount", dtype=object), sigma=0.5)
    size = draw(st.integers(1, 12))
    queries = []
    for axis in axes:
        inside = st.floats(0.0, 1.0).map(lambda u, a=axis: a[0] + u * (a[-1] - a[0]))
        slack = st.tuples(st.booleans(), st.floats(1e-14, 9e-13)).map(
            lambda t, a=axis: a[0] - t[1] if t[0] else a[-1] + t[1])
        queries.append(np.array(draw(st.lists(
            st.one_of(st.sampled_from([float(v) for v in axis]), inside, slack),
            min_size=size, max_size=size))))
    return table, queries


class TestClosedForm:
    def test_constant_coefficient_reduction(self, eikonal_ham):
        # a constant in y: Hbar = mean_y H - a0 l, exactly
        a0 = 1.7
        a = coefficient(f"constant:{a0}")
        for p, l in ((0.0, 0.0), (1.0, 0.5), (2.0, -1.0)):
            got = closed_form(a, eikonal_ham, 0.0, p, l)
            assert got == pytest.approx(p ** 2 - a0 * l, abs=1e-12)

    def test_wavy_coefficient_value(self, eikonal_ham):
        # mean 1/(2+cos) = 1/sqrt3 and mean cos/(2+cos) = 1 - 2/sqrt3
        got = closed_form(WAVY, eikonal_ham, 0.0, 1.0, 0.0)
        assert got == pytest.approx(3.0 - np.sqrt(3.0), abs=1e-12)
        A = ClosedForm(WAVY, eikonal_ham).means(np.array([0.0]))[0]
        assert A[0] == pytest.approx(np.sqrt(3.0), abs=1e-12)

    def test_fields_are_the_coefficient_and_the_hamiltonian(self):
        assert ClosedForm._fields == ("a", "ham")

    @pytest.mark.parametrize("kernel, implicit", [(constant_kernel(1.5), True),
                                                  (tilt_kernel(1.5, 0.5), False)])
    def test_scheme_steps_as_coefficient_scheme_on_its_means(self, eikonal_ham, kernel,
                                                             implicit):
        n = 128
        xs = np.arange(n) / n
        table = periodized_weights(kernel, n)
        form = ClosedForm(WAVY, eikonal_ham)
        A, bbar, fbar = form.means(xs)
        means_ham = HamiltonianSpec(b=lambda x, y: bbar, f=lambda x, y: fbar, m=2.0,
                                    b_min=float(np.min(bbar)),
                                    f_sup=float(np.max(np.abs(fbar))), b0=1.0, C0=1.0,
                                    L=np.inf)
        got = form.scheme(xs, table)
        want = coefficient_scheme(1.0 / n, xs, xs, A, means_ham, table=table)
        assert got.implicit == want.implicit == implicit
        u = np.sin(2 * np.pi * xs)
        for k in range(20):
            diffs = got.fit_theta(u)
            want.fit_theta(u)
            dt = got.step_dt()
            assert dt == want.step_dt()
            if k % 5 == 4:
                dt *= 0.5        # a shortened step, as at a recorded time
            nxt = got.step(u, dt, diffs)
            assert np.array_equal(nxt, want.step(u, dt))
            u = nxt

    def test_affine_in_nonlocal_slot(self, eikonal_ham):
        base = closed_form(WAVY, eikonal_ham, 0.0, 1.0, 0.0)
        got = closed_form(WAVY, eikonal_ham, 0.0, 1.0, 1.0)
        assert got == pytest.approx(base - np.sqrt(3.0), abs=1e-12)
        assert got == pytest.approx(3.0 - 2.0 * np.sqrt(3.0), abs=1e-12)

    @pytest.mark.parametrize("a_spec", ["one", "two_plus_cos_y", "constant:1.7",
                                        "x_dependent"])
    def test_matches_scalar_oracle(self, eikonal_ham, a_spec):
        a, ham = X_DEPENDENT if a_spec == "x_dependent" else coefficient(a_spec), eikonal_ham
        X, P, L = np.meshgrid([0.0, 0.3, 0.7], np.linspace(-2.0, 2.0, 9),
                              [-1.0, 0.0, 0.5], indexing="ij")
        got = ClosedForm(a, ham).value(X, P, L)
        want = np.vectorize(lambda x, p, l: closed_form_oracle(a, ham, x, p, l))(X, P, L)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_positive_coefficient_required(self, eikonal_ham):
        with pytest.raises(ValueError):
            closed_form(coefficient("cos_y"), eikonal_ham, 0.0, 0.0, 0.0)

    @staticmethod
    def _one_block_means(form, x):
        """The oracle: every x node's cell means in one block, a, b and f
        broadcast to one row per node."""
        X, ys = x[:, None], np.arange(CLOSED_FORM_NODES) / CLOSED_FORM_NODES
        a_vals = np.broadcast_to(form.a(X, ys), (x.size, ys.size))
        A = 1.0 / np.mean(1.0 / a_vals, axis=1)
        return [A] + [A * np.mean(np.broadcast_to(part, a_vals.shape) / a_vals, axis=1)
                      for part in (form.ham.b(X, ys), form.ham.f(X, ys))]

    @pytest.mark.parametrize("f", ["cos_y", "cos_x_cos_y"])
    def test_blocked_means_match_one_block(self, f):
        form = ClosedForm(X_DEPENDENT, model_bpm("one", f, 2.0))
        x = np.arange(3 * _BLOCK_ROWS + 5) / (3 * _BLOCK_ROWS + 5)
        got = form.means(x)
        assert all(np.array_equal(g, w) for g, w in zip(got, self._one_block_means(form, x)))

    @pytest.mark.parametrize("spec", ["one", "two_plus_cos_y", "cos_y", "constant:1.7"])
    @pytest.mark.parametrize("size", [1, 8, 1024])
    def test_x_free_means_are_the_row_means(self, spec, size):
        # a, b and f read no x and return one row: its means serve every x
        positive = "two_plus_cos_y" if spec == "cos_y" else spec
        form = ClosedForm(coefficient(positive), model_bpm(positive, spec, 2.0))
        x = np.arange(size) / size
        got = form.means(x)
        assert all(g.shape == x.shape and np.array_equal(g, w)
                   for g, w in zip(got, self._one_block_means(form, x)))

    @pytest.mark.parametrize("size", [1, 8, 1024])
    def test_x_dependent_f_still_varies_in_x(self, size):
        # fbar = (sqrt 3 - 2) cos(2 pi x): f reads x, so every row is its own
        form = ClosedForm(WAVY, model_bpm("one", "cos_x_cos_y", 2.0))
        x = np.arange(size) / size
        got = form.means(x)
        assert all(np.array_equal(g, w) for g, w in zip(got, self._one_block_means(form, x)))
        assert np.max(np.abs(got[2] - (np.sqrt(3.0) - 2.0) * np.cos(2 * np.pi * x))) <= 1e-12

    def test_traced_peak_of_many_means(self, eikonal_ham):
        # one block of 256 x nodes peaked near 16 MB here
        form = ClosedForm(WAVY, eikonal_ham)
        assert traced_peak_mb(lambda: form.means(np.arange(1024) / 1024)) < 4.0


class TestTabulate:
    def test_single_node_equals_direct(self, eikonal_ham):
        table = tabulate(formula_fill(WAVY, eikonal_ham),
                         [0.0], [1.0], [0.0], sigma=1.5)
        assert table.values.shape == (1, 1, 1)
        assert table.values[0, 0, 0] == pytest.approx(3.0 - np.sqrt(3.0), abs=1e-12)

    def test_dual_provenance_agreement(self, eikonal_ham):
        # the closed form must agree with the discount limit within its spread
        cfg = CellConfig(n=128, tol=1e-9)

        def fill(x, p, l):
            params = CellParams(x=x, p=p, l=l, sigma=1.5, a=WAVY, ham=eikonal_ham)
            sol = vanishing_discount_sweep(params, (0.1, 0.05, 0.025), cfg)
            return sol.H_bar, sol.spread, "discount"

        solver_tab = tabulate(fill, [0.0], [0.0, 1.0], [-1.0, 1.0], sigma=1.5)
        formula_tab = tabulate(formula_fill(WAVY, eikonal_ham),
                               [0.0], [0.0, 1.0], [-1.0, 1.0], sigma=1.5)
        gap = np.abs(solver_tab.values - formula_tab.values)
        assert np.all(gap <= solver_tab.err + 1e-2)
        assert set(np.unique(solver_tab.provenance)) == {"discount"}
        assert set(np.unique(formula_tab.provenance)) == {"formula"}

    def test_failed_nodes_marked(self):
        def fill(x, p, l):
            if p > 0.5:
                raise ValueError("cannot do this node")
            return 1.0, 0.0, "formula"

        table = tabulate(fill, [0.0], [0.0, 1.0], [0.0], sigma=1.5)
        assert table.provenance[0, 0, 0] == "formula"
        assert table.provenance[0, 1, 0] == "failed"
        assert np.isnan(table.values[0, 1, 0])

    def test_source_names_every_failed_node(self, tmp_path):
        # a table with a failed node is no continuous Hbar: the source is
        # refused before any query, naming every failed node in x, p, l order
        # with the fill's reason, and without one once the table is reloaded
        def fill(x, p, l):
            if (p, l) in ((2.0, 0.0), (8.0, -6.0)):
                raise NumericalFailure(f"node ({p:g}, {l:g})")
            return p * p - 1.0 - l, 0.0, "discount"

        table = tabulate(fill, [0.0], np.arange(-8.0, 9.0, 2.0), np.arange(-6.0, 7.0, 2.0),
                         sigma=0.5)
        save_table(table, str(tmp_path / "table.csv"))
        head = "a table with a failed node serves no solve; 2 of 63 nodes failed:\n"
        for reloaded, reasons in ((table, (": node (2, 0)", ": node (8, -6)")),
                                  (load_table(str(tmp_path / "table.csv")), ("", ""))):
            with pytest.raises(NumericalFailure) as info:
                effective_source_from_table(reloaded)
            assert str(info.value) == head + "\n".join(
                f"  (x, p, l) = {node}{reason}"
                for node, reason in zip(("(0, 2, 0)", "(0, 8, -6)"), reasons))

    @pytest.mark.parametrize("l", [0.5, 1.5])
    def test_nan_query_beside_a_failed_node_is_non_finite(self, l):
        # the failed node stops the source, so no query reaches it; on the
        # complete table a NaN p takes the padded p cell and is NaN, not an
        # error: the solve's own check names the step of a non-finite state
        def fill(x, p, l, fail=True):
            if fail and (p, l) == (2.0, 2.0):
                raise NumericalFailure("node (2, 2)")
            return p * p - l, 0.0, "discount"

        axes = [0.0], [0.0, 1.0, 2.0], [0.0, 1.0, 2.0]
        with pytest.raises(NumericalFailure, match=re.escape("(x, p, l) = (0, 2, 2): node (2, 2)")):
            effective_source_from_table(tabulate(fill, *axes, sigma=0.5))
        table = tabulate(lambda x, p, l: fill(x, p, l, fail=False), *axes, sigma=0.5)
        got = effective_source_from_table(table).at(np.zeros(2))(np.array([0.5, np.nan]),
                                                                 np.array([0.5, l]))
        assert got[0] == 0.5 - 0.5 and np.isnan(got[1])     # p^2 linear between nodes


class TestQuery:
    @pytest.fixture()
    def table(self, eikonal_ham):
        return tabulate(formula_fill(WAVY, eikonal_ham), [0.0],
                        np.linspace(0.0, 2.0, 9), np.linspace(-1.0, 1.0, 5),
                        sigma=1.5)

    def test_nodes_exact(self, table):
        for j, p in enumerate(table.ps):
            for k, l in enumerate(table.ls):
                got = float(table_query(table, 0.0, float(p), float(l)))
                assert got == table.values[0, j, k]

    def test_affine_data_interpolated_exactly(self, table, eikonal_ham):
        # the closed form is affine in l, so interpolation along l is exact
        for l in (-0.31, 0.12, 0.77):
            got = float(table_query(table, 0.0, 1.0, l))
            assert got == pytest.approx(
                closed_form(WAVY, eikonal_ham, 0.0, 1.0, l), abs=1e-12)

    def test_midpoint_average(self, table):
        mid = float(table_query(table, 0.0, 1.0, 0.25))
        assert mid == pytest.approx(0.5 * (float(table_query(table, 0.0, 1.0, 0.0))
                                           + float(table_query(table, 0.0, 1.0, 0.5))),
                                    abs=1e-13)

    def test_out_of_hull_rejected(self, table):
        with pytest.raises(ValueError):
            table_query(table, 0.0, 3.0, 0.0)
        with pytest.raises(ValueError):
            table_query(table, 0.5, 1.0, 0.0)
        with pytest.raises(ValueError):
            table_query(table, np.zeros(3), np.array([0.0, 1.0, 2.5]), np.zeros(3))

    def test_off_hull_errors_name_the_worst_query(self, table):
        cases = [((0.0, 0.0, 0.0), (0.0, 2.5, -0.3), "p = 2.5 outside the table hull [0.0, 2.0]"),
                 ((0.0, 0.3, -0.1), (1.0, 1.0, 1.0), "x = 0.3 outside the single-node axis")]
        for x, p, msg in cases:
            for query_fn in (table_query, query_oracle):
                with pytest.raises(ValueError, match=re.escape(msg)):
                    query_fn(table, np.array(x), np.array(p), np.zeros(3))
        # a NaN query does not hide an off-hull one
        with pytest.raises(ValueError, match=r"p = 2\.5 outside"):
            table_query(table, np.zeros(2), np.array([np.nan, 2.5]), np.zeros(2))

    def test_failed_neighbour_of_a_node_is_skipped(self):
        # the node p = 1 is exact; its zero-weight neighbour p = 0 failed
        values = np.array([[[np.nan], [2.0], [3.0]]])
        table = EffectiveTable(xs=np.array([0.0]), ps=np.array([0.0, 1.0, 2.0]),
                               ls=np.array([0.0]), values=values,
                               err=np.zeros_like(values),
                               provenance=np.array([[["failed"], ["discount"],
                                                     ["discount"]]], dtype=object),
                               sigma=0.5)
        assert float(table_query(table, 0.0, 1.0, 0.0)) == 2.0
        got = table_query(table, np.zeros(2), np.array([1.0, 1.5]), np.zeros(2))
        assert np.array_equal(got, [2.0, 2.5])

    @given(tables_and_queries())
    @settings(max_examples=100, deadline=None)
    def test_matches_oracle(self, case):
        # bit for bit, signed zeros included
        table, (x, p, l) = case
        expected = query_oracle(table, x, p, l)

        def assert_same_bits(got):
            assert np.array_equal(got.view(np.int64), expected.view(np.int64))

        assert_same_bits(corner_sum(table, x, p, l))
        # x left out: the single x node serves every query, unchecked
        if table.xs.size == 1:
            assert_same_bits(corner_sum(table, None, p, l))
        else:
            with pytest.raises(ValueError, match="single-node x axis"):
                corner_sum(table, None, p, l)

    @given(tables_and_queries(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_bilinear_cells_match_oracle(self, case, data):
        # within 8 eps max|Hbar|; with subnormal values each rounding can
        # lose one smallest subnormal
        table, (x, p, l) = case
        expected = query_oracle(table, x, p, l)
        got = table_query(table, x, p, l)
        assert np.all(np.abs(got - expected) <= 8.0 * np.finfo(float).eps
                      * np.max(np.abs(table.values)) + 32.0 * np.finfo(float).smallest_subnormal)
        # every node exactly
        nodes = np.meshgrid(table.xs, table.ps, table.ls, indexing="ij")
        at_nodes = table_query(table, *nodes)
        assert np.array_equal(at_nodes, table.values)
        assert np.array_equal(at_nodes, query_oracle(table, *nodes))
        # one query moved off the hull along one axis: the same message
        axis_idx = data.draw(st.integers(0, 2))
        axis = (table.xs, table.ps, table.ls)[axis_idx]
        off = [q.copy() for q in (x, p, l)]
        off[axis_idx][data.draw(st.integers(0, x.size - 1))] = data.draw(st.one_of(
            st.floats(axis[-1] + 1e-6, axis[-1] + 5.0), st.floats(axis[0] - 5.0, axis[0] - 1e-6)))
        messages = []
        for query_fn in (table_query, query_oracle):
            with pytest.raises(ValueError) as info:
                query_fn(table, *off)
            messages.append(str(info.value))
        assert messages[0] == messages[1]

    def test_matches_oracle_on_a_solver_sized_query(self):
        # the shape `hjhom effective` writes with one cell.table_x, queried
        # as one explicit step of a 2048-node effective solve queries it
        rng = np.random.default_rng(0)
        ps, ls = np.linspace(-8.0, 8.0, 9), np.linspace(-6.0, 6.0, 7)
        values = rng.normal(size=(1, 9, 7))
        table = EffectiveTable(xs=np.array([0.0]), ps=ps, ls=ls, values=values,
                               err=np.zeros_like(values),
                               provenance=np.full(values.shape, "discount", dtype=object),
                               sigma=0.5)
        p = rng.uniform(-8.0, 8.0, 2048)
        l = rng.uniform(-6.0, 6.0, 2048)
        p[::7] = np.round(p[::7] / 2.0) * 2.0    # exact nodes
        l[::5] = np.round(l[::5] / 2.0) * 2.0
        x = np.zeros_like(p)
        assert np.array_equal(corner_sum(table, x, p, l), query_oracle(table, x, p, l))

    def test_monotone_data_interpolates_monotone(self, table):
        ls = np.linspace(-1.0, 1.0, 41)
        vals = table_query(table, np.zeros_like(ls), np.full_like(ls, 1.0), ls)
        assert np.all(np.diff(vals) <= 1e-12)


class TestTableSource:
    """The table source's scheme, queried through the per-cell bilinear
    forms, against the same scheme on the exact 8-corner sum."""

    N = 256

    @staticmethod
    def _table(failed=()):
        # shaped as the solve_from_table fixture: one x node, p step 2 over
        # [-8, 8], l step 2 over [-6, 6]; coercive in p, decreasing in l
        ps, ls = np.linspace(-8.0, 8.0, 9), np.linspace(-6.0, 6.0, 7)
        P, L = np.meshgrid(ps, ls, indexing="ij")
        values = (P ** 2 + 0.5 * np.cos(P) - (1.0 + 0.1 * np.sin(P)) * L)[None]
        for p, l in failed:
            values[0, ps == p, ls == l] = np.nan
        return EffectiveTable(xs=np.array([0.0]), ps=ps, ls=ls, values=values,
                              err=np.zeros_like(values),
                              provenance=np.where(np.isnan(values), "failed",
                                                  "discount").astype(object),
                              sigma=0.5)

    def test_steps_as_the_exact_sum(self):
        n, table = self.N, self._table()
        src = effective_source_from_table(table)
        xs, qtable = np.arange(n) / n, periodized_weights(constant_kernel(0.5), n)
        cells = src.scheme(xs, qtable)
        exact = MonotoneScheme(1.0 / n, lambda q, lv: query_oracle(table, 0.0, q, lv),
                               theta=src.theta, table=qtable, l_slope=src.l_slope)
        u = v = np.sin(2 * np.pi * xs)
        for _ in range(200):
            du, dv = cells.fit_theta(u), exact.fit_theta(v)
            assert cells.theta == exact.theta and cells.step_dt() == exact.step_dt()
            u, v = cells.step(u, cells.step_dt(), du), exact.step(v, exact.step_dt(), dv)
        assert np.max(np.abs(u - v)) <= 1e-12

    def test_failed_node_out_of_reach_stops_the_source(self):
        # the solve reaches |p| <= 2 pi and l in about [-4, 2.5], and no query
        # would land in a cell of the node (p, l) = (8, 6); still the table
        # builds no source, and so no scheme
        with pytest.raises(NumericalFailure, match=re.escape(
                "1 of 63 nodes failed:\n  (x, p, l) = (0, 8, 6)")):
            effective_source_from_table(self._table(failed=[(8.0, 6.0)]))


def _query_values(axis, size, draw):
    """size queries on one table axis: at nodes, inside the hull, in the
    1e-12 slack beyond either end, NaN, and now and then off the hull."""
    inside = st.floats(0.0, 1.0).map(lambda u: axis[0] + u * (axis[-1] - axis[0]))
    slack = st.tuples(st.booleans(), st.floats(1e-14, 9e-13)).map(
        lambda t: axis[0] - t[1] if t[0] else axis[-1] + t[1])
    off = st.one_of(st.floats(axis[-1] + 1e-6, axis[-1] + 5.0),
                    st.floats(axis[0] - 5.0, axis[0] - 1e-6))
    one = st.one_of(st.sampled_from([float(v) for v in axis]), inside, slack,
                    st.just(np.nan)) if draw(st.integers(0, 9)) else off
    return np.array(draw(st.lists(one, min_size=size, max_size=size)))


@st.composite
def memo_batches(draw):
    """A table, the x of one at(x) and a sequence of (p, l) batches for it.
    Each axis has 1-4 uniform or jittered nodes, every node finite.  After
    the first batch each query is kept, nudged within or
    across a table line, moved onto the line above it, or drawn afresh as
    _query_values draws it."""
    axes = []
    for _ in range(3):
        size, start = draw(st.integers(1, 4)), draw(st.floats(-4.0, 4.0))
        if draw(st.booleans()):
            axes.append(start + draw(st.floats(0.25, 2.0)) * np.arange(size))
        else:
            gaps = draw(st.lists(st.floats(0.05, 3.0), min_size=size - 1, max_size=size - 1))
            axes.append(start + np.concatenate([[0.0], np.cumsum(gaps)]))
    shape = tuple(a.size for a in axes)
    values = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=int(np.prod(shape)),
                                    max_size=int(np.prod(shape))))).reshape(shape)
    table = EffectiveTable(xs=axes[0], ps=axes[1], ls=axes[2], values=values,
                           err=np.zeros(shape),
                           provenance=np.full(shape, "discount", dtype=object), sigma=0.5)
    size = draw(st.integers(1, 10))
    x = np.clip(_query_values(axes[0], size, draw), axes[0][0], axes[0][-1])
    x[np.isnan(x)] = axes[0][0]
    batches = [tuple(_query_values(axis, size, draw) for axis in axes[1:])]
    for _ in range(draw(st.integers(1, 5))):
        batch = []
        for axis, prev in zip(axes[1:], batches[-1]):
            fresh = _query_values(axis, size, draw)
            nudged = np.clip(prev + np.array(draw(st.lists(
                st.floats(-2.0, 2.0), min_size=size, max_size=size))), axis[0], axis[-1])
            # the next node up: the line that closes the query's cell
            line = axis[np.minimum(np.searchsorted(axis, prev, side="right"), axis.size - 1)]
            pick = np.array(draw(st.lists(st.integers(0, 3), min_size=size, max_size=size)))
            batch.append(np.choose(pick, [prev, nudged, fresh, line]))
        batches.append(tuple(batch))
    return table, x, batches


def _memo_fault_case(l_next):
    """A one-node x axis and two batches of one query: (p, l) = (0.45, 0.1),
    then (0.45, l_next).  No bilinear form fits the table's values."""
    values = np.array([[[0.1, 0.7, -0.4], [1.3, -0.2, 0.9], [0.5, 1.1, 0.0]]])
    table = EffectiveTable(xs=np.array([0.0]), ps=np.array([0.0, 1.0, 2.0]),
                           ls=np.array([0.0, 0.3, 1.0]), values=values,
                           err=np.zeros_like(values),
                           provenance=np.full(values.shape, "formula", dtype=object), sigma=0.5)
    return table, np.array([0.0]), [(np.array([0.45]), np.array([l])) for l in (0.1, l_next)]


def _outcome(query, *args):
    """The query's values, or the type and text of the ValueError it raised."""
    try:
        return query(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def check_kept_cells(case):
    """The memo check: each batch's values or errors as the table source's
    query returns them are the stateless query's, bit for bit."""
    table, x, batches = case
    cells = TableCells(table)
    located = None if table.xs.size == 1 else _weighted(table.xs, x, "x")
    value = effective_source_from_table(table).at(x)
    for p, l in batches:
        got = _outcome(value, p, l)
        stateless = _outcome(query_many, cells, located, p, l)
        if isinstance(got, tuple):
            # as a fresh at(x), whose nodes have no cell yet, raises it
            assert got == stateless == _outcome(effective_source_from_table(table).at(x), p, l)
        else:
            assert got.view(np.int64).tolist() == stateless.view(np.int64).tolist()


class TestCellMemo:
    """The table source's query keeps each node's cell between calls; its
    values and errors are the stateless query's, bit for bit."""

    # no shrink phase: shrinking these list-heavy draws took minutes before a
    # failure was reported; the first failing example is reported as drawn.
    # Hypothesis mixes constants of the loaded local modules into its draws;
    # conftest.py loads them all before the first test, so the drawn
    # examples are the same in every selection.  The explicit ones fail a
    # memo that ignores the l bounds and one that closes the upper l bound.
    @given(memo_batches())
    @example(_memo_fault_case(0.8))     # crosses an l line at a fixed p
    @example(_memo_fault_case(0.3))     # lands on the line that closes its l cell
    @settings(derandomize=True, max_examples=100, deadline=None,
              phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target))
    def test_kept_cells_give_the_stateless_values(self, case):
        check_kept_cells(case)

    @pytest.mark.parametrize("old, new, l_next", [
        # the l bounds ignored: a node that crosses an l line keeps its cell
        ("moved = (~(inside[0] & inside[1])).nonzero()[0]",
         "moved = (~inside[0]).nonzero()[0]", 0.8),
        # the upper l bound closed: a node on the line keeps the cell below it
        ("inside = (b[:2] <= q) & (q < b[2:])",
         "inside = (b[:2] <= q) & (q < b[2:]) | (q == b[2:]) & [[False], [True]]", 0.3),
    ], ids=["l-bounds-ignored", "upper-l-bound-closed"])
    def test_the_check_catches_a_memo_fault(self, monkeypatch, old, new, l_next):
        # the check passes on the example, then fails once the table source's
        # query holds the fault (the stateless oracle keeps this module's import)
        check_kept_cells(_memo_fault_case(l_next))
        patch_source(monkeypatch, hjhom.effective, "query_many", old, new)
        with pytest.raises(AssertionError):
            check_kept_cells(_memo_fault_case(l_next))

    @staticmethod
    def _table(nx):
        ps, ls = np.linspace(-8.0, 8.0, 9), np.linspace(-6.0, 6.0, 7)
        xs = np.linspace(0.0, 1.0, nx)
        X, P, L = np.meshgrid(xs, ps, ls, indexing="ij")
        values = P ** 2 - (1.0 + 0.1 * np.sin(P) + X) * L
        return EffectiveTable(xs=xs, ps=ps, ls=ls, values=values, err=np.zeros_like(values),
                              provenance=np.full(values.shape, "discount", dtype=object),
                              sigma=0.5)

    @pytest.mark.parametrize("nx", [1, 3])
    def test_relocates_only_the_nodes_that_crossed_a_line(self, nx):
        rng = np.random.default_rng(nx)
        n, k = 64, 5
        # off the nodes, a step 2 below the top p and l cells
        p = rng.uniform(-7.9, 3.9, n)
        l = rng.uniform(-5.9, 1.9, n)
        value = effective_source_from_table(self._table(nx)).at(rng.uniform(0.0, 1.0, n))
        memo = value.memo
        value(p, l)
        assert memo.relocated == n
        value(p, l)
        assert memo.relocated == n
        # moved within the cell: nothing relocated
        value(p + 1e-3, l - 1e-3)
        assert memo.relocated == n
        # k nodes each cross one p line, k one l line, and two land on the
        # line that closes their p or l cell, which opens the next cell
        p2, l2 = p.copy(), l.copy()
        p2[:k] += 2.0
        l2[k:2 * k] += 2.0
        p2[2 * k] = 2.0 * np.floor(p2[2 * k] / 2.0) + 2.0
        l2[2 * k + 1] = 2.0 * np.floor(l2[2 * k + 1] / 2.0) + 2.0
        value(p2, l2)
        assert memo.relocated == n + 2 * k + 2
        # on the last p node (a padded cell), in the slack below the first l
        # node and at a NaN p: located at every call
        p2[-3:], l2[-3:] = [8.0, 0.5, np.nan], [0.5, -6.0 - 1e-13, 5.0]
        for calls in (1, 2, 3):
            value(p2, l2)
            assert memo.relocated == n + 2 * k + 2 + 3 * calls

    def test_solve_equals_the_stateless_solve(self, eikonal_ham):
        # sigma = 0.5 from a formula-filled table: the scheme whose queries
        # keep their cells steps bit for bit as one whose queries do not
        n = 256
        ps, ls = np.linspace(-8.0, 8.0, 9), np.linspace(-6.0, 6.0, 7)
        values = formula_below_one(WAVY, eikonal_ham, 0.0, ps[:, None], ls[None, :])[None]
        table = EffectiveTable(xs=np.array([0.0]), ps=ps, ls=ls, values=values,
                               err=np.zeros_like(values),
                               provenance=np.full(values.shape, "formula", dtype=object),
                               sigma=0.5)
        src, cells = effective_source_from_table(table), TableCells(table)
        u0 = GridFunction.from_callable(lambda x: np.sin(2 * np.pi * x), n)
        qtable = periodized_weights(constant_kernel(0.5), n)
        kept = src.scheme(u0.nodes(), qtable)
        bare = MonotoneScheme(1.0 / n, lambda q, lv: query_many(cells, None, q, lv),
                              theta=src.theta, table=qtable, l_slope=src.l_slope)
        runs = [solve(ParabolicProblem(scheme, u0, 0.1), SolverConfig(snapshots=4))
                for scheme in (kept, bare)]
        assert runs[0].steps == runs[1].steps and runs[0].times.tolist() == runs[1].times.tolist()
        for a, b in zip(runs[0].snapshots, runs[1].snapshots):
            assert a.values.tobytes() == b.values.tobytes()
        # and the kept cells spared most of the locating
        assert kept.ham.memo.relocated < 0.1 * runs[0].steps * n


def theta_oracle(table, lo, hi):
    """Largest |dHbar/dp| over the p cells that meet [lo, hi].  [lo, hi] is
    first clamped to the hull: a query in the slack beyond an end takes the
    end cell."""
    lo, hi = (min(max(v, table.ps[0]), table.ps[-1]) for v in (lo, hi))
    d = np.abs(np.diff(table.values, axis=1) / np.diff(table.ps)[None, :, None])
    best = 0.0
    for k in range(table.ps.size - 1):
        if table.ps[k + 1] >= lo and table.ps[k] <= hi:
            best = max(best, float(np.max(d[:, k, :])))
    return best


class TestSlopeBounds:
    @given(tables_and_queries())
    @settings(max_examples=100, deadline=None)
    def test_theta_matches_oracle_below_the_table_bound(self, case):
        table, (_, p, _) = case
        theta = effective_source_from_table(table).theta
        bound = float(np.max(table.p_cell_slopes(), initial=0.0))
        assert bound == theta_oracle(table, -np.inf, np.inf)
        assert theta(-np.inf, np.inf) == theta(table.ps[0], table.ps[-1]) == bound
        for lo, hi in zip(p, p[::-1]):
            lo, hi = min(lo, hi), max(lo, hi)
            assert theta(lo, hi) == theta_oracle(table, lo, hi) <= bound

    def test_nan_node_never_lowers_theta(self):
        # p^2 on p = -3 .. 3: cell slopes 5, 3, 1, 1, 3, 5.  A NaN at p = 0
        # would leave its two cells no slope: the source refuses that table,
        # so no theta is formed from it
        ps = np.linspace(-3.0, 3.0, 7)
        intact, broken = (EffectiveTable(xs=[0.0], ps=ps, ls=[0.0], values=v[None, :, None],
                                         err=np.zeros((1, 7, 1)),
                                         provenance=np.full((1, 7, 1), "discount", dtype=object),
                                         sigma=0.5)
                          for v in (ps ** 2, np.where(ps == 0.0, np.nan, ps ** 2)))
        assert np.array_equal(intact.p_cell_slopes(), [5.0, 3.0, 1.0, 1.0, 3.0, 5.0])
        theta = effective_source_from_table(intact).theta
        assert theta(-0.5, 0.5) == 1.0 and theta(-3.0, 3.0) == 5.0
        with pytest.raises(NumericalFailure, match=re.escape("1 of 7 nodes failed:\n"
                                                             "  (x, p, l) = (0, 0, 0)")):
            effective_source_from_table(broken)


class TestPropertyAudit:
    def test_formula_table_clean(self, eikonal_ham):
        table = tabulate(formula_fill(WAVY, eikonal_ham), [0.0],
                         np.linspace(0.0, 2.0, 9), np.linspace(-1.0, 1.0, 5),
                         sigma=1.5)
        audit = audit_properties(table, b0=1.0, C=1.0, a_sup=3.0, m=2.0)
        assert audit.passed
        assert audit.monotone_violations == 0
        assert audit.coercivity_margin >= 0.0
        # affine dependence on l with slope -sqrt3: the l-constant is sqrt3
        assert audit.C_l == pytest.approx(np.sqrt(3.0), abs=1e-10)

    def test_constant_coefficient_slice_affine(self, eikonal_ham):
        a0 = 2.0
        fill = formula_fill(coefficient(f"constant:{a0}"), eikonal_ham)
        table = tabulate(fill, [0.0], [1.0], np.linspace(-1.0, 1.0, 5), sigma=1.5)
        diffs = np.diff(table.values[0, 0, :]) / np.diff(table.ls)
        assert np.max(np.abs(diffs + a0)) <= 1e-12

    def test_violation_detected(self):
        values = np.zeros((1, 1, 3))
        values[0, 0] = [0.0, 0.1, 0.0]  # increases along l
        table = EffectiveTable(xs=np.array([0.0]), ps=np.array([0.0]),
                               ls=np.array([-1.0, 0.0, 1.0]), values=values,
                               err=np.zeros_like(values),
                               provenance=np.full(values.shape, "formula", dtype=object),
                               sigma=1.5)
        audit = audit_properties(table, b0=1.0, C=1.0, a_sup=1.0, m=2.0)
        assert audit.monotone_violations == 1
        assert not audit.passed

    @settings(max_examples=60, deadline=None)
    @given(tables_and_queries(), st.sampled_from([0.5, 1.5]), st.sampled_from([1.5, 2.0, 3.0]),
           st.lists(st.booleans(), min_size=64, max_size=64))
    def test_continuity_constants_match_pair_loop(self, case, sigma, m, failed):
        # oracle: one adjacent pair of nodes at a time, NaN (failed) nodes
        # skipped, as `hjhom effective` audits a table with failed nodes
        values = case[0].values.copy()
        values[np.array(failed[:values.size]).reshape(values.shape)] = np.nan
        table = EffectiveTable(**{**vars(case[0]), "sigma": sigma, "values": values})
        v = table.values
        P = np.abs(table.ps)[None, :, None]
        L = np.abs(table.ls)[None, None, :]

        def pair_loop(ax, axis_idx, n_exp):
            best = 0.0
            diffs = np.abs(np.diff(v, axis=axis_idx))
            for t in range(ax.size - 1):
                sl = [slice(None)] * 3
                sl[axis_idx] = slice(t, t + 2)
                Pp = np.max(np.broadcast_to(P, v.shape)[tuple(sl)], axis=axis_idx)
                Ll = np.max(np.broadcast_to(L, v.shape)[tuple(sl)], axis=axis_idx)
                w = (1.0 + Ll + Pp ** m) ** n_exp
                dv = np.take(diffs, t, axis=axis_idx)
                ok = np.isfinite(dv)
                if np.any(ok):
                    best = max(best, float(np.max(dv[ok] / (abs(ax[t + 1] - ax[t]) * w[ok]))))
            return best

        n1, n2 = (m, m - 1.0) if sigma >= 1.0 else (1.0, 1.0)
        audit = audit_properties(table, b0=1.0, C=1.0, a_sup=1.0, m=m)
        assert audit.C_l == pair_loop(table.ls, 2, 0.0)
        assert audit.C_x == pair_loop(table.xs, 0, n1)
        assert audit.C_p == pair_loop(table.ps, 1, n2)


class TestPersistence:
    def test_round_trip(self, tmp_path, eikonal_ham):
        table = tabulate(formula_fill(WAVY, eikonal_ham), [0.0],
                         np.linspace(0.0, 2.0, 5), np.linspace(-1.0, 1.0, 3),
                         sigma=1.5, meta={"model": "demo"})
        path = tmp_path / "table.csv"
        save_table(table, str(path), config_lines=["# kernel.sigma = 1.5"])
        loaded = load_table(str(path))
        assert "kernel.sigma" not in loaded.meta  # config echo is not metadata
        assert loaded.sigma == table.sigma
        assert np.array_equal(loaded.xs, table.xs)
        assert np.array_equal(loaded.ps, table.ps)
        assert np.array_equal(loaded.ls, table.ls)
        assert np.array_equal(loaded.values, table.values)
        assert np.array_equal(loaded.provenance.astype(str),
                              table.provenance.astype(str))
        assert loaded.meta["model"] == "demo"
        again = tmp_path / "again.csv"
        save_table(loaded, str(again), config_lines=["# kernel.sigma = 1.5"])
        assert again.read_bytes() == path.read_bytes()

    def test_saved_discount_labels_round_trip(self, tmp_path):
        # tables saved before the order-one label became "ergodic" carry
        # "discount": load_table keeps the label as it reads it, and a resave
        # writes the same data rows
        fixture = FIXTURES / "solve_table.csv"
        table = load_table(str(fixture))
        assert table.values.size == 63
        assert set(np.unique(table.provenance)) == {"discount"}
        path = tmp_path / "resaved.csv"
        save_table(table, str(path))
        assert np.array_equal(load_table(str(path)).provenance, table.provenance)
        rows = [[line for line in file.read_text().splitlines() if not line.startswith("#")]
                for file in (fixture, path)]
        assert rows[0] == rows[1] and sum(row.endswith(",discount") for row in rows[1]) == 63

    def test_repeated_and_missing_nodes_rejected(self, tmp_path, eikonal_ham):
        table = tabulate(formula_fill(WAVY, eikonal_ham), [0.0],
                         np.linspace(0.0, 2.0, 3), [-1.0, 1.0], sigma=1.5)
        path = tmp_path / "table.csv"
        save_table(table, str(path))
        lines = path.read_text().splitlines(keepends=True)
        repeated = tmp_path / "repeated.csv"
        repeated.write_text("".join(lines + lines[-1:]))
        with pytest.raises(ValueError, match=f"{len(lines) + 1}: repeats the node"):
            load_table(str(repeated))
        truncated = tmp_path / "truncated.csv"
        truncated.write_text("".join(lines[:-1]))
        with pytest.raises(ValueError, match=r"no row for the node .* = \(0.0, 2.0, 1.0\)"):
            load_table(str(truncated))
        cut_mid_row = tmp_path / "cut_mid_row.csv"
        cut_mid_row.write_text("".join(lines[:-1]) + ",".join(lines[-1].split(",")[:4]))
        with pytest.raises(ValueError, match=f"{len(lines)}: expected 6 fields"):
            load_table(str(cut_mid_row))
        not_a_number = tmp_path / "not_a_number.csv"
        x0, rest = lines[-1].split(",", 1)
        not_a_number.write_text("".join(lines[:-1]) + "abc," + rest)
        with pytest.raises(ValueError, match=f"^{re.escape(str(not_a_number))}:{len(lines)}: "
                                             f"could not convert string to float: 'abc'$"):
            load_table(str(not_a_number))

    def test_table_without_rows_rejected(self, tmp_path, eikonal_ham):
        # a saved table cut after its header: the sigma line and the column names
        table = tabulate(formula_fill(WAVY, eikonal_ham), [0.0], [0.0, 1.0], [0.0], sigma=1.5)
        path = tmp_path / "table.csv"
        save_table(table, str(path))
        header = [line for line in path.read_text().splitlines(keepends=True)
                  if line.startswith("#") or line.startswith("x,")]
        path.write_text("".join(header))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))} holds no table rows$"):
            load_table(str(path))
