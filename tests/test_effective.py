import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import formula_fill
from hjhom.cell import CellConfig, CellParams, vanishing_discount_sweep
from hjhom.effective import (ClosedForm, EffectiveTable, audit_properties,
                             effective_source_from_formula, effective_source_from_table,
                             load_table, query, query_many, save_table, tabulate)
from hjhom.hamiltonians import HamiltonianSpec, PowerForm, coefficient, model_bpm
from hjhom.kernels import constant_kernel, periodized_weights, tilt_kernel
from hjhom.parabolic import NumericalFailure, coefficient_scheme

WAVY = coefficient("two_plus_cos_y")
# positive and slow-variable dependent, unlike every built-in positive coefficient
X_DEPENDENT = lambda x, y: 2.0 + np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)


def closed_form_oracle(a, ham, x, p, l, nquad=4096):
    """The closed form at one (x, p, l), written out on nquad cell nodes:
    the oracle effective_source_from_formula must match."""
    ys = np.arange(nquad) / nquad
    a_vals = np.asarray(a(np.full(nquad, float(x)), ys), dtype=float)
    if np.min(a_vals) <= 0.0:
        raise ValueError("coefficient a must be strictly positive")
    h_vals = np.asarray(ham.eval(np.full(nquad, float(x)), ys, np.full(nquad, float(p))),
                        dtype=float)
    A = 1.0 / float(np.mean(1.0 / a_vals))
    return A * (float(np.mean(h_vals / a_vals)) - float(l))


def closed_form(a, ham, x, p, l):
    """effective_source_from_formula at one (x, p, l)."""
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
    """The straightforward 8-corner multilinear query that query_many must
    reproduce bit for bit."""
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


@st.composite
def tables_and_queries(draw):
    """A table with 1-4 unevenly spaced nodes per axis, random failed (NaN)
    nodes and signed zeros, and queries at nodes, at the hull ends, inside
    the hull and inside the 1e-12 slack beyond either end."""
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
    failed = np.array(draw(st.lists(st.booleans(), min_size=count,
                                    max_size=count))).reshape(shape)
    values[failed] = np.nan
    table = EffectiveTable(xs=axes[0], ps=axes[1], ls=axes[2], values=values,
                           err=np.zeros(shape),
                           provenance=np.where(failed, "failed", "discount").astype(object),
                           sigma=0.5)
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
        A = effective_source_from_formula(WAVY, eikonal_ham).means(np.array([0.0]))[0]
        assert A[0] == pytest.approx(np.sqrt(3.0), abs=1e-12)

    def test_fields_are_the_coefficient_and_the_hamiltonian(self):
        assert tuple(f.name for f in fields(ClosedForm)) == ("a", "ham")

    @pytest.mark.parametrize("kernel, implicit", [(constant_kernel(1.5), True),
                                                  (tilt_kernel(1.5, 0.5), False)])
    def test_scheme_steps_as_coefficient_scheme_on_its_means(self, eikonal_ham, kernel,
                                                             implicit):
        n, p_range = 128, 4.0
        xs = np.arange(n) / n
        table = periodized_weights(kernel, n)
        form = effective_source_from_formula(WAVY, eikonal_ham)
        A, bbar, fbar = form.means(xs)
        pf = PowerForm(b=lambda x, y: bbar, f=lambda x, y: fbar, m=2.0,
                       b_min=float(np.min(bbar)), f_sup=float(np.max(np.abs(fbar))))
        means_ham = HamiltonianSpec(eval=lambda x, y, p: bbar * np.abs(p) ** 2.0 - fbar,
                                    m=2.0, b0=1.0, C0=1.0, power_form=pf)
        got = form.scheme(xs, table, p_range)
        want = coefficient_scheme(1.0 / n, xs, xs, A, means_ham, p_range, table=table)
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

    @pytest.mark.parametrize("power_form", [True, False])
    @pytest.mark.parametrize("a_spec", ["one", "two_plus_cos_y", "constant:1.7",
                                        "x_dependent"])
    def test_matches_scalar_oracle(self, eikonal_ham, a_spec, power_form):
        a = X_DEPENDENT if a_spec == "x_dependent" else coefficient(a_spec)
        ham = eikonal_ham if power_form else replace(eikonal_ham, power_form=None)
        X, P, L = np.meshgrid([0.0, 0.3, 0.7], np.linspace(-2.0, 2.0, 9),
                              [-1.0, 0.0, 0.5], indexing="ij")
        got = effective_source_from_formula(a, ham).value(X, P, L)
        want = np.vectorize(lambda x, p, l: closed_form_oracle(a, ham, x, p, l))(X, P, L)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_positive_coefficient_required(self, eikonal_ham):
        with pytest.raises(ValueError):
            closed_form(coefficient("cos_y"), eikonal_ham, 0.0, 0.0, 0.0)


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

    def test_source_names_the_failed_node_a_query_draws_on(self):
        def fill(x, p, l):
            if (p, l) == (2.0, 0.0):
                raise NumericalFailure("node (2, 0)")
            return p * p - 1.0 - l, 0.0, "discount"

        table = tabulate(fill, [0.0], np.arange(-8.0, 9.0, 2.0), np.arange(-6.0, 7.0, 2.0),
                         sigma=0.5)
        value = effective_source_from_table(table).value
        xs = np.array([0.25, 0.5, 0.75])
        # p = 4 and l = 0 sit on nodes: the failed node's corners have zero weight
        assert np.array_equal(value(xs, np.array([0.0, 4.0, -3.0]), np.zeros(3)),
                              np.array([-1.0, 15.0, 9.0]))
        with pytest.raises(NumericalFailure, match=re.escape(
                "the query (x, p, l) = (0.5, 1, 0.5) draws on the failed table node "
                "(x, p, l) = (0, 2, 0)")):
            value(xs, np.array([0.0, 1.0, 3.0]), np.array([0.0, 0.5, 0.0]))


class TestQuery:
    @pytest.fixture()
    def table(self, eikonal_ham):
        return tabulate(formula_fill(WAVY, eikonal_ham), [0.0],
                        np.linspace(0.0, 2.0, 9), np.linspace(-1.0, 1.0, 5),
                        sigma=1.5)

    def test_nodes_exact(self, table):
        for j, p in enumerate(table.ps):
            for k, l in enumerate(table.ls):
                assert query(table, 0.0, float(p), float(l)) == table.values[0, j, k]

    def test_affine_data_interpolated_exactly(self, table, eikonal_ham):
        # the closed form is affine in l, so interpolation along l is exact
        for l in (-0.31, 0.12, 0.77):
            got = query(table, 0.0, 1.0, l)
            assert got == pytest.approx(
                closed_form(WAVY, eikonal_ham, 0.0, 1.0, l), abs=1e-12)

    def test_midpoint_average(self, table):
        mid = query(table, 0.0, 1.0, 0.25)
        assert mid == pytest.approx(0.5 * (query(table, 0.0, 1.0, 0.0)
                                           + query(table, 0.0, 1.0, 0.5)), abs=1e-13)

    def test_out_of_hull_rejected(self, table):
        with pytest.raises(ValueError):
            query(table, 0.0, 3.0, 0.0)
        with pytest.raises(ValueError):
            query(table, 0.5, 1.0, 0.0)
        with pytest.raises(ValueError):
            query_many(table, np.zeros(3), np.array([0.0, 1.0, 2.5]), np.zeros(3))

    def test_off_hull_errors_name_the_worst_query(self, table):
        cases = [((0.0, 0.0, 0.0), (0.0, 2.5, -0.3), "p = 2.5 outside the table hull [0.0, 2.0]"),
                 ((0.0, 0.3, -0.1), (1.0, 1.0, 1.0), "x = 0.3 outside the single-node axis")]
        for x, p, msg in cases:
            for query_fn in (query_many, query_oracle):
                with pytest.raises(ValueError, match=re.escape(msg)):
                    query_fn(table, np.array(x), np.array(p), np.zeros(3))
        # a NaN query does not hide an off-hull one
        with pytest.raises(ValueError, match=r"p = 2\.5 outside"):
            query_many(table, np.zeros(2), np.array([np.nan, 2.5]), np.zeros(2))

    def test_failed_neighbour_of_a_node_is_skipped(self):
        # the node p = 1 is exact; its zero-weight neighbour p = 0 failed
        values = np.array([[[np.nan], [2.0], [3.0]]])
        table = EffectiveTable(xs=np.array([0.0]), ps=np.array([0.0, 1.0, 2.0]),
                               ls=np.array([0.0]), values=values,
                               err=np.zeros_like(values),
                               provenance=np.array([[["failed"], ["discount"],
                                                     ["discount"]]], dtype=object),
                               sigma=0.5)
        assert query(table, 0.0, 1.0, 0.0) == 2.0
        got = query_many(table, np.zeros(2), np.array([1.0, 1.5]), np.zeros(2))
        assert np.array_equal(got, [2.0, 2.5])

    @given(tables_and_queries())
    @settings(max_examples=100, deadline=None)
    def test_matches_oracle(self, case):
        # bit for bit, signed zeros included; NaN where the oracle has NaN
        table, (x, p, l) = case
        expected = query_oracle(table, x, p, l)
        finite = ~np.isnan(expected)

        def assert_same_bits(got):
            assert np.array_equal(np.isnan(got), ~finite)
            assert np.array_equal(got[finite].view(np.int64),
                                  expected[finite].view(np.int64))

        assert_same_bits(query_many(table, x, p, l))
        # x left out: the single x node serves every query, unchecked
        if table.xs.size == 1:
            assert_same_bits(query_many(table, None, p, l))
        else:
            with pytest.raises(ValueError, match="single-node x axis"):
                query_many(table, None, p, l)

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
        assert np.array_equal(query_many(table, x, p, l), query_oracle(table, x, p, l))

    def test_monotone_data_interpolates_monotone(self, table):
        ls = np.linspace(-1.0, 1.0, 41)
        vals = query_many(table, np.zeros_like(ls), np.full_like(ls, 1.0), ls)
        assert np.all(np.diff(vals) <= 1e-12)


def theta_oracle(table, lo, hi):
    """Largest finite |dHbar/dp| over the p cells that meet [lo, hi], a cell
    with no finite pair counting as the table-wide bound.  [lo, hi] is first
    clamped to the hull: a query in the slack beyond an end takes the end cell."""
    lo, hi = (min(max(v, table.ps[0]), table.ps[-1]) for v in (lo, hi))
    d = np.abs(np.diff(table.values, axis=1) / np.diff(table.ps)[None, :, None])
    bound = float(np.max(d[np.isfinite(d)], initial=0.0))
    best = 0.0
    for k in range(table.ps.size - 1):
        finite = d[:, k, :][np.isfinite(d[:, k, :])]
        if table.ps[k + 1] >= lo and table.ps[k] <= hi:
            best = max(best, float(np.max(finite)) if finite.size else bound)
    return best


class TestSlopeBounds:
    @given(tables_and_queries())
    @settings(max_examples=100, deadline=None)
    def test_theta_matches_oracle_below_the_table_bound(self, case):
        table, (_, p, _) = case
        theta, bound = effective_source_from_table(table).theta, table.p_slope_bound()
        assert bound == theta_oracle(table, -np.inf, np.inf)
        assert theta(-np.inf, np.inf) == theta(table.ps[0], table.ps[-1]) == bound
        for lo, hi in zip(p, p[::-1]):
            lo, hi = min(lo, hi), max(lo, hi)
            assert theta(lo, hi) == theta_oracle(table, lo, hi) <= bound

    def test_nan_node_never_lowers_theta(self):
        # p^2 on p = -3 .. 3: cell slopes 5, 3, 1, 1, 3, 5.  A NaN at p = 0
        # leaves its two cells no finite pair; they take the table-wide bound
        ps = np.linspace(-3.0, 3.0, 7)
        values = (ps ** 2)[None, :, None]
        tables = []
        for v in (values, np.where(ps == 0.0, np.nan, ps ** 2)[None, :, None]):
            tables.append(EffectiveTable(xs=[0.0], ps=ps, ls=[0.0], values=v,
                                         err=np.zeros_like(v),
                                         provenance=np.full(v.shape, "discount",
                                                            dtype=object), sigma=0.5))
        intact, broken = (effective_source_from_table(t).theta for t in tables)
        assert np.array_equal(tables[1].p_cell_slopes(), [5.0, 3.0, 5.0, 5.0, 3.0, 5.0])
        for lo, hi in ((0.0, 0.0), (-0.5, 0.5), (0.2, 0.9), (-1.5, -1.2), (1.0, 2.0),
                       (-3.0, 3.0)):
            assert broken(lo, hi) >= intact(lo, hi)
        assert broken(-0.5, 0.5) == 5.0 > intact(-0.5, 0.5) == 1.0


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
    @given(tables_and_queries(), st.sampled_from([0.5, 1.5]), st.sampled_from([1.5, 2.0, 3.0]))
    def test_continuity_constants_match_pair_loop(self, case, sigma, m):
        # oracle: one adjacent pair of nodes at a time, NaN (failed) nodes skipped
        table = replace(case[0], sigma=sigma)
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
