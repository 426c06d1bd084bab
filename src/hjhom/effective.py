"""Effective Hamiltonian: closed form above order one, tables elsewhere.

For kernel order above one the cell problem is linear, and its solvability
condition gives the ergodic constant in closed form,

    Hbar(x, p, l) = A(x) * (mean_y H(x, y, p) / a(x, y)  -  l),
    A(x) = 1 / mean_y (1 / a(x, y)).

(A formally different affine-in-l normalization fails the
constant-coefficient sanity reduction Hbar = mean_y H - a0 l, which pins this
form.)  So the effective equation is the original one again,
u_t - A(x) I u + Hbar0(x, Du) = 0 with Hbar0 = A mean_y(H / a).

Below and at order one the constant is only available through cell solves;
this module tabulates it over rectangular (x, p, l) axes with error bars and
audits the structural properties every downstream consumer relies on:
decreasing in l, coercive in p, and finite continuity constants.

Two sources serve Hbar to the time stepper, each building its own scheme:
ClosedForm, the pair (a, H) whose cell means are taken afresh at every call,
and EffectiveSource, a table's queries, which raise NumericalFailure naming
the query and the failed node a query draws on.  Neither keeps state.
"""

from __future__ import annotations

import csv
import io
import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import csvio
from .cell import spectral_cell_above_one
from .grid import GridFunction
from .hamiltonians import HamiltonianSpec
from .kernels import QuadratureTable
from .parabolic import MonotoneScheme, NumericalFailure

# Cell nodes of the periodic quadrature behind every closed-form mean
CLOSED_FORM_NODES = 2048
# x nodes per quadrature block, so no block holds more than 256 x 2048 values
_BLOCK_ROWS = 256


@dataclass(frozen=True)
class ClosedForm:
    """Hbar(x, p, l) = Hbar0(x, p) - A(x) l above order one, its means taken
    on CLOSED_FORM_NODES cell nodes at every call.

    Hbar0 keeps the claims (m, b0, C0) of H, because the weights A / a
    average to one, and a power form b |p|^m - f stays one with bbar =
    A mean(b / a) and fbar = A mean(f / a).
    """

    a: Callable[[np.ndarray, np.ndarray], np.ndarray]
    ham: HamiltonianSpec                              # the cell Hamiltonian H

    def means(self, x, p=None) -> tuple:
        """(A, bbar, fbar), or (A,) without a power form, for p None;
        (A, Hbar0(x, p)) otherwise.  Shaped as x (broadcast with p).  Raises
        ValueError, naming the node, where a is not strictly positive."""
        x = np.asarray(x, dtype=float)
        if p is not None:
            x, p = np.broadcast_arrays(x, np.asarray(p, dtype=float))
            p_flat = p.ravel()
        ys = np.arange(CLOSED_FORM_NODES) / CLOSED_FORM_NODES
        pf = self.ham.power_form
        x_flat = x.ravel()
        blocks = []
        for s in range(0, x_flat.size, _BLOCK_ROWS):
            block = slice(s, s + _BLOCK_ROWS)
            X = x_flat[block, None]
            a_vals = np.broadcast_to(np.asarray(self.a(X, ys), dtype=float),
                                     (X.size, ys.size))
            if not np.all(a_vals > 0.0):
                i, j = np.unravel_index(np.argmin(a_vals), a_vals.shape)
                raise ValueError("coefficient a must be strictly positive above order "
                                 f"one: a(x, y) = {a_vals[i, j]:.6g} at (x, y) = "
                                 f"({X[i, 0]:.6g}, {ys[j]:.6g})")
            A = 1.0 / np.mean(1.0 / a_vals, axis=1)
            if p is not None:
                parts = (self.ham.eval(X, ys, p_flat[block, None]),)
            else:
                parts = () if pf is None else (pf.b(X, ys), pf.f(X, ys))
            blocks.append([A] + [
                A * np.mean(np.broadcast_to(np.asarray(part, dtype=float), a_vals.shape)
                            / a_vals, axis=1) for part in parts])
        return tuple(np.concatenate(col).reshape(x.shape) for col in zip(*blocks))

    def value(self, x, p, l) -> np.ndarray:
        if self.ham.power_form is None:
            A, hbar0 = self.means(x, p)
            return hbar0 - A * l
        A, bbar, fbar = self.means(x)
        # float_power takes the scalar pow at every element, as at one node
        return bbar * np.float_power(np.abs(p), self.ham.power_form.m) - fbar - A * l

    def scheme(self, xs: np.ndarray, table: QuadratureTable,
               p_range: float) -> MonotoneScheme:
        """-A I_h u + Hbar0(x, Du) at the nodes xs, A in the coefficient slot:
        the Godunov flux on (bbar, m, -fbar) with a power form, Lax-Friedrichs
        on Hbar0, sampled over |q| <= p_range, without one."""
        h, pf = 1.0 / xs.size, self.ham.power_form
        if pf is None:
            return MonotoneScheme(h, lambda q, lv: self.means(xs, q)[1], p_range=p_range,
                                  table=table, a=self.means(xs)[0])
        A, bbar, fbar = self.means(xs)
        return MonotoneScheme(h, lambda q, lv: bbar * np.abs(q) ** pf.m - fbar,
                              power=(bbar, pf.m, -fbar), table=table, a=A)

    def corrector(self, sigma: float, n: int) -> Callable[[float, float, float], GridFunction]:
        """psi(x, p, l) on n cell nodes: (fractional Laplacian) psi = f for
        f = l + (Hbar - H) / a, made mean-free (it is up to quadrature error)."""
        ys = np.arange(n) / n

        def psi(x, p, l):
            xs = np.full(n, x)
            h_vals = self.ham.eval(xs, ys, np.full(n, p))
            f = l + (self.value(xs[:1], p, l)[0] - h_vals) / self.a(xs, ys)
            return spectral_cell_above_one(sigma, GridFunction(f - np.mean(f)))

        return psi


# the closed form above order one for the coefficient a and the cell Hamiltonian ham
effective_source_from_formula = ClosedForm


@dataclass(frozen=True)
class EffectiveSource:
    """Effective nonlinearity read from a table (kernel order <= 1):
    value(x, p, l) plus the bounds the Lax-Friedrichs discretization needs.
    Above order one the effective problem is a ClosedForm instead."""

    value: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    l_slope: float
    # LF dissipation theta(lo, hi): sup |dHbar/dp| over the p-interval [lo, hi]
    theta: Callable[[float, float], float]

    def scheme(self, xs: np.ndarray, table: QuadratureTable,
               p_range: float) -> MonotoneScheme:
        """Scheme for value(x, Du, I_h u) at the nodes xs; theta is the
        table's own, so p_range goes unread."""
        return MonotoneScheme(1.0 / xs.size, lambda q, lv: self.value(xs, q, lv),
                              theta=self.theta, table=table, l_slope=self.l_slope)


@dataclass
class EffectiveTable:
    """Hbar samples over rectangular (x, p, l) axes with multilinear queries."""

    xs: np.ndarray
    ps: np.ndarray
    ls: np.ndarray
    values: np.ndarray       # shape (nx, np, nl)
    err: np.ndarray
    provenance: np.ndarray   # strings: formula | discount | longtime | failed
    sigma: float
    meta: dict = field(default_factory=dict)
    failures: tuple = ()     # why each failed node failed, as tabulate saw it

    def __post_init__(self):
        self.xs = np.asarray(self.xs, dtype=float)
        self.ps = np.asarray(self.ps, dtype=float)
        self.ls = np.asarray(self.ls, dtype=float)
        shape = (self.xs.size, self.ps.size, self.ls.size)
        if self.values.shape != shape:
            raise ValueError(f"values shape {self.values.shape} != axes shape {shape}")

    # slope bounds over pairs of finite nodes: a failed (NaN) node bounds nothing
    def l_slope_bound(self) -> float:
        d = np.diff(self.values, axis=2) / np.diff(self.ls)[None, None, :]
        return float(np.max(np.abs(d[np.isfinite(d)]), initial=0.0))

    def p_cell_slopes(self) -> np.ndarray:
        """sup |dHbar/dp| over every x and l node of each p cell
        [ps[k], ps[k + 1]]; a cell with no finite pair takes the table's bound."""
        d = np.abs(np.diff(self.values, axis=1) / np.diff(self.ps)[None, :, None])
        cells = np.fmax.reduce(d, axis=(0, 2))             # NaN only without a finite pair
        return np.where(np.isnan(cells), np.fmax.reduce(cells, initial=0.0), cells)

    def p_slope_bound(self) -> float:
        return float(np.max(self.p_cell_slopes(), initial=0.0))


def _locate(axis: np.ndarray, q: np.ndarray, name: str) -> Optional[tuple]:
    """(i, w) per query of the 1-D array q: the node at or left of it on the
    axis and the weight of node i + 1; None for a single-node axis, once every
    query sits on its node.

    Raises ValueError naming the worst query outside the hull.
    """
    # fmin/fmax pass over NaN queries, so a NaN does not hide an off-hull one
    lo = np.fmin.reduce(q, initial=axis[0])
    hi = np.fmax.reduce(q, initial=axis[-1])
    bad = float(lo if axis[0] - lo >= hi - axis[-1] else hi)
    if axis.size == 1:
        if max(axis[0] - lo, hi - axis[0]) > 1e-9 * max(1.0, abs(axis[0])):
            raise ValueError(f"{name} = {bad} outside the single-node axis; "
                             "enlarge the table box")
        return None
    if lo < axis[0] - 1e-12 or hi > axis[-1] + 1e-12:
        raise ValueError(f"{name} = {bad} outside the table hull "
                         f"[{axis[0]}, {axis[-1]}]; enlarge the table box")
    # counting interior nodes below q gives the cell index clipped to [0, size - 2]
    i = np.searchsorted(axis[1:-1], q)
    w = q - axis.take(i)
    w /= (axis[1:] - axis[:-1]).take(i)
    # inside the hull w lies in [0, 1] already (rounding is monotone); only
    # the 1e-12 slack beyond an end can push it out
    if lo < axis[0] or hi > axis[-1]:
        np.clip(w, 0.0, 1.0, out=w)
    return i, w


def query_many(table: EffectiveTable, x: Optional[np.ndarray], p: np.ndarray,
               l: np.ndarray) -> np.ndarray:
    """Vectorized multilinear interpolation; exact at nodes, no extrapolation.

    A single-node axis is checked (every query must sit on its node) and then
    skipped, so a table with one x node interpolates over 4 corners, not 8;
    x None serves every query from that node unchecked, shaped as p and l.
    On a table with a failed (NaN) node, corners of zero weight add zero,
    so that node never reaches a query that lands on its neighbour.  The
    result is bit for bit the 8-corner sum taken from +0.0 in x, p, l order.
    """
    axes = ((table.xs, x, "x", table.ps.size * table.ls.size),
            (table.ps, p, "p", table.ls.size), (table.ls, l, "l", 1))
    if x is None:
        if table.xs.size != 1:
            raise ValueError("x may be left out only for a single-node x axis")
        axes = axes[1:]
    queries = [np.asarray(q, float) for _, q, _, _ in axes]
    if any(q.shape != queries[0].shape for q in queries):
        queries = np.broadcast_arrays(*queries)
    shape = queries[0].shape
    flat = np.zeros(queries[0].size, dtype=np.intp)
    corners = [(0, 1.0)]      # (flat offset, weight) per corner, in x, p, l order
    for (axis, _, name, stride), q in zip(axes, queries):
        located = _locate(axis, q.ravel(), name)
        if located is None:
            continue
        i, w = located
        flat += i * stride
        pair = ((0, 1.0 - w), (stride, w))
        # 1.0 * weight is the weight, so the first axis located needs no product
        corners = list(pair) if len(corners) == 1 else [
            (off + off_ax, c * c_ax) for off, c in corners for off_ax, c_ax in pair]
    values = table.values.ravel()
    failed = not np.isfinite(values).all()
    out = None
    for off, c in corners:
        cv = values[off:].take(flat)
        cv *= c
        if failed:            # 0 * NaN is NaN: a zero weight must not fetch a failed node
            np.copyto(cv, 0.0, where=c == 0.0)
        out = cv if out is None else np.add(out, cv, out=out)
    # a sum of zeros may come out -0.0 where a sum from +0.0 cannot
    out += 0.0
    return out.reshape(shape)


def failed_node(table: EffectiveTable, x: float, p: float, l: float) -> Optional[tuple]:
    """(x, p, l) of a failed (NaN) node the query at (x, p, l) draws on with
    nonzero weight, or None."""
    axes = (table.xs, table.ps, table.ls)
    corners = []
    for axis, q, name in zip(axes, (x, p, l), "xpl"):
        located = _locate(axis, np.array([float(q)]), name)
        i, w = (0, 0.0) if located is None else (int(located[0][0]), float(located[1][0]))
        corners.append([j for j, c in ((i, 1.0 - w), (i + 1, w)) if c != 0.0])
    for node in itertools.product(*corners):
        if not np.isfinite(table.values[node]):
            return tuple(float(axis[j]) for axis, j in zip(axes, node))
    return None


def query(table: EffectiveTable, x: float, p: float, l: float) -> float:
    """Scalar form of query_many."""
    return float(query_many(table, x, p, l))


def effective_source_from_table(table: EffectiveTable) -> EffectiveSource:
    """Table-backed source; queries abort outside the (p, l) hull.

    A single-node x axis means the tabulated model has no slow-variable
    dependence, so every x is served by that node.  On a table with a failed
    node, value raises NumericalFailure naming the first query that draws on
    it and the node.
    """
    collapse_x = table.xs.size == 1
    slopes = table.p_cell_slopes().tolist()
    inner = table.ps[1:-1].tolist()
    has_failed = not np.isfinite(table.values).all()

    def value(x, p, l):
        out = query_many(table, None if collapse_x else x, p, l)
        if has_failed and not np.isfinite(out).all():
            first = np.flatnonzero(~np.isfinite(out))[0]
            qx, qp, ql = (float(np.broadcast_to(q, out.shape).flat[first]) for q in (x, p, l))
            node = failed_node(table, table.xs[0] if collapse_x else qx, qp, ql)
            raise NumericalFailure(f"the query (x, p, l) = ({qx:.6g}, {qp:.6g}, {ql:.6g}) " + (
                "is non-finite" if node is None else
                "draws on the failed table node (x, p, l) = ({:g}, {:g}, {:g})".format(*node)))
        return out

    def theta(lo, hi):
        # the cells [ps[k], ps[k + 1]] that meet [lo, hi]
        return max(slopes[bisect_left(inner, lo):bisect_right(inner, hi) + 1], default=0.0)

    return EffectiveSource(value=value, l_slope=table.l_slope_bound(), theta=theta)


def tabulate(fill: Callable, xs, ps, ls, sigma: float,
             meta: Optional[dict] = None) -> EffectiveTable:
    """Fill the table node by node; a failing node is marked, not fatal."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    ps = np.atleast_1d(np.asarray(ps, dtype=float))
    ls = np.atleast_1d(np.asarray(ls, dtype=float))
    values = np.full((xs.size, ps.size, ls.size), np.nan)
    err = np.full_like(values, np.inf)
    prov = np.full(values.shape, "failed", dtype=object)
    failures = []
    for i, x in enumerate(xs):
        for j, p in enumerate(ps):
            for k, l in enumerate(ls):
                try:
                    v, e, tag = fill(float(x), float(p), float(l))
                except (NumericalFailure, ValueError) as exc:
                    failures.append(str(exc))
                    continue
                values[i, j, k] = v
                err[i, j, k] = e
                prov[i, j, k] = tag
    return EffectiveTable(xs=xs, ps=ps, ls=ls, values=values, err=err,
                          provenance=prov, sigma=sigma, meta=dict(meta or {}),
                          failures=tuple(failures))


@dataclass(frozen=True)
class PropertyAudit:
    monotone_violations: int
    worst_positive_l_diff: float
    coercivity_margin: float       # min of Hbar + a_sup |l| + C - b0 |p|^m
    C_l: float
    C_x: float
    C_p: float
    form: str                      # "lipschitz" (order >= 1) or "modulus" (order < 1)
    passed: bool


def audit_properties(table: EffectiveTable, b0: float, C: float, a_sup: float,
                     m: float, tol: float = 1e-8) -> PropertyAudit:
    """Nodewise checks of monotonicity in l, coercivity, and continuity constants.

    The continuity constants are the smallest C making the sampled increments
    obey |dHbar| <= C (|dl| + |dx| (1+|l|+|p|^m)^n1 + |dp| (1+|l|+|p|^m)^n2)
    with (n1, n2) = (m, m-1) for order >= 1 and (1, 1) surrogates below one.
    """
    v = table.values
    finite = np.isfinite(v)

    viol = 0
    worst = 0.0
    if table.ls.size > 1:
        d = np.diff(v, axis=2)
        ok = np.isfinite(d)
        viol = int(np.sum(d[ok] > tol))
        worst = float(np.max(d[ok])) if np.any(ok) else 0.0

    P = np.abs(table.ps)[None, :, None]
    L = np.abs(table.ls)[None, None, :]
    margin_arr = v + a_sup * L + C - b0 * P ** m
    coercivity_margin = float(np.min(margin_arr[finite])) if np.any(finite) else np.nan

    if table.sigma >= 1.0:
        n1, n2, form = m, m - 1.0, "lipschitz"
    else:
        n1, n2, form = 1.0, 1.0, "modulus"

    # continuity constants: the largest adjacent-difference quotient along an
    # axis, weighted by the larger |l| and |p| of each pair (failed nodes skipped)
    def smallest_C(axis, axis_idx, n_exp):
        if axis.size < 2:
            return 0.0
        lo, hi = [slice(None)] * 3, [slice(None)] * 3
        lo[axis_idx], hi[axis_idx] = slice(None, -1), slice(1, None)

        def pair_max(A):
            A = np.broadcast_to(A, v.shape)
            return np.maximum(A[tuple(lo)], A[tuple(hi)])

        w = (1.0 + pair_max(L) + pair_max(P) ** m) ** n_exp
        step = np.abs(np.diff(axis)).reshape([-1 if i == axis_idx else 1 for i in range(3)])
        dv = np.abs(np.diff(v, axis=axis_idx))
        ok = np.isfinite(dv)
        return float(np.max(dv[ok] / (step * w)[ok])) if np.any(ok) else 0.0

    C_l = smallest_C(table.ls, 2, 0.0)
    C_x = smallest_C(table.xs, 0, n1)
    C_p = smallest_C(table.ps, 1, n2)
    passed = (viol == 0 and np.isfinite(coercivity_margin)
              and coercivity_margin >= -tol)
    return PropertyAudit(monotone_violations=viol, worst_positive_l_diff=worst,
                         coercivity_margin=coercivity_margin, C_l=C_l, C_x=C_x,
                         C_p=C_p, form=form, passed=passed)


def save_table(table: EffectiveTable, path: str, config_lines=()) -> None:
    """Persist the table; `#cfg` lines echo the producing configuration and
    are ignored on reload (they are provenance, not table metadata)."""
    header = [f"#cfg {line.lstrip('# ')}".rstrip() for line in config_lines]
    header.append(f"# sigma = {table.sigma!r}")
    header.extend(f"# {key} = {table.meta[key]}" for key in sorted(table.meta))
    rows = [(x, p, l, table.values[i, j, k], table.err[i, j, k], table.provenance[i, j, k])
            for i, x in enumerate(table.xs)
            for j, p in enumerate(table.ps)
            for k, l in enumerate(table.ls)]
    csvio.emit_csv(path, ["x", "p", "l", "H_bar", "err", "provenance"], rows, header)


def load_table(path: str) -> EffectiveTable:
    """Read a table written by save_table.

    Every (x, p, l) node of the rectangular grid spanned by the rows must
    appear exactly once; a repeated or missing node raises ValueError naming
    the line or the node.
    """
    meta = {}
    sigma = None
    lines, line_numbers = [], []
    with open(path) as fh:
        for number, line in enumerate(fh, start=1):
            if line.startswith("#cfg"):
                continue
            if line.startswith("#"):
                key, _, val = line[1:].partition("=")
                key, val = key.strip(), val.strip()
                if key == "sigma":
                    sigma = float(val)
                else:
                    meta[key] = val
            else:
                lines.append(line)
                line_numbers.append(number)
    if sigma is None:
        raise ValueError(f"{path} lacks the '# sigma =' header line")
    fields = ["x", "p", "l", "H_bar", "err", "provenance"]
    reader = csv.DictReader(io.StringIO("".join(lines)))
    recs = []
    for r in reader:
        number = line_numbers[reader.line_num - 1]
        if any(r.get(f) is None for f in fields):
            raise ValueError(f"{path}:{number}: expected {len(fields)} fields")
        recs.append((float(r["x"]), float(r["p"]), float(r["l"]), float(r["H_bar"]),
                     float(r["err"]), r["provenance"], number))
    axes = [np.array(sorted({r[a] for r in recs})) for a in range(3)]
    index = [{v: i for i, v in enumerate(ax)} for ax in axes]
    shape = tuple(ax.size for ax in axes)
    values = np.full(shape, np.nan)
    err = np.full_like(values, np.inf)
    prov = np.full(shape, "failed", dtype=object)
    seen = np.zeros(shape, dtype=bool)
    for x, p, l, vv, ee, pr, number in recs:
        node = (index[0][x], index[1][p], index[2][l])
        if seen[node]:
            raise ValueError(f"{path}:{number}: repeats the node "
                             f"(x, p, l) = ({x!r}, {p!r}, {l!r})")
        seen[node] = True
        values[node], err[node], prov[node] = vv, ee, pr
    if not np.all(seen):
        i, j, k = np.argwhere(~seen)[0]
        raise ValueError(f"{path}: {len(recs)} rows for a {shape[0]}x{shape[1]}x{shape[2]} "
                         f"grid; no row for the node (x, p, l) = ({float(axes[0][i])!r}, "
                         f"{float(axes[1][j])!r}, {float(axes[2][k])!r})")
    return EffectiveTable(xs=axes[0], ps=axes[1], ls=axes[2], values=values, err=err,
                          provenance=prov, sigma=sigma, meta=meta)
