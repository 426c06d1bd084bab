"""Effective Hamiltonian: closed form above order one, tables elsewhere.

For kernel order above one the cell problem is linear, and its solvability
condition gives the ergodic constant in closed form,

    Hbar(x, p, l) = A(x) * (mean_y H(x, y, p) / a(x, y)  -  l),
    A(x) = 1 / mean_y (1 / a(x, y)).

(A formally different affine-in-l normalization fails the
constant-coefficient sanity reduction Hbar = mean_y H - a0 l, which pins this
form.)  So the effective equation is the original one again,
u_t - A(x) I u + Hbar0(x, Du) = 0 with Hbar0 = A mean_y(H / a).

Below order one the cell formula (hjhom.cell.formula_below_one) gives Hbar,
at order one cell solves do, and hjhom.fill fills their tables.  This module
holds them with their error bars, queries, saves, loads and audits them for
what every consumer relies on: decreasing in l, coercive in p, finite
continuity constants.

Two sources serve Hbar to the time stepper, each building its own scheme,
and hjhom.fill.effective_source picks one: ClosedForm, the pair (a, H) whose
cell means are taken afresh at every call, and EffectiveSource, a table's
queries.  A table with a failed (non-finite) node serves no solve: its source
raises NumericalFailure naming every such node.  ClosedForm keeps no state;
the table source keeps each node's cell, and nothing that changes a value.
"""

from __future__ import annotations

import csv
import io
from bisect import bisect_left, bisect_right
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import csvio
from .cell import CLOSED_FORM_NODES, cell_coefficients, spectral_cell_above_one
from .hamiltonians import HamiltonianSpec
from .kernels import BLOCK_VALUES, QuadratureTable
from .parabolic import MonotoneScheme, NumericalFailure

# x nodes per quadrature block, so no block holds more than BLOCK_VALUES values
_BLOCK_ROWS = BLOCK_VALUES // CLOSED_FORM_NODES


class ClosedForm(NamedTuple):
    """Hbar(x, p, l) = Hbar0(x, p) - A(x) l above order one, its means taken
    on CLOSED_FORM_NODES cell nodes at every call: if none of a, b, f reads
    x, one row's means serve every x.

    Hbar0 keeps the claims (m, b0, C0) of H, because the weights A / a
    average to one, and H's power form b |p|^m - f stays one with bbar =
    A mean(b / a) and fbar = A mean(f / a).
    """

    a: Callable[[np.ndarray, np.ndarray], np.ndarray]
    ham: HamiltonianSpec                              # the cell Hamiltonian H

    def means(self, x) -> tuple:
        """(A, bbar, fbar), shaped as x.  Raises ValueError, naming the node,
        where a is not strictly positive."""
        x = np.asarray(x, dtype=float)
        ys = np.arange(CLOSED_FORM_NODES) / CLOSED_FORM_NODES
        blocks = []
        for s in range(0, x.size, _BLOCK_ROWS):
            X = x.ravel()[s:s + _BLOCK_ROWS, None]
            a_vals, b_vals, f_vals = cell_coefficients(self.a, self.ham, X, ys,
                                                       "strictly positive above order one")
            A = 1.0 / np.mean(1.0 / a_vals, axis=1)
            blocks.append([A] + [A * np.mean(part / a_vals, axis=1) for part in (b_vals, f_vals)])
            if a_vals.shape[0] < X.size:                  # no x axis
                return tuple(np.full(x.shape, col[0]) for col in blocks[0])
        return tuple(np.concatenate(col).reshape(x.shape) for col in zip(*blocks))

    def value(self, x, p, l) -> np.ndarray:
        A, bbar, fbar = self.means(x)
        # float_power takes the scalar pow at every element, as at one node
        return bbar * np.float_power(np.abs(p), self.ham.m) - fbar - A * l

    def scheme(self, xs: np.ndarray, table: QuadratureTable) -> MonotoneScheme:
        """-A I_h u + Hbar0(x, Du) at the nodes xs, A in the coefficient slot:
        the Godunov flux on (bbar, m, -fbar)."""
        A, bbar, fbar = self.means(xs)
        return MonotoneScheme(1.0 / xs.size, power=(bbar, self.ham.m, -fbar),
                              table=table, a=A)

    def corrector(self, sigma: float, n: int, x, p, l) -> np.ndarray:
        """(k, n): at each of the k nodes of the arrays x, p, l, psi on n cell
        nodes solving (fractional Laplacian) psi = f, f = l + (Hbar - H) / a;
        f and psi made mean-free (f is up to quadrature error)."""
        ys = np.arange(n) / n
        X, P, L = (np.asarray(v, dtype=float).reshape(-1, 1) for v in (x, p, l))
        hbar = self.value(X[:, 0], P[:, 0], L[:, 0])[:, None]
        f = self.ham.eval(X, ys, P)                       # one (k, n) buffer, in place
        np.subtract(hbar, f, out=f)
        f /= self.a(X, ys)
        f += L
        f -= np.mean(f, axis=1, keepdims=True)
        psi = spectral_cell_above_one(sigma, f)
        return psi - np.mean(psi, axis=1, keepdims=True)


class EffectiveSource(NamedTuple):
    """Effective nonlinearity read from a table (kernel order <= 1): at(x) gives
    (p, l) -> Hbar(x, p, l), plus the bounds the Lax-Friedrichs discretization
    needs.  Above order one the effective problem is a ClosedForm instead."""

    at: Callable[[np.ndarray], Callable[[np.ndarray, np.ndarray], np.ndarray]]
    l_slope: float
    # LF dissipation theta(lo, hi): sup |dHbar/dp| over the p-interval [lo, hi]
    theta: Callable[[float, float], float]

    def scheme(self, xs: np.ndarray, table: QuadratureTable) -> MonotoneScheme:
        """Scheme for Hbar(x, Du, I_h u) at the nodes xs, located once, its
        Lax-Friedrichs theta the table's own."""
        return MonotoneScheme(1.0 / xs.size, self.at(xs), theta=self.theta, table=table,
                              l_slope=self.l_slope)


class EffectiveTable:
    """Hbar samples over rectangular (x, p, l) axes with multilinear queries."""

    xs: np.ndarray
    ps: np.ndarray
    ls: np.ndarray
    values: np.ndarray       # shape (nx, np, nl)
    err: np.ndarray
    provenance: np.ndarray   # strings: formula | ergodic | failed (older: discount)
    sigma: float
    meta: dict
    failures: tuple          # why each failed node failed, as the fill saw it

    def __init__(self, xs, ps, ls, values, err, provenance, sigma, meta=None, failures=()):
        self.xs, self.ps, self.ls = (np.asarray(axis, dtype=float) for axis in (xs, ps, ls))
        shape = (self.xs.size, self.ps.size, self.ls.size)
        if values.shape != shape:
            raise ValueError(f"values shape {values.shape} != axes shape {shape}")
        self.values, self.err, self.provenance, self.sigma = values, err, provenance, sigma
        self.meta = {} if meta is None else meta
        self.failures = failures

    def l_slope_bound(self) -> float:
        d = np.diff(self.values, axis=2) / np.diff(self.ls)[None, None, :]
        return float(np.max(np.abs(d), initial=0.0))

    def p_cell_slopes(self) -> np.ndarray:
        """sup |dHbar/dp| over every x and l node of each p cell [ps[k], ps[k + 1]]."""
        return np.max(np.abs(np.diff(self.values, axis=1) / np.diff(self.ps)[None, :, None]),
                      axis=(0, 2))


def _locate(axis: np.ndarray, q: np.ndarray, name: str) -> tuple:
    """(i, d) per query of the 1-D array q: its cell [axis[i], axis[i + 1]),
    the last node's own padded cell at or past the upper end, and d = q -
    axis[i], 0 in the slack below the lower end.  Raises ValueError naming the
    worst query beyond 1e-12 past an end or 1e-9 relative off a single node."""
    # fmin/fmax pass over NaN queries, so a NaN does not hide an off-hull one
    lo = np.fmin.reduce(q, initial=axis[0])
    hi = np.fmax.reduce(q, initial=axis[-1])
    if (max(axis[0] - lo, hi - axis[0]) > 1e-9 * max(1.0, abs(axis[0])) if axis.size == 1
            else lo < axis[0] - 1e-12 or hi > axis[-1] + 1e-12):
        bad = float(lo if axis[0] - lo >= hi - axis[-1] else hi)
        where = ("the single-node axis" if axis.size == 1
                 else f"the table hull [{axis[0]}, {axis[-1]}]")
        raise ValueError(f"{name} = {bad} outside {where}; enlarge the table box")
    i = axis[1:].searchsorted(q, side="right")
    d = q - axis.take(i)
    if lo < axis[0]:
        np.maximum(d, 0.0, out=d)
    return i, d


def _weighted(axis: np.ndarray, q: np.ndarray, name: str) -> tuple:
    """(i, w): _locate's cells and the weight of node i + 1, 0 when padded."""
    i, d = _locate(axis, q, name)
    return i, d / np.diff(axis, append=np.inf).take(i)


class TableCells:
    """The bilinear form Hbar = c0 + dq (c1 + dl c3) + dl c2, dq = p - ps[i] and
    dl = l - ls[k], of each (x node, p cell, l cell) of a table, its cell (i, k)
    anchored at node (i, k); `block` rows: bounds p_i, l_k, p_i+1, l_k+1, then
    c0 .. c3, flat in (x, p, l) order.  A padded cell past the upper end of
    each axis (flat in p and l, zero in x, upper node NaN) anchors a query on
    any node there, so it returns the node value exactly."""

    def __init__(self, table: EffectiveTable):
        self.table = table
        v = np.pad(table.values, ((0, 1), (0, 0), (0, 0)))
        dp, dl = (np.diff(axis, append=np.inf) for axis in (table.ps, table.ls))
        c2 = np.diff(v, axis=2, append=v[:, :, -1:]) / dl
        (p0, p1), (l0, l1) = ((axis, np.append(axis[1:], np.nan)) for axis in (table.ps, table.ls))
        self.block = np.stack(np.broadcast_arrays(
            p0[:, None], l0, p1[:, None], l1, v, np.diff(v, axis=1, append=v[:, -1:]) / dp[:, None],
            c2, np.diff(c2, axis=1, append=c2[:, -1:]) / dp[:, None])).reshape(8, -1)


class CellMemo:
    """Each query node's cell as the last query_many call with this memo left
    it: its TableCells block column at each x node drawn on, (8, 1 or 2,
    size).  x is as query_many takes it; `relocated` counts the nodes located
    so far."""

    def __init__(self, x: Optional[tuple]):
        self.x, self.relocated = x, 0
        self.clear(0)

    def clear(self, size: int) -> None:
        self.block = np.full((8, 1 if self.x is None else 2, size), np.nan)


def query_many(cells: TableCells, x: Optional[tuple | CellMemo], p: np.ndarray,
               l: np.ndarray) -> np.ndarray:
    """Multilinear interpolation at queries p, l of one shape: exact at nodes,
    no extrapolation; the table's nodes must be finite.  x is _weighted's
    (i, w) of the queries on the x axis, None to serve them all from the one
    x node, or a CellMemo of either: only the nodes that left their cell are
    located.  Raises ValueError naming an off-hull query."""
    table, memo = cells.table, x if isinstance(x, CellMemo) else CellMemo(x)
    shape = np.shape(p)
    q = np.array((p, l), dtype=float).reshape(2, -1)       # the rows p and l
    if memo.block.shape[2] != q.shape[1]:
        memo.clear(q.shape[1])
    b = memo.block[:4, 0]
    # a NaN query or bound (a padded cell, or no call yet) compares false:
    # that node moves
    inside = (b[:2] <= q) & (q < b[2:])
    moved = (~(inside[0] & inside[1])).nonzero()[0]
    d = q - b[:2]
    if moved.size:
        qm = q[:, moved]
        (ip, d[0, moved]), (ik, d[1, moved]) = (_locate(table.ps, qm[0], "p"),
                                                _locate(table.ls, qm[1], "l"))
        cell = ip * table.ls.size + ik
        flat = cell[None] if memo.x is None else (      # the cells at x nodes i and i + 1
            (memo.x[0][moved] + [[0], [1]]) * table.values[0].size + cell)
        memo.block[:, :, moved] = cells.block[:, flat]
        memo.relocated += moved.size
    (dq, dl), (c0, c1, c2, c3) = d, memo.block[4:]
    out = c3 * dl
    out += c1
    out *= dq
    out += c0
    out += c2 * dl
    out = out[0] if memo.x is None else out[0] * (1.0 - memo.x[1]) + out[1] * memo.x[1]
    return out.reshape(shape)


def effective_source_from_table(table: EffectiveTable) -> EffectiveSource:
    """Table-backed source; queries abort outside the (p, l) hull.  A single x
    node serves every x (the model has no slow variable); otherwise at(x)
    locates x once.  at(x)'s query function keeps a CellMemo as `memo`.  A
    table with a non-finite node is no continuous Hbar: NumericalFailure names
    every such node, with the fill's reason where failures has one per node."""
    failed = np.argwhere(~np.isfinite(table.values))       # in x, p, l order, as filled
    if failed.size:
        reasons = table.failures if len(table.failures) == len(failed) else [""] * len(failed)
        lines = [f"\n  (x, p, l) = ({table.xs[i]:g}, {table.ps[j]:g}, {table.ls[k]:g})"
                 + (reason and f": {reason}") for (i, j, k), reason in zip(failed, reasons)]
        raise NumericalFailure(f"a table with a failed node serves no solve; {len(failed)} of "
                               f"{table.values.size} nodes failed:" + "".join(lines))
    cells = TableCells(table)
    slopes = table.p_cell_slopes().tolist()
    inner = table.ps[1:-1].tolist()

    def at(x):
        memo = CellMemo(None if table.xs.size == 1 else _weighted(table.xs, np.ravel(x), "x"))
        value = lambda p, l: query_many(cells, memo, p, l)
        value.memo = memo
        return value

    def theta(lo, hi):
        # the cells [ps[k], ps[k + 1]] that meet [lo, hi]
        return max(slopes[bisect_left(inner, lo):bisect_right(inner, hi) + 1], default=0.0)

    return EffectiveSource(at=at, l_slope=table.l_slope_bound(), theta=theta)


# slack of the property audit: an l-increment above it breaks monotonicity,
# a coercivity margin below minus it breaks coercivity
AUDIT_TOL = 1e-8


class PropertyAudit(NamedTuple):
    monotone_violations: int
    coercivity_margin: float       # min of Hbar + a_sup |l| + C - b0 |p|^m
    C_l: float
    C_x: float
    C_p: float
    passed: bool


def audit_properties(table: EffectiveTable, b0: float, C: float, a_sup: float,
                     m: float) -> PropertyAudit:
    """Nodewise checks of monotonicity in l, coercivity, and continuity constants.

    The continuity constants are the smallest C making the sampled increments
    obey |dHbar| <= C (|dl| + |dx| (1+|l|+|p|^m)^n1 + |dp| (1+|l|+|p|^m)^n2)
    with (n1, n2) = (m, m-1) for order >= 1 and (1, 1) surrogates below one.
    """
    v = table.values
    finite = np.isfinite(v)

    d = np.diff(v, axis=2)
    viol = int(np.sum(d[np.isfinite(d)] > AUDIT_TOL))

    P = np.abs(table.ps)[None, :, None]
    L = np.abs(table.ls)[None, None, :]
    margin_arr = v + a_sup * L + C - b0 * P ** m
    coercivity_margin = float(np.min(margin_arr[finite])) if np.any(finite) else np.nan

    n1, n2 = (m, m - 1.0) if table.sigma >= 1.0 else (1.0, 1.0)

    # continuity constants: the largest adjacent-difference quotient along an
    # axis, weighted by the larger |l| and |p| of each pair (failed nodes skipped)
    def smallest_C(axis, axis_idx, n_exp):
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

    passed = (viol == 0 and np.isfinite(coercivity_margin)
              and coercivity_margin >= -AUDIT_TOL)
    return PropertyAudit(monotone_violations=viol, coercivity_margin=coercivity_margin,
                         C_l=smallest_C(table.ls, 2, 0.0), C_x=smallest_C(table.xs, 0, n1),
                         C_p=smallest_C(table.ps, 1, n2), passed=passed)


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
    appear exactly once, at finite axis values; a repeated or missing node, a
    field that is not a number or a non-finite axis value raises ValueError
    naming the line or the node, and a file with no rows one naming the file.
    """
    meta, lines, line_numbers = {}, [], []
    with open(path) as fh:
        for number, line in enumerate(fh, start=1):
            if line.startswith("#cfg"):
                continue
            if line.startswith("#"):
                key, _, val = line[1:].partition("=")
                meta[key.strip()] = val.strip()
            else:
                lines.append(line)
                line_numbers.append(number)
    if "sigma" not in meta:
        raise ValueError(f"{path} lacks the '# sigma =' header line")
    fields = ["x", "p", "l", "H_bar", "err", "provenance"]
    reader = csv.DictReader(io.StringIO("".join(lines)))
    recs = []
    for r in reader:
        number = line_numbers[reader.line_num - 1]
        if any(r.get(f) is None for f in fields):
            raise ValueError(f"{path}:{number}: expected {len(fields)} fields")
        try:
            recs.append((*(float(r[f]) for f in fields[:5]), r["provenance"], number))
        except ValueError as exc:
            raise ValueError(f"{path}:{number}: {exc}") from None
        if not np.all(np.isfinite(recs[-1][:3])):
            raise ValueError(f"{path}:{number}: the axis values (x, p, l) = "
                             f"({r['x']}, {r['p']}, {r['l']}) must be finite")
    if not recs:
        raise ValueError(f"{path} holds no table rows")
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
                          provenance=prov, sigma=float(meta.pop("sigma")), meta=meta)
