"""Line-oriented run configuration: `section.key = value`, all defaults explicit.

Unknown keys are rejected with a suggestion; every validation error is
collected and reported together, not just the first.  A parsed configuration
round-trips exactly through its text form, and every output file echoes the
configuration it came from, so a run is reproducible from any artifact.
"""

from __future__ import annotations

import warnings
from typing import Any, Callable, NamedTuple, Optional

import numpy as np

from .grid import whole_reciprocal

_DEFAULT_DELTAS = "0.1,0.05,0.025,0.0125,0.00625,0.003125,0.0015625,0.001"
M_MAX = 100.0     # largest hamiltonian.m: the audits' |p|^m overflows above 129

# (type tag, default); type tags: int, float, str, floats (comma list, fractions ok)
SCHEMA = {
    "kernel": {
        "sigma": ("float", 1.5),
        "family": ("str", "constant"),        # constant | tilt | quadratic_tilt | csv
        "slope": ("float", 0.5),
        "csv_path": ("str", ""),
    },
    "coefficient_a": {
        "kind": ("str", "two_plus_cos_y"),
    },
    "hamiltonian": {                          # H = b |p|^m - f
        "b": ("str", "one"),
        "f": ("str", "cos_y"),
        "m": ("float", 2.0),
    },
    "grid": {
        "n": ("int", 256),
        "snapshots": ("int", 10),
        "kind": ("str", "oscillating"),       # oscillating | effective
        "u0": ("str", "sin_2pi_x"),
        "T": ("float", 0.2),
        "eps": ("float", "1/8"),
        "table_csv": ("str", ""),             # effective solves below order one
    },
    "cell": {
        "x": ("float", 0.0),
        "p": ("float", 0.0),
        "l": ("float", 0.0),
        "deltas": ("floats", _DEFAULT_DELTAS),   # read by no command
        "n": ("int", 256),
        "tol": ("float", 1e-9),
        "max_steps": ("int", 500),            # Newton steps per solve
        "structure_n": ("float", 1.0),        # exponent slot of the threshold formula
        "table_x": ("floats", "0"),
        "table_p": ("floats", "0,0.25,0.5,0.75,1,1.25,1.5,1.75,2"),
        "table_l": ("floats", "-1,-0.5,0,0.5,1"),
    },
    "sweep": {
        "eps_list": ("floats", "1/4,1/8,1/16"),
        "T": ("float", 0.2),
        "n_per_k": ("int", 16),
        "n_fixed": ("int", 0),                # 0: scale n with 1/eps
        "snapshots": ("int", 10),
    },
    "output": {
        "prefix": ("str", "run"),
    },
}


class ConfigError(ValueError):
    """All collected configuration problems, one per line."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("\n".join(self.errors))


def _parse_number(text: str) -> float:
    """A float, or a ratio "a/b" of integers, b unsigned, as the correctly
    rounded int(a) / int(b)."""
    num, slash, den = text.strip().partition("/")
    if not slash:
        return float(num)
    if den.lstrip().startswith(("+", "-")):
        raise ValueError(f"signed denominator in {text!r}")
    return int(num) / int(den)


def _coerce(tag: str, raw: str, where: str, errors: list) -> Any:
    raw = raw.strip()
    try:
        if tag == "int":
            return int(raw)
        if tag == "str":
            return raw
        val = _parse_number(raw) if tag == "float" else tuple(
            _parse_number(tok) for tok in raw.split(",") if tok.strip())
    except (ValueError, ZeroDivisionError):
        errors.append(f"{where}: cannot parse {raw!r} as {tag}")
        return None
    if not np.all(np.isfinite(val)):       # nan, inf, 1e400
        errors.append(f"{where}: {raw!r} is not finite")
        return None
    return val


class RunConfig:
    values: dict
    # (kernel, its ModulusIntegralReport or None) when validation built the
    # kernel for the order-one asymmetry audit; build_model reuses both
    kernel_audit: Optional[tuple] = None
    # the Hamiltonian validation built from hamiltonian.b, f and m; build_model
    # reuses it
    hamiltonian: Any = None

    def __init__(self, values: dict):
        self.values = values

    def __getitem__(self, dotted: str):
        return self.values[dotted]

    def __eq__(self, other):
        return isinstance(other, RunConfig) and self.values == other.values

    def to_text(self) -> str:
        lines = []
        for section in SCHEMA:
            for key in SCHEMA[section]:
                val = self.values[f"{section}.{key}"]
                if isinstance(val, tuple):
                    val = ",".join(repr(v) for v in val)
                lines.append(f"{section}.{key} = {val}")
        return "\n".join(lines) + "\n"

    def header_lines(self) -> list:
        return [f"# {line}" for line in self.to_text().splitlines()]


def defaults() -> RunConfig:
    errors: list = []
    vals = {}
    for section, keys in SCHEMA.items():
        for key, (tag, default) in keys.items():
            if isinstance(default, str):
                vals[f"{section}.{key}"] = _coerce(tag, default, "default", errors)
            else:
                vals[f"{section}.{key}"] = default
    assert not errors
    return RunConfig(values=vals)


def parse_text(text: str, source: str = "<config>") -> RunConfig:
    cfg = defaults()
    errors = []
    known = {f"{s}.{k}" for s in SCHEMA for k in SCHEMA[s]}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            errors.append(f"{source}:{lineno}: expected 'section.key = value', got {stripped!r}")
            continue
        dotted, _, raw = stripped.partition("=")
        dotted = dotted.strip()
        if dotted not in known:
            import difflib
            hint = difflib.get_close_matches(dotted, sorted(known), n=1)
            section_hint = difflib.get_close_matches(dotted.split(".")[0],
                                                     sorted(SCHEMA), n=1)
            suggestion = hint[0] if hint else (
                f"{section_hint[0]}.*" if section_hint else "no nearby section")
            errors.append(f"{source}:{lineno}: unknown key {dotted!r} (nearest: {suggestion})")
            continue
        section, key = dotted.split(".", 1)
        tag = SCHEMA[section][key][0]
        val = _coerce(tag, raw, f"{source}:{lineno}: {dotted}", errors)
        if val is not None:
            cfg.values[dotted] = val
    errors.extend(_validate(cfg))
    if errors:
        raise ConfigError(errors)
    return cfg


def parse_config(path: str) -> RunConfig:
    """Parse and fully validate a configuration file (all errors at once)."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError([f"cannot read config {path!r}: {exc}"]) from exc
    return parse_text(text, source=str(path))


def _validate(cfg: RunConfig) -> list:
    errors = []
    sigma = cfg["kernel.sigma"]
    if not (0.0 < sigma < 2.0):
        errors.append(f"kernel.sigma = {sigma} must lie in (0, 2)")
    family = cfg["kernel.family"]
    if family not in ("constant", "tilt", "quadratic_tilt", "csv"):
        errors.append(f"kernel.family = {family!r} not one of constant/tilt/quadratic_tilt/csv")
    if family == "csv" and not cfg["kernel.csv_path"]:
        errors.append("kernel.family = csv requires kernel.csv_path")
    if family in ("tilt", "quadratic_tilt") and abs(cfg["kernel.slope"]) > 1.0:
        errors.append(f"kernel.slope = {cfg['kernel.slope']} must satisfy |slope| <= 1")
    m = cfg["hamiltonian.m"]
    if not 1.0 < m <= M_MAX:
        errors.append(f"hamiltonian.m = {m} must exceed 1 and be at most {M_MAX:g}")
    from .hamiltonians import coefficient, model_bpm
    named = True
    for key in ("coefficient_a.kind", "hamiltonian.b", "hamiltonian.f"):
        try:
            coefficient(cfg[key])
        except ValueError as exc:
            errors.append(f"{key} = {cfg[key]!r}: {exc}")
            named = False
    if named and 1.0 < m <= M_MAX:
        try:
            cfg.hamiltonian = model_bpm(cfg["hamiltonian.b"], cfg["hamiltonian.f"], m)
        except ValueError as exc:
            errors.append(f"hamiltonian.b = {cfg['hamiltonian.b']!r}: {exc}")
    if cfg["grid.kind"] not in ("oscillating", "effective"):
        errors.append(f"grid.kind = {cfg['grid.kind']!r} not oscillating/effective")
    for key, least in (("grid.n", 8), ("grid.snapshots", 1), ("cell.n", 8),
                       ("cell.max_steps", 1), ("sweep.n_per_k", 16), ("sweep.snapshots", 1)):
        if cfg[key] < least:
            errors.append(f"{key} = {cfg[key]} must be at least {least}")
    # every list is non-empty; discounts and scales fall, table axes rise
    for key, sign in (("cell.deltas", -1), ("sweep.eps_list", -1), ("cell.table_x", 1),
                      ("cell.table_p", 1), ("cell.table_l", 1)):
        vals = cfg[key]
        if not vals:
            errors.append(f"{key} must not be empty")
        elif any(sign * (b - a) <= 0 for a, b in zip(vals, vals[1:])):
            errors.append(f"{key} must be strictly "
                          + ("increasing" if sign > 0 else "decreasing"))
    if any(d <= 0 for d in cfg["cell.deltas"]):
        errors.append("cell.deltas must be positive")
    # a scale eps = 1 / k needs n >= 16 k nodes to resolve the fast variable
    ks = [whole_reciprocal(e) for e in cfg["sweep.eps_list"]]
    errors.extend(f"sweep.eps_list entry {e} is not the reciprocal of an integer"
                  for e, k in zip(cfg["sweep.eps_list"], ks) if k is None)
    n_fixed = cfg["sweep.n_fixed"]
    if n_fixed != 0 and ks and None not in ks and n_fixed < 16 * max(ks):
        errors.append(f"sweep.n_fixed = {n_fixed} must be 0 or at least 16 / min eps = "
                      f"{16 * max(ks)}")
    e0, n = cfg["grid.eps"], cfg["grid.n"]
    if cfg["grid.kind"] == "oscillating":
        if (k0 := whole_reciprocal(e0)) is None:
            errors.append(f"grid.eps = {e0} is not the reciprocal of an integer")
        elif n < 16 * k0:
            errors.append(f"grid.n = {n} must be at least 16 / grid.eps = {16 * k0}")
    for key in ("grid.T", "sweep.T", "cell.tol"):
        if cfg[key] <= 0:
            errors.append(f"{key} = {cfg[key]} must be positive")
    if cfg["grid.u0"] not in _U0:
        errors.append(f"grid.u0 = {cfg['grid.u0']!r} not one of {'/'.join(_U0)}")

    # structural audit: asymmetric order-one kernels need the modulus integral
    if sigma == 1.0 and family != "constant" and not errors:
        from .kernels import modulus_log_integral
        try:
            k = _kernel(cfg)
        except (OSError, ValueError):
            return errors     # build_model reads it again and raises through main
        rep = None if k.symmetric else modulus_log_integral(k)
        cfg.kernel_audit = (k, rep)
        if rep is not None and not rep.finite:
            errors.append("kernel fails the order-one asymmetry audit: "
                          f"logarithmic modulus integral diverges ({rep.detail})")
    return errors


def _kernel(cfg: RunConfig):
    from . import kernels
    sigma = cfg["kernel.sigma"]
    family = cfg["kernel.family"]
    if family == "constant":
        return kernels.constant_kernel(sigma)
    if family == "tilt":
        return kernels.tilt_kernel(sigma, cfg["kernel.slope"])
    if family == "quadratic_tilt":
        return kernels.quadratic_tilt_kernel(sigma, cfg["kernel.slope"])
    path = cfg["kernel.csv_path"]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")       # numpy's warning on an empty file
            z, kbar = np.loadtxt(path, delimiter=",", usecols=(0, 1), ndmin=2).T
    except (OSError, ValueError) as exc:          # missing, unreadable, malformed
        kind = OSError if isinstance(exc, OSError) else ValueError
        raise kind(f"kernel.csv_path = {path}: {exc}") from None
    if z.size == 0:
        raise ValueError(f"kernel.csv_path = {path} holds no samples")
    if not (np.all(np.isfinite(z)) and np.all(np.isfinite(kbar))):
        raise ValueError(f"kernel.csv_path = {path} holds a sample that is not finite")
    return kernels.kernel_from_table(sigma, z, kbar)


_U0 = {
    "sin_2pi_x": lambda x: np.sin(2.0 * np.pi * x),
    "cos_2pi_x": lambda x: np.cos(2.0 * np.pi * x),
    "zero": lambda x: np.zeros_like(np.asarray(x, dtype=float)),
}


class Model(NamedTuple):
    """The run's model: kernel, coefficient a(x, y), Hamiltonian and initial
    datum, plus the kernel's order-one modulus integral if it was taken."""

    kernel: Any
    a: Callable
    ham: Any
    u0: Callable
    modulus: Any = None


def build_model(cfg: RunConfig) -> Model:
    """Build the model a validated configuration names, once per run; the
    kernel, modulus integral and Hamiltonian validation built are reused,
    not redone."""
    from .hamiltonians import coefficient, model_bpm
    kernel, modulus = cfg.kernel_audit or (_kernel(cfg), None)
    ham = cfg.hamiltonian or model_bpm(cfg["hamiltonian.b"], cfg["hamiltonian.f"],
                                       cfg["hamiltonian.m"])
    return Model(kernel=kernel, a=coefficient(cfg["coefficient_a.kind"]), ham=ham,
                 u0=_U0[cfg["grid.u0"]], modulus=modulus)
