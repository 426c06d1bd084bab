"""Line-oriented run configuration: `section.key = value`, all defaults explicit.

Unknown keys are rejected with a suggestion; every validation error is
collected and reported together, not just the first.  A parsed configuration
round-trips exactly through its text form, and every output file echoes the
configuration it came from, so a run is reproducible from any artifact.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, NamedTuple, Optional

import numpy as np

_DEFAULT_DELTAS = "0.1,0.05,0.025,0.0125,0.00625,0.003125,0.0015625,0.001"

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
        "eps": ("float", Fraction(1, 8)),
        "table_csv": ("str", ""),             # effective solves below order one
    },
    "cell": {
        "x": ("float", 0.0),
        "p": ("float", 0.0),
        "l": ("float", 0.0),
        "deltas": ("floats", _DEFAULT_DELTAS),
        "n": ("int", 256),
        "tol": ("float", 1e-9),
        "max_steps": ("int", 500),            # Newton steps per discount
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
    text = text.strip()
    if "/" in text:
        return float(Fraction(text))
    return float(text)


def _coerce(tag: str, raw: str, where: str, errors: list) -> Any:
    raw = raw.strip()
    try:
        if tag == "int":
            return int(raw)
        if tag == "float":
            return _parse_number(raw)
        if tag == "floats":
            return tuple(_parse_number(tok) for tok in raw.split(",") if tok.strip())
        return raw
    except (ValueError, ZeroDivisionError):
        errors.append(f"{where}: cannot parse {raw!r} as {tag}")
        return None


@dataclass
class RunConfig:
    values: dict = field(default_factory=dict)
    # (kernel, its ModulusIntegralReport or None) when validation built the
    # kernel for the order-one asymmetry audit; build_model reuses both
    kernel_audit: Optional[tuple] = field(default=None, repr=False)

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
            elif isinstance(default, Fraction):
                vals[f"{section}.{key}"] = float(default)
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
    if cfg["hamiltonian.m"] <= 1.0:
        errors.append(f"hamiltonian.m = {cfg['hamiltonian.m']} must exceed 1")
    from .hamiltonians import coefficient, model_bpm
    named = True
    for key in ("coefficient_a.kind", "hamiltonian.b", "hamiltonian.f"):
        try:
            coefficient(cfg[key])
        except ValueError as exc:
            errors.append(f"{key} = {cfg[key]!r}: {exc}")
            named = False
    if named and cfg["hamiltonian.m"] > 1.0:
        try:
            model_bpm(cfg["hamiltonian.b"], cfg["hamiltonian.f"], cfg["hamiltonian.m"])
        except ValueError as exc:
            errors.append(f"hamiltonian.b = {cfg['hamiltonian.b']!r}: {exc}")
    if cfg["grid.kind"] not in ("oscillating", "effective"):
        errors.append(f"grid.kind = {cfg['grid.kind']!r} not oscillating/effective")
    if cfg["grid.n"] < 8:
        errors.append("grid.n must be at least 8")
    deltas = cfg["cell.deltas"]
    if any(d <= 0 for d in deltas) or list(deltas) != sorted(deltas, reverse=True):
        errors.append("cell.deltas must be positive and strictly decreasing")
    eps_list = cfg["sweep.eps_list"]
    for e in eps_list:
        if e <= 0 or abs(1.0 / e - round(1.0 / e)) > 1e-12:
            errors.append(f"sweep.eps_list entry {e} is not the reciprocal of an integer")
    if list(eps_list) != sorted(eps_list, reverse=True):
        errors.append("sweep.eps_list must be strictly decreasing")
    e0 = cfg["grid.eps"]
    if cfg["grid.kind"] == "oscillating" and (e0 <= 0 or abs(1.0 / e0 - round(1.0 / e0)) > 1e-12):
        errors.append(f"grid.eps = {e0} is not the reciprocal of an integer")
    if cfg["grid.u0"] not in ("sin_2pi_x", "cos_2pi_x", "zero"):
        errors.append(f"grid.u0 = {cfg['grid.u0']!r} not one of sin_2pi_x/cos_2pi_x/zero")

    # structural audit: asymmetric order-one kernels need the modulus integral
    if sigma == 1.0 and family != "constant" and not errors:
        from .kernels import modulus_log_integral
        try:
            k = _kernel(cfg)
        except OSError as exc:
            errors.append(f"cannot build kernel: {exc}")
            return errors
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
    data = np.loadtxt(cfg["kernel.csv_path"], delimiter=",")
    return kernels.kernel_from_table(sigma, data[:, 0], data[:, 1])


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
    kernel and modulus integral validation took are reused, not redone."""
    from .hamiltonians import coefficient, model_bpm
    kernel, modulus = cfg.kernel_audit or (_kernel(cfg), None)
    return Model(kernel=kernel, a=coefficient(cfg["coefficient_a.kind"]),
                 ham=model_bpm(cfg["hamiltonian.b"], cfg["hamiltonian.f"],
                               cfg["hamiltonian.m"]),
                 u0=_U0[cfg["grid.u0"]], modulus=modulus)
