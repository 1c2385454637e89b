"""Run configuration: tolerance knobs, grid parameters, probe state.

Precedence (highest first): command-line flags, config file named by
--config, config file named by the PTQM_CONFIG environment variable,
built-in defaults. The file is JSON with keys matching the RunConfig
field names.
"""

from __future__ import annotations

import dataclasses
import math
import os
from typing import Optional

from .errors import MAX_GRID_POINTS, ValidationError
from .matio import _entry_to_complex, _load_json

ENV_CONFIG = "PTQM_CONFIG"

_TOL_FIELDS = ("tol", "cluster_tol", "rank_tol", "val_tol", "met_tol",
               "can_tol", "crit_tol", "free_tol")


@dataclasses.dataclass
class RunConfig:
    tol: float = 1e-8            # spectral classification band
    cluster_tol: Optional[float] = None  # eigenvalue clustering; None = solver default
    rank_tol: float = 1e-10      # singular-value rank threshold
    val_tol: float = 1e-10       # operator/state validation
    met_tol: float = 1e-8        # metric intertwining residual
    can_tol: float = 1e-8        # canonical-form residuals
    crit_tol: float = 1e-6       # cos(alpha) critical-point floor
    free_tol: float = 1e-8       # Kraus parallelism defect
    slack: float = 0.99          # dilation contraction slack
    t_start: float = 0.0
    t_end: float = 10.0
    num_points: int = 201
    signs: Optional[list] = None     # sign characteristic, one +-1 per real unit
    probe: tuple = (complex(1.0), complex(0.0))

    def validate(self, flags=frozenset()) -> "RunConfig":
        """Check every setting. flags names the fields given as command-line
        flags: an error involving one of them names the flag (--t-end for
        t_end), and an error involving none of them is the config's."""

        def fail(text, *names):
            for name in names:
                text = text.replace(f"{{{name}}}",
                                    "--" + name.replace("_", "-") if name in flags else name)
            raise ValidationError(text if flags.intersection(names) else "config: " + text)

        for name in _TOL_FIELDS:
            value = getattr(self, name)
            if value is None:
                continue
            if not isinstance(value, (int, float)) or not value > 0:
                fail("{%s} must be > 0, got %r" % (name, value), name)
        if not 0 < self.slack < 1:
            fail("{slack} must be in (0, 1), got %r" % (self.slack,), "slack")
        if not isinstance(self.num_points, int) or self.num_points < 1:
            fail("{num_points} must be a positive integer", "num_points")
        if self.num_points > MAX_GRID_POINTS:
            fail("{num_points} must be at most %d" % MAX_GRID_POINTS, "num_points")
        if not self.t_end >= self.t_start:
            fail("{t_end} must be >= {t_start}", "t_end", "t_start")
        if self.num_points > 1 and self.t_end == self.t_start:
            fail("{t_end} must exceed {t_start}", "t_end", "t_start")
        if self.signs is not None:
            if not all(e in (-1, 1) for e in self.signs):
                fail("{signs} entries must be +1 or -1", "signs")
        if len(self.probe) != 2:
            fail("{probe} must have two components", "probe")
        return self


def _coerce(name: str, value):
    if name == "signs":
        if not isinstance(value, list):
            raise ValidationError("config: signs must be a list")
        # JSON integers only: int() would truncate 1.7, and True == 1
        if not all(type(v) is int and v in (-1, 1) for v in value):
            raise ValidationError("config: signs entries must be +1 or -1")
        return value
    if name == "probe":
        if not isinstance(value, list) or len(value) != 2:
            raise ValidationError("config: probe must be a list of two [re, im] pairs")
        return tuple(_entry_to_complex(part, f"config: probe entry {i}")
                     for i, part in enumerate(value))
    if name == "num_points":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValidationError("config: num_points must be an integer")
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"config: {name} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError as exc:
        raise ValidationError(f"config: {name} is outside the floating-point range") from exc
    if not math.isfinite(number):
        raise ValidationError(f"config: {name} must be finite, got {number!r}")
    return number


def load_config_file(path: str) -> dict:
    data = _load_json(path, "config ")
    if not isinstance(data, dict):
        raise ValidationError(f"config {path}: expected a JSON object")
    known = {f.name for f in dataclasses.fields(RunConfig)}
    out = {}
    for key, value in data.items():
        if key not in known:
            raise ValidationError(f"config {path}: unknown key {key!r}")
        out[key] = _coerce(key, value)
    return out


def resolve_config(flag_path: Optional[str] = None,
                   overrides: Optional[dict] = None) -> RunConfig:
    """Defaults, then file (flag path wins over environment), then
    explicit overrides from parsed flags."""
    cfg = RunConfig()
    path = flag_path or os.environ.get(ENV_CONFIG)
    if path:
        for key, value in load_config_file(path).items():
            setattr(cfg, key, value)
    flags = {key for key, value in (overrides or {}).items() if value is not None}
    for key in flags:
        setattr(cfg, key, overrides[key])
    return cfg.validate(flags)


def parse_signs(text: str) -> list:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise ValidationError(f"cannot parse signs {text!r}") from exc


def parse_complex_text(text: str, name: str, count: int, form: str) -> tuple:
    """count complex numbers from comma-separated reals, re then im of
    each; form describes that layout when the count is wrong."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2 * count:
        raise ValidationError(f"{name} must be {form}")
    try:
        vals = [float(p) for p in parts]
    except ValueError as exc:
        raise ValidationError(f"cannot parse {name}: {text!r}") from exc
    if not all(map(math.isfinite, vals)):
        raise ValidationError(f"{name} must be finite, got {text!r}")
    return tuple(complex(re, im) for re, im in zip(vals[0::2], vals[1::2]))


def parse_probe(text: str) -> tuple:
    return parse_complex_text(text, "probe", 2,
                              "four comma-separated reals: re(x),im(x),re(y),im(y)")
