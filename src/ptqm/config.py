"""Run configuration: tolerance knobs, grid parameters, probe state.

Precedence (highest first): command-line flags, config file named by
--config, config file named by the PTQM_CONFIG environment variable,
built-in defaults. The file is JSON with keys matching the RunConfig
field names.
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Optional, Sequence

from .errors import ValidationError

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

    def validate(self) -> "RunConfig":
        for name in _TOL_FIELDS:
            value = getattr(self, name)
            if value is None:
                continue
            if not isinstance(value, (int, float)) or not value > 0:
                raise ValidationError(f"config: {name} must be > 0, got {value!r}")
        if not 0 < self.slack <= 1:
            raise ValidationError(f"config: slack must be in (0, 1], got {self.slack!r}")
        if not isinstance(self.num_points, int) or self.num_points < 1:
            raise ValidationError("config: num_points must be a positive integer")
        if not self.t_end >= self.t_start:
            raise ValidationError("config: t_end must be >= t_start")
        if self.signs is not None:
            if not all(e in (-1, 1) for e in self.signs):
                raise ValidationError("config: signs entries must be +1 or -1")
        if len(self.probe) != 2:
            raise ValidationError("config: probe must have two components")
        return self


def _coerce(name: str, value):
    if name == "signs":
        if not isinstance(value, list):
            raise ValidationError("config: signs must be a list")
        return [int(v) for v in value]
    if name == "probe":
        if not isinstance(value, list) or len(value) != 2:
            raise ValidationError("config: probe must be a list of two [re, im] pairs")
        out = []
        for part in value:
            if not isinstance(part, list) or len(part) != 2:
                raise ValidationError("config: probe entries must be [re, im] pairs")
            out.append(complex(float(part[0]), float(part[1])))
        return tuple(out)
    if name == "num_points":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValidationError("config: num_points must be an integer")
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"config: {name} must be a number, got {value!r}")
    return float(value)


def load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config {path} is not valid JSON: {exc}") from exc
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
    for key, value in (overrides or {}).items():
        if value is not None:
            setattr(cfg, key, value)
    return cfg.validate()


def parse_signs(text: str) -> list:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ValidationError(f"cannot parse signs {text!r}") from exc


def parse_probe(text: str) -> tuple:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 4:
        raise ValidationError("probe must be four comma-separated reals: "
                              "re(x),im(x),re(y),im(y)")
    try:
        vals: Sequence[float] = [float(p) for p in parts]
    except ValueError as exc:
        raise ValidationError(f"cannot parse probe {text!r}") from exc
    return (complex(vals[0], vals[1]), complex(vals[2], vals[3]))
