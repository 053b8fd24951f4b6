"""Calibration constants with file-based overrides.

Every asymptotic statement the library checks hides a universal constant
that the theory asserts exists but never pins down.  All such constants
live here as one frozen dataclass.  The defaults were measured once on
reference grids (see tools/calibrate.py) and committed; tests treat them
as regression values, not as ground truth.

Override format: flat ``key=value`` text, one pair per line, ``#``
comments allowed.  Unknown keys are rejected so that a stale or
misspelled fixture fails loudly.  The packaged fixture
``data/constants_default.cfg`` mirrors the dataclass defaults exactly.
The environment variable ``LPLAB_CONSTANTS`` points the loader at an
alternative file.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .errors import ConfigError

_ENV_VAR = "LPLAB_CONSTANTS"


@dataclass(frozen=True, slots=True)
class Constants:
    """Named calibration constants; see field comments for the contracts."""

    # smallest n for which the "n large" regime formulas are trusted;
    # operations refuse to extrapolate below it
    n_min: int = 100

    # quadrature / closed-form-scale containment for truncated moments,
    # measured over q in [1, 600], a in [1, 30]
    moment_bracket_lo: float = 0.1
    moment_bracket_hi: float = 4.0

    # order-statistic lower-deviation bounds: exp(-(c i/u)(...)^(1-u^2))
    dev_initial_c: float = 0.01
    # admissible u range ends at 1 - C/log n
    dev_initial_C: float = 1.0
    # exp(-c (1-u)^2 i log(n/i))
    dev_intermediate_c: float = 0.05

    # small-ball bound prefactors min(C' exp(-c n^(...)), ...)
    small_ball_c: float = 1.0
    small_ball_C: float = 1.0
    # negative-moment precondition q*L <= K log n
    negative_moment_K: float = 6.0
    # 1 + log A >= log_a_slope * p on p in [1, 3 log n]
    log_a_slope: float = 0.2
    # MC variance / predicted variance containment window at n >= 10^3
    mc_ratio_lo: float = 0.1
    mc_ratio_hi: float = 2.0
    # variance upper envelope times log n stays below this cap
    envelope_cap_C: float = 40.0
    # lower envelope floor c/log n, active for p >= floor_threshold_C * log n
    envelope_floor_c: float = 0.25
    floor_threshold_C: float = 3.0

    # containment windows for the closed-form lemma scale checks
    mexpm_lo: float = 0.5
    mexpm_hi: float = 2.0
    mom2p_lo: float = 0.2
    mom2p_hi: float = 5.0

    # empirical truncation-gap dominance: E gap^2 <= c * n T^-3 e^{-T^2/2}
    tails_gap_c: float = 4.0
    # empirical negative-moment dominance: estimate <= v * closed bound
    neg_moment_v: float = 4.0

    # refuse MC allocations whose working set would exceed this
    memory_guard_bytes: int = 2_147_483_648

    def __post_init__(self) -> None:
        if self.n_min < 2:
            raise ConfigError("n_min must be at least 2")
        for lo_name, hi_name in (
            ("moment_bracket_lo", "moment_bracket_hi"),
            ("mc_ratio_lo", "mc_ratio_hi"),
            ("mexpm_lo", "mexpm_hi"),
            ("mom2p_lo", "mom2p_hi"),
        ):
            lo = getattr(self, lo_name)
            hi = getattr(self, hi_name)
            if not (0.0 < lo <= hi) or not math.isfinite(hi):
                raise ConfigError(
                    f"require 0 < {lo_name} <= {hi_name} and finite, got {lo}, {hi}"
                )
        for name in (
            "dev_initial_c",
            "dev_initial_C",
            "dev_intermediate_c",
            "small_ball_c",
            "small_ball_C",
            "negative_moment_K",
            "log_a_slope",
            "envelope_cap_C",
            "envelope_floor_c",
            "floor_threshold_C",
            "tails_gap_c",
            "neg_moment_v",
        ):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise ConfigError(f"{name} must be positive and finite, got {value}")
        if self.memory_guard_bytes < 1_048_576:
            raise ConfigError("memory_guard_bytes must be at least 1 MiB")


_FIELDS = {f.name: f for f in dataclasses.fields(Constants)}

DEFAULT_CONSTANTS = Constants()


def parse_constants(text: str, source: str = "<string>") -> Constants:
    """Parse flat key=value text into a Constants instance.

    Unknown keys, repeated keys, and unparsable numbers all raise
    ConfigError with the offending line number.
    """
    overrides: dict[str, float | int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected key=value, got {raw!r}")
        key, _, value_text = line.partition("=")
        key = key.strip()
        value_text = value_text.strip()
        if key not in _FIELDS:
            raise ConfigError(f"{source}:{lineno}: unknown constant {key!r}")
        if key in overrides:
            raise ConfigError(f"{source}:{lineno}: duplicate constant {key!r}")
        target_type = _FIELDS[key].type
        try:
            if target_type == "int":
                overrides[key] = int(value_text)
            else:
                overrides[key] = float(value_text)
        except ValueError as exc:
            raise ConfigError(
                f"{source}:{lineno}: bad value for {key!r}: {value_text!r}"
            ) from exc
    try:
        return dataclasses.replace(DEFAULT_CONSTANTS, **overrides)
    except ConfigError:
        raise
    except Exception as exc:  # dataclass replace surfacing validation
        raise ConfigError(str(exc)) from exc


def load_constants_file(path: str | Path) -> Constants:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read constants file {path}: {exc}") from exc
    return parse_constants(text, source=str(path))


def default_constants_path() -> Path:
    """Path of the packaged fixture mirroring the dataclass defaults."""
    return Path(resources.files("lplab").joinpath("data/constants_default.cfg"))


def load_constants(path: str | Path | None = None) -> Constants:
    """Resolve constants: explicit path, else $LPLAB_CONSTANTS, else defaults."""
    if path is not None:
        return load_constants_file(path)
    env_path = os.environ.get(_ENV_VAR)
    if env_path:
        return load_constants_file(env_path)
    return DEFAULT_CONSTANTS


def dump_constants(constants: Constants) -> str:
    """Serialize as sorted key=value lines (the fixture format)."""
    lines = []
    for name in sorted(_FIELDS):
        value = getattr(constants, name)
        if isinstance(value, int):
            lines.append(f"{name}={value}")
        else:
            lines.append(f"{name}={value!r}")
    return "\n".join(lines) + "\n"
