"""Calibration constants with a file-based override.

Every asymptotic statement the library checks hides a universal constant
that the theory asserts exists but never pins down.  The ones that the
library or tools/calibrate.py read live here as one frozen dataclass:
n_min, the envelope, small-ball and negative-moment constants, the
containment windows of lemma_checks, the Monte Carlo windows that
tools/calibrate.py measures, and the memory guard.  The defaults are
committed; tests treat them as regression values, not as ground truth.

The dataclass defaults are the one source of the values; the CLI's
``--constants FILE`` is the one override.  Override format: flat
``key=value`` text, one pair per line, ``#`` comments allowed;
``dump_constants(DEFAULT_CONSTANTS)`` prints a complete template.
Unknown keys are rejected so that a stale or misspelled file fails
loudly.  Every field typed ``float`` must be positive and finite, and
each ``*_lo`` at most its ``*_hi``; a float constant added later is
checked without being listed.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError


@dataclass(frozen=True, slots=True)
class Constants:
    """Named calibration constants; see field comments for the contracts."""

    # smallest n for which the "n large" regime formulas are trusted;
    # operations refuse to extrapolate below it
    n_min: int = 100

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
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if field.type == "float" and not 0.0 < value < math.inf:
                raise ConfigError(f"{field.name} must be positive and finite, got {value}")
            if field.name.endswith("_hi"):
                lo_name = field.name[:-2] + "lo"
                lo = getattr(self, lo_name)
                if not lo <= value:
                    raise ConfigError(f"require {lo_name} <= {field.name}, got {lo}, {value}")
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
        convert = int if _FIELDS[key].type == "int" else float
        try:
            overrides[key] = convert(value_text)
        except ValueError as exc:
            raise ConfigError(
                f"{source}:{lineno}: bad value for {key!r}: {value_text!r}"
            ) from exc
    # Constants.__post_init__ refuses an out-of-range value with ConfigError
    return dataclasses.replace(DEFAULT_CONSTANTS, **overrides)


def load_constants(path: str | Path | None = None) -> Constants:
    """The constants in the file at path, or the defaults when path is None."""
    if path is None:
        return DEFAULT_CONSTANTS
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read constants file {path}: {exc}") from exc
    return parse_constants(text, source=str(path))


def dump_constants(constants: Constants) -> str:
    """Serialize as sorted key=value lines (the override format); repr round-trips."""
    return "".join(f"{name}={getattr(constants, name)!r}\n" for name in sorted(_FIELDS))
