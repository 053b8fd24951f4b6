"""Exception types shared across the package."""

from __future__ import annotations


class LplabError(Exception):
    """Base class for all package-specific failures."""


class DomainError(LplabError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConfigError(LplabError, ValueError):
    """A constants file or runtime configuration is malformed."""
