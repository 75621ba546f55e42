"""Errors raised by the declarative build plane.

Everything user-facing derives from :class:`SpecError` so callers (the
CLI, the scenario runner) can catch one type.
"""

from __future__ import annotations

from typing import Iterable, Optional


class SpecError(ValueError):
    """A malformed scenario document or build specification."""


class RegistryError(SpecError):
    """A registry misuse: duplicate or unknown kind."""


class DuplicateKindError(RegistryError):
    """The same kind was registered twice in one registry."""


class UnknownKindError(RegistryError):
    """A kind no builder was registered for."""


def did_you_mean(word: str, candidates: Iterable[str]) -> Optional[str]:
    """The closest candidate to *word*, or None if nothing is close."""
    import difflib
    matches = difflib.get_close_matches(word, list(candidates), n=1, cutoff=0.6)
    return matches[0] if matches else None


def unknown_key_message(
    key: str, context: str, accepted: Iterable[str]
) -> str:
    """Error text for an unknown document key, with a suggestion."""
    accepted = sorted(accepted)
    message = f"unknown key {key!r} in {context}"
    suggestion = did_you_mean(key, accepted)
    if suggestion is not None:
        message += f" (did you mean {suggestion!r}?)"
    message += f"; accepted keys: {', '.join(accepted)}"
    return message
