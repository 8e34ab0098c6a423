"""Named tenant sessions sharing one service's resources.

A *tenant* is one reconciliation or crowd session — its own RNG
streams, feedback state, and (optionally) durability directory — that
the service multiplexes alongside the others.  The registry is the
name → tenant map plus the durability bookkeeping each tenant needs
(transaction counts for the checkpoint cadence).
"""

from __future__ import annotations

import pathlib
from typing import Optional

__all__ = ["SessionRegistry", "Tenant"]


class Tenant:
    """One registered session and its service-side bookkeeping."""

    __slots__ = (
        "name",
        "session",
        "kind",
        "weight",
        "checkpoint_dir",
        "checkpoint_every",
        "transactions",
    )

    def __init__(
        self,
        name: str,
        session,
        kind: str,
        weight: int,
        checkpoint_dir: Optional[pathlib.Path],
        checkpoint_every: int,
    ):
        self.name = name
        self.session = session
        self.kind = kind
        self.weight = weight
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_every = checkpoint_every
        self.transactions = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tenant({self.name!r}, {self.kind}, weight={self.weight})"


class SessionRegistry:
    """Name → :class:`Tenant` map."""

    def __init__(self):
        self._tenants: dict[str, Tenant] = {}

    def register(
        self,
        name: str,
        session,
        *,
        weight: int = 1,
        checkpoint_dir: "str | pathlib.Path | None" = None,
        checkpoint_every: int = 1,
    ) -> Tenant:
        """Admit a session under ``name``; names are unique while live.

        The tenant takes the session's ``kind`` (``"crowd"`` sessions run
        *rounds*, ``"expert"`` sessions run *steps*) — re-registering a
        recovered session after a crash uses the same entry point.
        """
        if weight < 1:
            raise ValueError("tenant weight must be positive")
        kind = session.kind
        directory = (
            pathlib.Path(checkpoint_dir) if checkpoint_dir is not None else None
        )
        tenant = Tenant(
            name, session, kind, weight, directory, checkpoint_every
        )
        if name in self._tenants:
            raise ValueError(f"tenant {name!r} is already registered")
        self._tenants[name] = tenant
        return tenant

    def get(self, name: str) -> Tenant:
        try:
            return self._tenants[name]
        except KeyError:
            raise KeyError(f"no tenant named {name!r}") from None

    def remove(self, name: str) -> Tenant:
        """Evict a tenant (e.g. after a crash, before re-admission)."""
        try:
            return self._tenants.pop(name)
        except KeyError:
            raise KeyError(f"no tenant named {name!r}") from None

    def names(self) -> list[str]:
        return sorted(self._tenants)

    def tenants(self) -> list[Tenant]:
        return list(self._tenants.values())

    def __contains__(self, name: str) -> bool:
        return name in self._tenants

    def __len__(self) -> int:
        return len(self._tenants)
