"""Cross-tenant catalog of reusable shard artefacts.

Many tenants of one service reconcile the *same* network (different
seeds, strategies, or feedback).  Three expensive artefacts depend only
on the network — not on any tenant's RNG or feedback — so computing them
once and sharing them is bit-identical to recomputing per tenant:

* **compiled sub-networks** — a shard's ``MatchingNetwork.restricted_to``
  is a pure function of (network, shard indices);
* **enumerated initial fills** — a small shard's unconditioned Ω is
  enumerated (no RNG consumed), so the post-fill store state is a pure
  function of (sub-network, sampling knobs);
* **delta results** — ``apply_network_delta`` is a pure function of
  (network, delta), and every tenant applying the same delta to the
  same network can share one ``DeltaResult`` (hence one successor
  network and one recompiled engine).

On the single-core boxes this repo targets, this sharing — not process
parallelism — is the service's throughput lever: N tenants over one
network pay one compile instead of N.

Entries are grouped per *network generation* and the generations form a
small LRU holding **strong** references: under a sustained delta stream
old networks retire quickly, and dropping a generation drops every
dependent sub-network, fill and delta result with it, bounding memory.
(The strong ref also keeps ``id(network)`` valid for exactly as long as
the key is live, so the id-keyed lookup cannot alias a recycled
address.)

The shard layer consumes this duck-typed (see ``ShardedSampleStore``);
nothing here imports the shard layer at module scope, so there is no
cycle.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Optional

__all__ = ["ShardCatalog"]


def _copy_store_state(state: dict) -> dict:
    """A mutation-safe copy of a sample-store state dict.

    Stores mutate their mask/feedback lists in place after adoption, so
    the catalog must never hand out (or keep) a list any store aliases.
    One level of list-copying suffices: the entries are ints and frozen
    ``Correspondence`` objects.
    """
    return {
        key: list(value) if isinstance(value, list) else value
        for key, value in state.items()
    }


class _Generation:
    """Everything cached for one network object."""

    __slots__ = ("network", "subnets", "fills", "deltas")

    def __init__(self, network):
        self.network = network
        self.subnets: dict[tuple, object] = {}
        self.fills: dict[tuple, dict] = {}
        self.deltas: dict[object, object] = {}


class ShardCatalog:
    """Shared compile/fill/delta cache across a service's tenants.

    ``max_networks`` bounds how many network generations stay cached;
    the default of 4 covers the live network plus a short delta history
    (tenants mid-command may briefly lag one generation behind).
    """

    def __init__(self, max_networks: int = 4):
        if max_networks < 1:
            raise ValueError("max_networks must be positive")
        self.max_networks = max_networks
        self._generations: "OrderedDict[int, _Generation]" = OrderedDict()
        self.subnet_hits = 0
        self.subnet_misses = 0
        self.fill_hits = 0
        self.fill_misses = 0
        self.delta_hits = 0
        self.delta_misses = 0

    def _generation(self, network) -> _Generation:
        """The (possibly new) generation entry for ``network``."""
        key = id(network)
        generation = self._generations.get(key)
        if generation is None:
            generation = _Generation(network)
            self._generations[key] = generation
            while len(self._generations) > self.max_networks:
                self._generations.popitem(last=False)
        else:
            self._generations.move_to_end(key)
        return generation

    # ------------------------------------------------------------------
    # Compiled sub-networks
    # ------------------------------------------------------------------
    def subnetwork(self, network, indices: tuple, build: Callable):
        """The compiled sub-network over ``indices``, shared verbatim.

        Sub-networks are immutable once compiled (stores condition their
        *own* feedback, never the network), so every tenant can hold the
        same object.
        """
        generation = self._generation(network)
        cached = generation.subnets.get(indices)
        if cached is not None:
            self.subnet_hits += 1
            return cached
        self.subnet_misses += 1
        built = generation.subnets[indices] = build()
        return built

    # ------------------------------------------------------------------
    # Enumerated initial fills
    # ------------------------------------------------------------------
    def enumerated_fill(self, network, key: tuple) -> Optional[dict]:
        """A copy of the cached unconditioned fill state, if published."""
        state = self._generation(network).fills.get(key)
        if state is None:
            self.fill_misses += 1
            return None
        self.fill_hits += 1
        return _copy_store_state(state)

    def put_enumerated_fill(self, network, key: tuple, state: dict) -> None:
        fills = self._generation(network).fills
        if key not in fills:
            fills[key] = _copy_store_state(state)

    # ------------------------------------------------------------------
    # Delta results
    # ------------------------------------------------------------------
    def delta_result(self, network, delta, compute: Callable):
        """The shared :class:`~repro.core.delta.DeltaResult` for ``delta``.

        The first tenant to apply ``delta`` against ``network`` pays the
        incremental recompile; every other tenant adopts the *same*
        result object — and therefore the same successor network, which
        keeps the whole fleet in one catalog generation instead of N.
        """
        generation = self._generation(network)
        cached = generation.deltas.get(delta)
        if cached is not None:
            self.delta_hits += 1
            return cached
        self.delta_misses += 1
        result = generation.deltas[delta] = compute()
        # Register the successor as the newest generation: every tenant
        # on ``network`` moves to it next.
        self._generation(result.network)
        return result

    def stats(self) -> dict:
        return {
            "networks": len(self._generations),
            "subnet_hits": self.subnet_hits,
            "subnet_misses": self.subnet_misses,
            "fill_hits": self.fill_hits,
            "fill_misses": self.fill_misses,
            "delta_hits": self.delta_hits,
            "delta_misses": self.delta_misses,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShardCatalog({len(self._generations)} network generations)"
