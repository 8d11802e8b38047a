"""Multi-tenant serving: many deployments behind one front-end.

The paper's adversary monitors *one* reference corpus; a production
fingerprinting service runs many — one per customer, per vantage point,
per experiment arm — and they must not observe each other.  The
:class:`TenantRegistry` is the whole mechanism: a named map of independent
:class:`~repro.serving.manager.DeploymentManager` instances sharing one
front-end, one scheduler and one metrics registry.

Isolation is enforced at three layers:

* **Routing** — every QUERY frame and control op resolves its tenant name
  through the registry before touching a deployment; an unknown name is a
  structured ``unknown-tenant`` error, never a fallback to someone else's
  corpus.
* **Batching** — the :class:`~repro.serving.scheduler.BatchScheduler`
  never mixes tenants in one micro-batch, because a batch classifies
  against exactly one tenant's snapshot.
* **Caching** — the scheduler's LRU key is the snapshot's ``cache_token``,
  which names the deployment manager as well as its generation, so two
  tenants at the same generation with byte-identical embeddings still get
  predictions from their own corpus, and a tenant re-created under a
  dropped one's name never sees the dropped one's answers.

Generations are per-tenant (each deployment manager counts its own
swaps), which is what lets tenant A churn, rebalance and requantize
freely while tenant B's cache stays warm.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional

from repro.serving.manager import DeploymentManager
from repro.serving.protocol import validate_tenant
from repro.serving.transport import ServingError

DEFAULT_TENANT = "default"


class UnknownTenantError(ServingError):
    """A tenant name that no deployment behind this front-end answers to."""

    def __init__(self, tenant: str) -> None:
        super().__init__(f"unknown tenant {tenant!r}")
        self.tenant = tenant


class TenantRegistry:
    """A named map of independent deployments sharing one front-end.

    Every front-end holds one: a single deployment is a registry whose only
    tenant is ``"default"``.  The registry is also a scheduler source —
    ``snapshot()`` is the default tenant's, ``get(name)`` routes a named
    tenant's batch.
    """

    def __init__(
        self,
        default: DeploymentManager,
        *,
        factory: Optional[Callable[[str], DeploymentManager]] = None,
        max_tenants: int = 64,
    ) -> None:
        """``default`` serves tenant ``"default"`` (and every frame without
        a tenant block).  ``factory`` provisions a fresh deployment when the
        ``tenant create`` control op lands; without one, tenants can only be
        registered in-process via :meth:`register`.  ``max_tenants`` caps
        provisioning so a hostile client cannot exhaust memory by creating
        deployments in a loop."""
        if max_tenants <= 0:
            raise ValueError("max_tenants must be positive")
        self._lock = threading.Lock()
        self._managers: Dict[str, DeploymentManager] = {DEFAULT_TENANT: default}
        self._owned: set = set()  # tenants we provisioned, hence close on drop
        self._factory = factory
        self.max_tenants = int(max_tenants)

    # ------------------------------------------------------------------ lookup
    @property
    def default(self) -> DeploymentManager:
        """The deployment serving tenant ``"default"``."""
        return self._managers[DEFAULT_TENANT]

    def get(self, tenant: Optional[str] = None) -> DeploymentManager:
        """The deployment serving ``tenant`` (``None`` = the default).

        Raises :class:`UnknownTenantError` for names nobody answers to —
        the caller maps that to an ``unknown-tenant`` wire error.
        """
        if tenant is None:
            tenant = DEFAULT_TENANT
        with self._lock:
            manager = self._managers.get(tenant)
        if manager is None:
            raise UnknownTenantError(tenant)
        return manager

    def names(self) -> List[str]:
        """Registered tenant names, default first, the rest sorted."""
        with self._lock:
            others = sorted(name for name in self._managers if name != DEFAULT_TENANT)
        return [DEFAULT_TENANT] + others

    def __contains__(self, tenant: str) -> bool:
        with self._lock:
            return tenant in self._managers

    def __len__(self) -> int:
        with self._lock:
            return len(self._managers)

    # ------------------------------------------------------------ provisioning
    def register(self, tenant: str, manager: DeploymentManager, *, owned: bool = False) -> None:
        """Attach an existing deployment under ``tenant``.

        ``owned`` marks the deployment as provisioned by this registry, so
        :meth:`drop` (and :meth:`close`) also shut down its executor.
        """
        validate_tenant(tenant)
        with self._lock:
            if tenant in self._managers:
                raise ServingError(f"tenant {tenant!r} already exists")
            if len(self._managers) >= self.max_tenants:
                raise ServingError(
                    f"tenant limit reached ({self.max_tenants}); drop one before creating another"
                )
            self._managers[tenant] = manager
            if owned:
                self._owned.add(tenant)

    def create(self, tenant: str) -> DeploymentManager:
        """Provision a fresh deployment for ``tenant`` via the factory."""
        validate_tenant(tenant)
        if self._factory is None:
            raise ServingError(
                "this front-end has no tenant factory; tenants must be registered in-process"
            )
        with self._lock:
            if tenant in self._managers:
                raise ServingError(f"tenant {tenant!r} already exists")
            if len(self._managers) >= self.max_tenants:
                raise ServingError(
                    f"tenant limit reached ({self.max_tenants}); drop one before creating another"
                )
        # Build outside the lock — a factory shards a corpus, which is slow —
        # then publish, re-checking for a racing create of the same name.
        manager = self._factory(tenant)
        with self._lock:
            if tenant in self._managers:
                manager.close()
                raise ServingError(f"tenant {tenant!r} already exists")
            self._managers[tenant] = manager
            self._owned.add(tenant)
        return manager

    def drop(self, tenant: str) -> None:
        """Tear down ``tenant``'s deployment (the default cannot be dropped)."""
        if tenant == DEFAULT_TENANT:
            raise ServingError("the default tenant cannot be dropped")
        with self._lock:
            manager = self._managers.pop(tenant, None)
            owned = tenant in self._owned
            self._owned.discard(tenant)
        if manager is None:
            raise UnknownTenantError(tenant)
        if owned:
            manager.close()

    # --------------------------------------------------------------- reporting
    def describe(self) -> Dict[str, Dict]:
        """Per-tenant shape: generation, references, classes, drift."""
        with self._lock:
            items = list(self._managers.items())
        report = {}
        for name, manager in items:
            store = manager.store
            report[name] = {
                "generation": manager.generation,
                "n_references": len(store),
                "n_classes": store.n_classes,
                "drift_ratio": float(store.drift_ratio()),
            }
        return report

    # ----------------------------------------------- scheduler-source protocol
    def snapshot(self):
        """The default tenant's live snapshot (queries without a tenant)."""
        return self.default.snapshot()

    # ------------------------------------------------------------------- close
    def close(self) -> None:
        """Shut down every registry-provisioned deployment's executor."""
        with self._lock:
            owned = [self._managers[name] for name in self._owned if name in self._managers]
            self._owned.clear()
        for manager in owned:
            manager.close()

    def __enter__(self) -> "TenantRegistry":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
