"""The scenario engine: adversarial + operational replays against a live server.

A :class:`ScenarioSpec` declares everything one replay does — which traffic
mix the victim generates, which padding defence the victim deploys, how the
monitored pages drift, which churn operations and faults land mid-replay,
and how many tenants share the front-end.  The :class:`ScenarioRunner`
executes that spec against a **running** ``repro serve`` front-end over the
real wire protocol: it provisions one isolated tenant per corpus via the
``tenant``/``add`` control ops, replays the first half of every tenant's
query stream from concurrent client connections, injects the scenario's
mid-replay events (churn, drift-driven ``replace_class``, replica kills)
into the *victim* tenant only, replays the second half, and folds
everything into a :class:`ScenarioReport`: recall@1/@k against the known
page labels, client-side p50/p99 latency (quantiles of the pooled
round-trip histogram), defence bandwidth overhead,
update cost priced with the paper's own Table III profile, and a
per-tenant isolation verdict.

Isolation is measured, not assumed: every tenant's corpus uses a different
seed and a tenant-prefixed label namespace, so a single prediction leaking
across deployments — or a bystander tenant's generation moving while the
victim churns — flips ``isolation_ok``.

:class:`ServedScenarioHost` self-hosts a disposable front-end (the same
stack ``repro serve`` wires up, sized down) so scenarios can run without
external orchestration; point the runner at any reachable host/port to
exercise a real deployment instead.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, asdict
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.costs import adaptive_profile
from repro.defences import defence_from_spec
from repro.defences.base import TraceDefence
from repro.scenarios.corpus import GENERATOR_KINDS, ScenarioCorpus
from repro.serving.loadgen import ReplayResult, open_world_mix, replay
from repro.serving.protocol import FrontendClient, ProtocolError, validate_tenant
from repro.web import ContentDrift, drift_from_spec

FAULT_KINDS = ("replica-flap",)


class ScenarioSpecError(ValueError):
    """A scenario spec that cannot be run, naming the offending field."""

    def __init__(self, field_name: str, message: str) -> None:
        super().__init__(message)
        self.field = field_name


@dataclass
class ScenarioSpec:
    """A declarative description of one adversarial/operational replay.

    ``defence`` and ``drift`` are the declarative dicts understood by
    :func:`repro.defences.defence_from_spec` and
    :func:`repro.web.drift_from_spec` (``drift`` additionally takes a
    ``"fraction"`` of pages to update).  ``churn`` counts mid-replay
    corpus operations (``{"replace": 2, "add": 1, "remove": 1}``);
    ``open_world`` mixes unmonitored-page queries into the stream
    (``{"fraction": 0.3}``); ``faults`` names infrastructure failures from
    :data:`FAULT_KINDS`.  Everything is deterministic in ``seed``.
    """

    name: str
    description: str = ""
    generator: str = "wiki"
    n_pages: int = 10
    visits_per_page: int = 8
    holdout_pages: int = 2
    embedding_dim: int = 16
    n_queries: int = 120
    top_k: int = 3
    request_batch_size: int = 16
    n_clients: int = 2
    defence: Optional[Dict] = None
    drift: Optional[Dict] = None
    churn: Optional[Dict] = None
    open_world: Optional[Dict] = None
    faults: Tuple[str, ...] = ()
    replica_position: int = 1
    seed: int = 0

    def validate(self) -> None:
        """Reject a corrupt spec with a structured error before any I/O.

        Defence specs surface :class:`repro.defences.DefenceConfigError`
        (whose ``.field`` names the bad knob) unchanged; everything else
        raises :class:`ScenarioSpecError`.  A spec that passes here will
        not blow up mid-replay on configuration, only on live behaviour —
        which is the point of a fault-injection harness.
        """
        if not self.name:
            raise ScenarioSpecError("name", "a scenario needs a name")
        if self.generator not in GENERATOR_KINDS:
            raise ScenarioSpecError(
                "generator", f"unknown generator {self.generator!r}; expected one of {GENERATOR_KINDS}"
            )
        for field_name in ("n_pages", "visits_per_page", "n_queries", "top_k", "embedding_dim",
                           "request_batch_size", "n_clients"):
            if int(getattr(self, field_name)) <= 0:
                raise ScenarioSpecError(field_name, f"{field_name} must be positive")
        if self.holdout_pages < 0 or self.holdout_pages >= self.n_pages:
            raise ScenarioSpecError("holdout_pages", "holdout_pages must be in [0, n_pages)")
        self.defence_transform()  # raises DefenceConfigError on a corrupt defence
        self.drift_model()
        if self.drift is not None and self.drift.get("kind") not in (None, "none"):
            fraction = float(self.drift.get("fraction", 0.5))
            if not 0.0 < fraction <= 1.0:
                raise ScenarioSpecError("drift", "drift fraction must be in (0, 1]")
        if self.churn is not None:
            if not isinstance(self.churn, dict):
                raise ScenarioSpecError("churn", "churn must be a dict of op counts")
            unknown = set(self.churn) - {"replace", "add", "remove"}
            if unknown:
                raise ScenarioSpecError("churn", f"unknown churn ops: {sorted(unknown)}")
            for op, count in self.churn.items():
                if int(count) < 0:
                    raise ScenarioSpecError("churn", f"churn count for {op!r} must be >= 0")
        if self.open_world is not None:
            fraction = float(self.open_world.get("fraction", 0.2))
            if not 0.0 <= fraction < 1.0:
                raise ScenarioSpecError("open_world", "open-world fraction must be in [0, 1)")
        for fault in self.faults:
            if fault not in FAULT_KINDS:
                raise ScenarioSpecError(
                    "faults", f"unknown fault {fault!r}; expected one of {FAULT_KINDS}"
                )

    def defence_transform(self) -> Optional[TraceDefence]:
        """The spec's defence as a live transform (None = undefended)."""
        return defence_from_spec(self.defence)

    def drift_model(self) -> Optional[ContentDrift]:
        """The spec's drift schedule as a live model (None = static pages)."""
        try:
            return drift_from_spec(self.drift)
        except ValueError as error:
            raise ScenarioSpecError("drift", str(error)) from error

    def as_dict(self) -> Dict:
        """The spec as a JSON-serialisable dict (reports, BENCH snapshots)."""
        data = asdict(self)
        data["faults"] = list(self.faults)
        return data


@dataclass
class TenantReport:
    """One tenant's view of a scenario replay."""

    tenant: str
    victim: bool
    n_queries: int
    failed: int
    recall_at_1: float
    recall_at_k: float
    p50_ms: float
    p99_ms: float
    generation_start: int
    generation_end: int
    foreign_labels: int
    isolation_ok: bool

    def as_dict(self) -> Dict:
        """The report row as a JSON-serialisable dict."""
        return asdict(self)


@dataclass
class ScenarioReport:
    """Everything one scenario replay measured, ready for BENCH output."""

    scenario: str
    description: str
    tenants: List[TenantReport]
    n_queries: int
    failed: int
    recall_at_1: float
    recall_at_k: float
    top_k: int
    p50_ms: float
    p99_ms: float
    defence_overhead: float
    update_cost: Optional[Dict]
    drift_info: Optional[Dict]
    faults_injected: List[str]
    isolation_ok: bool
    duration_s: float
    spec: Dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """The acceptance gate: nothing failed and nothing leaked."""
        return self.failed == 0 and self.isolation_ok

    def as_dict(self) -> Dict:
        """The report as a JSON-serialisable dict."""
        data = asdict(self)
        data["tenants"] = [tenant.as_dict() for tenant in self.tenants]
        data["ok"] = self.ok
        return data


@dataclass
class _TenantRun:
    """Internal per-tenant replay state threaded through the two phases."""

    tenant: str
    corpus: ScenarioCorpus
    allowed_labels: Set[str]
    embeddings: np.ndarray
    true_labels: List[Optional[str]]  # None = open-world outlier
    overhead: float
    removed_labels: Set[str] = field(default_factory=set)
    result: ReplayResult = field(default_factory=ReplayResult)  # both phases, merged
    phase2_override: Optional[Tuple[np.ndarray, List[Optional[str]]]] = None


class ScenarioRunner:
    """Execute scenario specs against a live front-end over the wire.

    The runner owns nothing on the server: every run provisions its
    tenants (``{prefix}-0`` … ``{prefix}-{n-1}``) through control ops,
    drives them, and drops them again — so it can point at a long-lived
    deployment without leaving state behind.  ``tenants`` >= 2 makes the
    isolation checks meaningful; tenant 0 is always the *victim* that
    receives the scenario's churn, drift and faults while the bystanders
    replay undisturbed.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        tenants: int = 2,
        tenant_prefix: str = "scn",
        timeout_s: float = 120.0,
    ) -> None:
        if tenants <= 0:
            raise ValueError("tenants must be positive")
        validate_tenant(tenant_prefix)
        self.host = host
        self.port = int(port)
        self.n_tenants = int(tenants)
        self.tenant_prefix = tenant_prefix
        self.timeout_s = float(timeout_s)

    # ------------------------------------------------------------ provisioning
    def _tenant_names(self) -> List[str]:
        return [f"{self.tenant_prefix}-{index}" for index in range(self.n_tenants)]

    def _provision(
        self, client: FrontendClient, spec: ScenarioSpec, runs: List[_TenantRun]
    ) -> None:
        """Create and populate the tenants, appending each to ``runs`` the
        moment it exists on the server so a failure half-way leaks none."""
        for index, tenant in enumerate(self._tenant_names()):
            corpus = ScenarioCorpus.build(
                generator=spec.generator,
                n_pages=spec.n_pages,
                visits_per_page=spec.visits_per_page,
                dim=spec.embedding_dim,
                seed=spec.seed + 97 * index,
                holdout_pages=spec.holdout_pages,
            )
            try:
                client.create_tenant(tenant)
            except ProtocolError:
                # A leftover tenant from an aborted run: recycle it so the
                # replay starts from a clean corpus.
                client.drop_tenant(tenant)
                client.create_tenant(tenant)
            runs.append(
                _TenantRun(
                    tenant=tenant,
                    corpus=corpus,
                    allowed_labels={f"{tenant}/{label}" for label in corpus.reference.class_names},
                    embeddings=np.empty((0, spec.embedding_dim)),
                    true_labels=[],
                    overhead=0.0,
                )
            )
            for label, embeddings in corpus.reference_embeddings().items():
                client.add_class(f"{tenant}/{label}", embeddings, tenant=tenant)

    def _build_streams(self, runs: List[_TenantRun], spec: ScenarioSpec) -> None:
        defence = spec.defence_transform()
        for index, run in enumerate(runs):
            rng = np.random.default_rng(spec.seed + 13 * index + 1)
            embeddings, labels, overhead = run.corpus.query_stream(
                spec.n_queries, defence=defence, rng=rng
            )
            true_labels: List[Optional[str]] = [f"{run.tenant}/{label}" for label in labels]
            if spec.open_world is not None:
                fraction = float(spec.open_world.get("fraction", 0.2))
                n_outliers = int(round(spec.n_queries * fraction))
                if n_outliers:
                    reference = np.concatenate(
                        list(run.corpus.reference_embeddings().values()), axis=0
                    )
                    outliers, _ = open_world_mix(
                        reference,
                        n_outliers,
                        unmonitored_fraction=1.0,
                        outlier_shift=float(spec.open_world.get("outlier_shift", 25.0)),
                        rng=rng,
                    )
                    embeddings = np.concatenate([embeddings, outliers], axis=0)
                    true_labels = true_labels + [None] * n_outliers
                    order = rng.permutation(len(true_labels))
                    embeddings = embeddings[order]
                    true_labels = [true_labels[i] for i in order]
            run.embeddings = embeddings
            run.true_labels = true_labels
            run.overhead = overhead

    # ----------------------------------------------------------------- replay
    def _replay_phase(
        self, runs: List[_TenantRun], spec: ScenarioSpec, phase: int
    ) -> None:
        """Replay one half of every tenant's stream, tenants in parallel."""

        def replay_one(run: _TenantRun) -> None:
            half = run.embeddings.shape[0] // 2
            if phase == 0:
                block = run.embeddings[:half]
            elif run.phase2_override is not None:
                block, _ = run.phase2_override
            else:
                block = run.embeddings[half:]
            if block.shape[0]:
                run.result.merge_from(
                    replay(
                        self.host, self.port, block,
                        request_batch_size=spec.request_batch_size, top_n=spec.top_k,
                        tenant=run.tenant, n_clients=spec.n_clients, timeout_s=self.timeout_s,
                    )
                )

        with ThreadPoolExecutor(max_workers=len(runs)) as pool:
            list(pool.map(replay_one, runs))  # consuming the map re-raises a tenant's error

    # ------------------------------------------------------------- mid-replay
    def _inject_events(
        self, client: FrontendClient, victim: _TenantRun, spec: ScenarioSpec
    ) -> Tuple[Optional[Dict], Optional[Dict], List[str]]:
        """Apply churn/drift/faults to the victim tenant between the halves."""
        updated_classes = 0
        drift_info: Optional[Dict] = None
        faults: List[str] = []
        corpus = victim.corpus
        monitored = corpus.monitored_labels

        if spec.churn:
            n_replace = int(spec.churn.get("replace", 0))
            for label in monitored[:n_replace]:
                refreshed = corpus.embedder.embed(corpus.recrawl([label], seed_offset=3))
                client.replace_class(f"{victim.tenant}/{label}", refreshed, tenant=victim.tenant)
                updated_classes += 1
            n_add = int(spec.churn.get("add", 0))
            for label in corpus.holdout_labels[:n_add]:
                embeddings = corpus.reference_embeddings(labels=[label])[label]
                client.add_class(f"{victim.tenant}/{label}", embeddings, tenant=victim.tenant)
                updated_classes += 1
            n_remove = int(spec.churn.get("remove", 0))
            removable = [label for label in reversed(monitored) if label not in monitored[:n_replace]]
            for label in removable[:n_remove]:
                client.remove_class(f"{victim.tenant}/{label}", tenant=victim.tenant)
                victim.removed_labels.add(f"{victim.tenant}/{label}")
                updated_classes += 1

        model = spec.drift_model()
        if model is not None:
            drift_rng = np.random.default_rng(spec.seed + 7)
            fraction = float((spec.drift or {}).get("fraction", 0.5))
            updated_pages = model.apply_to_website(corpus.website, drift_rng, fraction)
            drifted = [page for page in updated_pages if page in monitored]
            requantized = False
            if drifted:
                # The adversary's adaptation loop: recrawl the updated pages
                # and swap in fresh references, retraining-free.
                fresh = corpus.recrawl(drifted, seed_offset=5)
                fresh_embeddings = corpus.embedder.embed(fresh)
                for label in fresh.class_names:
                    rows = fresh.labels == fresh.class_names.index(label)
                    client.replace_class(
                        f"{victim.tenant}/{label}", fresh_embeddings[rows], tenant=victim.tenant
                    )
                    updated_classes += 1
                info = client.info(tenant=victim.tenant)
                if info.get("retrain_needed"):
                    client.requantize(tenant=victim.tenant)
                    requantized = True
                # The victim's phase-two traffic comes from the *drifted*
                # pages (plus untouched ones), so recall after adaptation is
                # measured against genuinely shifted traffic.
                victim_rng = np.random.default_rng(spec.seed + 11)
                drifted_queries = corpus.recrawl(drifted, seed_offset=6)
                half = victim.embeddings.shape[0] - victim.embeddings.shape[0] // 2
                embeddings, labels, _ = corpus.query_stream(
                    max(half, 1),
                    defence=spec.defence_transform(),
                    labels=drifted + [p for p in monitored if p not in drifted],
                    source=drifted_queries.merge(corpus.queries),
                    rng=victim_rng,
                )
                victim.phase2_override = (
                    embeddings,
                    [f"{victim.tenant}/{label}" for label in labels],
                )
            drift_info = {
                "updated_pages": list(updated_pages),
                "monitored_updated": drifted,
                "requantized": requantized,
            }

        for fault in spec.faults:
            if fault == "replica-flap":
                client.kill_replica(spec.replica_position, tenant=victim.tenant)
                faults.append(fault)

        cost: Optional[Dict] = None
        if updated_classes:
            model_cost = adaptive_profile().cost_model
            breakdown = model_cost.update_cost(updated_classes, len(monitored))
            cost = {
                "updated_classes": updated_classes,
                "collection": breakdown.collection,
                "computation": breakdown.computation,
                "total": breakdown.total,
            }
        return cost, drift_info, faults

    def _heal_faults(self, client: FrontendClient, victim: _TenantRun, spec: ScenarioSpec) -> None:
        for fault in spec.faults:
            if fault == "replica-flap":
                client.restore_replica(spec.replica_position, tenant=victim.tenant)

    # ------------------------------------------------------------------ scoring
    def _score_tenant(
        self, run: _TenantRun, spec: ScenarioSpec, victim: bool, events_applied: bool
    ) -> TenantReport:
        result = run.result
        half = run.embeddings.shape[0] // 2
        truths = run.true_labels[:half] + (
            run.true_labels[half:] if run.phase2_override is None else run.phase2_override[1]
        )

        hits_1 = hits_k = scored = 0
        foreign = 0
        for prediction, truth in zip(result.predictions, truths):
            if prediction is None:
                continue
            labels = list(prediction[0])
            foreign += sum(1 for label in labels if label not in run.allowed_labels)
            if truth is None or truth in run.removed_labels:
                continue  # open-world outlier / retired class: no oracle label
            scored += 1
            if labels[:1] == [truth]:
                hits_1 += 1
            if truth in labels[: spec.top_k]:
                hits_k += 1

        generations = [g for g in result.generations if g >= 0]
        generation_start = min(generations) if generations else -1
        generation_end = max(generations) if generations else -1
        isolation_ok = foreign == 0
        if events_applied and not victim and generation_start != generation_end:
            # A bystander's deployment moved while someone else churned:
            # that is a cross-tenant leak even if no label escaped.
            isolation_ok = False
        return TenantReport(
            tenant=run.tenant,
            victim=victim,
            n_queries=result.n_queries,
            failed=result.failed,
            recall_at_1=hits_1 / scored if scored else 0.0,
            recall_at_k=hits_k / scored if scored else 0.0,
            p50_ms=result.p50_ms,
            p99_ms=result.p99_ms,
            generation_start=generation_start,
            generation_end=generation_end,
            foreign_labels=foreign,
            isolation_ok=isolation_ok,
        )

    # --------------------------------------------------------------------- run
    def run(self, spec: ScenarioSpec) -> ScenarioReport:
        """Provision, replay, inject, score — one scenario end to end."""
        spec.validate()
        started = time.monotonic()
        runs: List[_TenantRun] = []
        completed = False
        with FrontendClient(self.host, self.port, timeout_s=self.timeout_s) as client:
            try:
                self._provision(client, spec, runs)
                self._build_streams(runs, spec)
                victim = runs[0]
                self._replay_phase(runs, spec, phase=0)
                cost, drift_info, faults = self._inject_events(client, victim, spec)
                events_applied = bool(cost or drift_info or faults)
                try:
                    self._replay_phase(runs, spec, phase=1)
                finally:
                    self._heal_faults(client, victim, spec)
                completed = True
            finally:
                for run in runs:
                    try:
                        client.drop_tenant(run.tenant)
                    except (ProtocolError, OSError):
                        if completed:  # never mask the error that got us here
                            raise
        reports = [
            self._score_tenant(run, spec, victim=(run is victim), events_applied=events_applied)
            for run in runs
        ]
        pooled = ReplayResult()
        for run in runs:
            pooled.merge_from(run.result)
        scored = [report for report in reports if report.n_queries]
        weights = np.array([report.n_queries for report in scored], dtype=np.float64)
        recall_1 = float(np.average([r.recall_at_1 for r in scored], weights=weights)) if scored else 0.0
        recall_k = float(np.average([r.recall_at_k for r in scored], weights=weights)) if scored else 0.0
        return ScenarioReport(
            scenario=spec.name,
            description=spec.description,
            tenants=reports,
            n_queries=pooled.n_queries,
            failed=pooled.failed,
            recall_at_1=recall_1,
            recall_at_k=recall_k,
            top_k=spec.top_k,
            p50_ms=pooled.p50_ms,
            p99_ms=pooled.p99_ms,
            defence_overhead=float(np.mean([run.overhead for run in runs])),
            update_cost=cost,
            drift_info=drift_info,
            faults_injected=faults,
            isolation_ok=all(report.isolation_ok for report in reports),
            duration_s=time.monotonic() - started,
            spec=spec.as_dict(),
        )


class ServedScenarioHost:
    """A disposable self-hosted front-end for scenario replays.

    Wires up the same stack as ``repro serve`` — sharded store behind a
    replica router, batch scheduler, TCP front-end — plus a
    :class:`~repro.serving.tenancy.TenantRegistry` whose factory provisions
    empty deployments on the ``tenant create`` control op, which is how the
    runner populates its per-scenario tenants over the wire.
    """

    # Sized for test runs: two shards behind two in-process replicas, small
    # batches so a few dozen queries exercise coalescing.
    _N_SHARDS = 2
    _N_REPLICAS = 2
    _K = 5
    _MAX_BATCH_SIZE = 16
    _CACHE_SIZE = 1024
    _MAX_TENANTS = 16

    def __init__(self, *, dim: int = 16, host: str = "127.0.0.1", port: int = 0) -> None:
        self.dim = int(dim)
        self._bind_host = host
        self._bind_port = int(port)
        self._stack: List[object] = []
        self.host: str = host
        self.port: int = 0
        self.registry = None

    def _make_manager(self, tenant: str = "") -> "DeploymentManager":
        from repro.config import ClassifierConfig
        from repro.serving import DeploymentManager, ReplicaSet, ShardedReferenceStore

        store = ShardedReferenceStore(
            self.dim, n_shards=self._N_SHARDS, executor=ReplicaSet.in_process(self._N_REPLICAS)
        )
        return DeploymentManager(store, ClassifierConfig(k=self._K))

    def __enter__(self) -> "ServedScenarioHost":
        from repro.serving import BatchScheduler, FrontendServer, TenantRegistry

        manager = self._make_manager()
        registry = TenantRegistry(
            manager, factory=self._make_manager, max_tenants=self._MAX_TENANTS
        )
        scheduler = BatchScheduler(
            registry,
            max_batch_size=self._MAX_BATCH_SIZE,
            cache_size=self._CACHE_SIZE,
            n_executors=self._N_REPLICAS,
        )
        server = FrontendServer(
            scheduler, tenants=registry, host=self._bind_host, port=self._bind_port
        )
        server.__enter__()
        self._stack = [registry, server]
        self.registry = registry
        self.host = server.host
        self.port = server.port
        return self

    def __exit__(self, *exc_info) -> None:
        registry, server = self._stack
        server.__exit__(*exc_info)
        registry.close()
        self._stack = []
        self.registry = None
