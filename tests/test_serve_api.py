"""Tests of the unified serve API: layered configs, reason-coded errors,
typed stats, public import paths, tenancy and the model registry."""

import dataclasses

import pytest

import repro.serve
from repro.serve import (
    ANONYMOUS,
    AsyncOptions,
    AsyncPredictionService,
    AuthenticationError,
    AuthorizationError,
    HashRing,
    InvalidRequestError,
    ModelRegistry,
    ModelVariant,
    PredictionRequest,
    PredictionService,
    QueueFullError,
    ReasonCode,
    RequestExpiredError,
    RequestQueue,
    ServeError,
    ServiceClosedError,
    ServiceConfig,
    ServiceSnapshot,
    Tenant,
    TenantDirectory,
    UnknownModelError,
)
from repro.serve.resilience import CircuitBreaker, RespawnGovernor
from repro.serve.stats import CacheStats, StatsStruct
from repro.serve.workers import ShardedWorkerPool


class TestLayeredConfig:
    def test_service_config_carries_async_options(self):
        config = ServiceConfig(
            max_batch_size=16,
            async_options=AsyncOptions(max_queue_blocks=128, backpressure="reject"),
        )
        assert config.async_options.max_queue_blocks == 128
        assert config.async_options.backpressure == "reject"

    def test_async_options_has_no_batch_size_knob(self):
        # The collapsed duplication: max_batch_size lives on ServiceConfig
        # only, so the sync and async layers cannot disagree about it.
        names = {spec.name for spec in dataclasses.fields(AsyncOptions)}
        assert "max_batch_size" not in names

    def test_async_options_validation(self):
        with pytest.raises(ValueError):
            AsyncOptions(max_queue_blocks=0)
        with pytest.raises(ValueError):
            AsyncOptions(backpressure="drop")

    def test_service_config_validates_batch_size(self):
        with pytest.raises(ValueError):
            ServiceConfig(max_batch_size=0)

    def test_explicit_and_inherited_options_build_equivalent_front_ends(self):
        options = AsyncOptions(max_queue_blocks=64, backpressure="reject")
        # Explicit options around an externally configured service ...
        explicit = AsyncPredictionService(
            options, service=PredictionService(ServiceConfig(max_batch_size=8))
        )
        # ... and one ServiceConfig carrying everything; the front end infers.
        inherited = AsyncPredictionService(
            service_config=ServiceConfig(max_batch_size=8, async_options=options)
        )
        assert explicit.options == inherited.options == options
        # The size-flush bound is always the service's own batch size.
        assert explicit.max_batch_size == inherited.max_batch_size == 8
        assert explicit.queue.max_blocks == inherited.queue.max_blocks == 64
        assert explicit.queue.policy == inherited.queue.policy == "reject"

    def test_front_end_inherits_a_provided_services_options(self):
        service = PredictionService(
            ServiceConfig(
                max_batch_size=8,
                async_options=AsyncOptions(max_queue_blocks=32),
            )
        )
        front_end = AsyncPredictionService(service=service)
        assert front_end.options is service.config.async_options
        assert front_end.max_batch_size == 8
        assert front_end.queue.max_blocks == 32

    def test_explicit_options_keep_resilience_knobs(self, sample_blocks):
        # Every AsyncOptions field reaches the front end, including the
        # degraded-mode knob.
        options = AsyncOptions(degraded_mode=True)
        service = PredictionService(ServiceConfig(max_batch_size=4))
        with AsyncPredictionService(options, service=service) as front_end:
            front_end.predict_blocks(sample_blocks[:3], timeout=120.0)
            snapshot = front_end.snapshot()
        assert front_end.options.degraded_mode is True
        # The stale cache records every served block.
        assert snapshot.resilience.stale_cache_entries == 3
        service.close()

    def test_removed_settings_are_rejected(self):
        with pytest.raises(TypeError):
            ServiceConfig(sharding="hash")
        with pytest.raises(TypeError):
            AsyncOptions(max_batch_size=8)
        # Dispatch is work-conserving: no flush-deadline knobs remain.
        for removed in ("min_latency_ms", "controller_window_ms"):
            with pytest.raises(TypeError):
                AsyncOptions(**{removed: 1.0})
        # One dispatcher thread and no hedging: their knobs are gone too.
        for removed in (
            "max_concurrent_flushes",
            "hedge_enabled",
            "hedge_quantile",
            "hedge_min_ms",
            "hedge_max_ms",
            "hedge_min_samples",
            "hedge_poll_ms",
        ):
            with pytest.raises(TypeError):
                AsyncOptions(**{removed: 1})
        # Every block has one ring owner: no hot-key replication knobs.
        for removed in ("hot_key_replicas", "hot_key_count"):
            with pytest.raises(TypeError):
                ServiceConfig(**{removed: 1})
        # The worker pool is fixed: no elasticity or autoscaler knobs.
        for removed in ("min_workers", "max_workers", "scale_cooldown_s"):
            with pytest.raises(TypeError):
                ServiceConfig(**{removed: 1})
        for removed in ("max_latency_ms", "autoscale_poll_ms"):
            with pytest.raises(TypeError):
                AsyncOptions(**{removed: 1.0})
        # A failed flush is never retried, and the stale cache has a fixed
        # bound: neither the retry policy nor the cache size is a knob.
        for removed in ("retry_policy", "stale_cache_size"):
            with pytest.raises(TypeError):
                AsyncOptions(**{removed: None})
        assert [spec.name for spec in dataclasses.fields(AsyncOptions)] == [
            "max_queue_blocks",
            "backpressure",
            "degraded_mode",
        ]
        assert len(dataclasses.fields(ServiceConfig)) == 12

    @pytest.mark.parametrize(
        "owner, name",
        [
            (PredictionService, "scale_workers"),
            (PredictionService, "maybe_autoscale"),
            (ShardedWorkerPool, "scale_to"),
            (HashRing, "add_node"),
            (HashRing, "remove_node"),
            (CircuitBreaker, "forget"),
            (RespawnGovernor, "forget"),
        ],
        ids=lambda value: getattr(value, "__name__", value),
    )
    def test_the_worker_pool_cannot_be_resized(self, owner, name):
        """A pool's workers, and the ring over their ids, are set when it
        is built: nothing can add, remove or forget a worker later."""
        assert not hasattr(owner, name)

    @pytest.mark.parametrize("name", ["RetryPolicy", "RetryBudget", "run_with_retries"])
    def test_a_failed_flush_cannot_be_retried(self, name):
        """There is no retry layer: a failed flush goes straight to the
        degraded-reply check and then to the client."""
        assert not hasattr(repro.serve.resilience, name)

    def test_service_batch_size_drives_flushes(self, sample_blocks):
        config = ServiceConfig(max_batch_size=4)
        with AsyncPredictionService(service_config=config) as front_end:
            future = front_end.submit(PredictionRequest.of(sample_blocks[:4]))
            response = future.result(timeout=120.0)
            front_end.submit(PredictionRequest.of(sample_blocks[:3])).result(
                timeout=120.0
            )
        assert response.num_blocks == 4
        snapshot = front_end.snapshot()
        # Only the batch that filled the service's max_batch_size is full.
        assert snapshot.flush.flushes == 2
        assert snapshot.flush.size_flushes == 1


class TestReasonCodes:
    @pytest.mark.parametrize(
        "error_type, code",
        [
            (QueueFullError, ReasonCode.QUEUE_FULL),
            (RequestExpiredError, ReasonCode.DEADLINE_EXPIRED),
            (ServiceClosedError, ReasonCode.SERVICE_CLOSED),
            (UnknownModelError, ReasonCode.UNKNOWN_MODEL),
            (AuthenticationError, ReasonCode.UNAUTHENTICATED),
            (AuthorizationError, ReasonCode.FORBIDDEN),
            (InvalidRequestError, ReasonCode.INVALID_REQUEST),
        ],
    )
    def test_machine_readable_and_caught_only_as_serve_errors(self, error_type, code):
        error = error_type("boom")
        assert error.code is code
        # No builtin second base: a handler for ValueError, OSError or
        # RuntimeError cannot swallow a serving error by accident.
        assert error_type.__mro__ == (error_type, ServeError, Exception, BaseException, object)

    def test_codes_are_wire_stable_strings(self):
        assert ReasonCode.QUEUE_FULL.value == "queue_full"
        assert len({code.value for code in ReasonCode}) == len(ReasonCode)

    def test_queue_raises_coded_errors(self):
        queue = RequestQueue(max_blocks=1, policy="reject")
        queue.put(PredictionRequest.of(["mov rax, 1"]))
        with pytest.raises(QueueFullError) as info:
            queue.put(PredictionRequest.of(["mov rbx, 2"]))
        assert info.value.code is ReasonCode.QUEUE_FULL
        queue.close()
        with pytest.raises(ServiceClosedError):
            queue.put(PredictionRequest.of(["mov rcx, 3"]))


class TestPublicImports:
    def test_each_name_has_one_home(self):
        from repro.serve import async_service, batching, config, service, types

        assert repro.serve.ServiceConfig is config.ServiceConfig
        assert repro.serve.AsyncOptions is config.AsyncOptions
        assert repro.serve.PredictionRequest is types.PredictionRequest
        assert repro.serve.PredictionResponse is types.PredictionResponse
        assert repro.serve.QueueFullError is types.QueueFullError
        # The defining modules no longer re-export each other's names.
        assert "ServiceConfig" not in service.__all__
        assert "PredictionRequest" not in batching.__all__
        assert "PredictionResponse" not in batching.__all__
        assert not hasattr(async_service, "AsyncServiceConfig")

    def test_package_all_resolves(self):
        from repro.serve import (
            async_service,
            batching,
            faults,
            queue,
            registry,
            replay,
            resilience,
            service,
            stats,
            workers,
        )

        names = repro.serve.__all__
        assert len(names) == len(set(names)) == 41
        for name in names:
            assert getattr(repro.serve, name) is not None
        # Importable from their defining modules, not from the package.
        moved = (
            "MicroBatch",
            "ServiceStats",
            "AsyncServiceStats",
            "QueuedRequest",
            "ShardedWorkerPool",
            "WorkerCrashError",
            "FAULT_KINDS",
            "FaultInjector",
            "load_fault_plan_from_env",
            "CircuitBreaker",
            "RespawnPolicy",
            "RespawnGovernor",
            "StalePredictionCache",
            "WorkerStats",
            "ResilienceStats",
            "SloVerdict",
            "ModelInfo",
            "ModelReport",
            "StatsStruct",
            "CacheStats",
            "FlushStats",
            "QueueStats",
        )
        homes = (
            async_service,
            batching,
            faults,
            queue,
            registry,
            replay,
            resilience,
            service,
            stats,
            workers,
        )
        for name in moved:
            assert any(hasattr(home, name) for home in homes), name
        for removed in moved + (
            "AsyncServiceConfig",
            "SHARDING_MODES",
            "coalesce_requests_by_shard",
            "BreakerRing",
            "coalesce_requests_by_ring",
            "coalesce_requests_by_router",
            "FLUSH_POLICIES",
            "AdaptiveFlushController",
            "StaticFlushController",
            "create_flush_controller",
            "default_flush_policy",
            "FlushController",
            "HedgeController",
            "HedgeStats",
            "HotKeyRouter",
            "HotKeyTracker",
            "RetryPolicy",
            "RetryBudget",
            "run_with_retries",
        ):
            assert removed not in names
            assert not hasattr(repro.serve, removed)
        # No flush controller at all: dispatch is work-conserving.
        assert not hasattr(repro.serve, "flush")
        assert not hasattr(AsyncOptions(), "flush_policy")


class TestTypedStats:
    def test_snapshot_attributes_match_wire_view(self, sample_blocks):
        with AsyncPredictionService(
            service_config=ServiceConfig(max_batch_size=8)
        ) as front_end:
            front_end.submit(
                PredictionRequest.of(sample_blocks[:3])
            ).result(timeout=120.0)
            snapshot = front_end.snapshot()
        document = snapshot.to_dict()
        assert snapshot.queue.submitted_requests == 1
        assert snapshot.queue.submitted_blocks == 3
        assert document["queue"]["submitted_requests"] == 1
        assert document["queue"]["submitted_blocks"] == 3
        assert document["flush"]["flushes"] == snapshot.flush.flushes >= 1
        assert document["model"]["num_workers"] == snapshot.model.num_workers
        assert "policy" not in document["flush"]
        assert "controller" not in document
        assert (
            document["model"]["cache"]["prediction_misses"]
            == snapshot.model.cache.prediction_misses
        )

    def test_snapshot_sections_are_the_documented_ones(self):
        # The /stats wire body carries exactly these sections.
        assert [spec.name for spec in dataclasses.fields(ServiceSnapshot)] == [
            "queue",
            "flush",
            "model",
            "resilience",
        ]

    def test_stats_structs_are_not_mappings(self, sample_blocks):
        # Attributes are the one read path; to_dict() is the wire view.
        sections = [StatsStruct, *StatsStruct.__subclasses__()]
        assert ServiceSnapshot in sections and CacheStats in sections
        for section in sections:
            for method in ("__getitem__", "get", "__contains__"):
                assert not hasattr(section, method), (section, method)
        service = PredictionService(ServiceConfig(max_batch_size=8)).warm_start()
        service.submit([PredictionRequest.of(sample_blocks[:1])])
        stats = service.snapshot()
        service.close()
        with pytest.raises(TypeError):
            stats["requests"]

    def test_to_dict_is_schema_complete_and_recursive(self, sample_blocks):
        with AsyncPredictionService(
            service_config=ServiceConfig(max_batch_size=8)
        ) as front_end:
            front_end.submit(
                PredictionRequest.of(sample_blocks[:2])
            ).result(timeout=120.0)
            document = front_end.snapshot().to_dict()
        assert set(document) == {
            spec.name for spec in dataclasses.fields(ServiceSnapshot)
        }
        assert isinstance(document["queue"], dict)
        assert isinstance(document["flush"], dict)
        assert document["model"]["model_name"] == "granite"
        assert document["model"]["cache"]["prediction_misses"] >= 1

    def test_resilience_section_counts_no_retries(self, sample_blocks):
        # One served request, then one answered stale after its flush
        # failed: the wire section holds exactly these three counters.
        options = AsyncOptions(degraded_mode=True)
        with AsyncPredictionService(
            options, service_config=ServiceConfig(max_batch_size=8)
        ) as front_end:
            front_end.submit(PredictionRequest.of(sample_blocks[:2])).result(120.0)

            def failing(requests):
                raise RuntimeError("backend down")

            front_end.service.submit = failing
            stale = front_end.submit(PredictionRequest.of(sample_blocks[:2]))
            assert stale.result(120.0).degraded is True
            document = front_end.snapshot().to_dict()
        assert document["resilience"] == {
            "degraded_responses": 1,
            "stale_cache_entries": 2,
            "injected_queue_rejections": 0,
        }

    def test_service_snapshot_typed(self, sample_blocks):
        service = PredictionService(ServiceConfig(max_batch_size=8)).warm_start()
        service.submit([PredictionRequest.of(sample_blocks[:2])])
        stats = service.snapshot()
        assert stats.model_name == "granite"
        assert stats.requests == 1
        assert stats.blocks == 2
        assert stats.cache is not None
        assert stats.cache.prediction_misses >= 1
        service.close()

    def test_cache_stats_tolerates_unknown_keys(self):
        stats = CacheStats.from_model_stats(
            {"prediction_hits": 3, "some_future_counter": 9}
        )
        assert stats.prediction_hits == 3
        assert stats.encode_misses == 0


class TestTenancy:
    def test_directory_requires_keys_and_unique_names(self):
        with pytest.raises(ValueError):
            TenantDirectory((Tenant("nokey"),))
        with pytest.raises(ValueError):
            TenantDirectory(
                (Tenant("dup", api_key="a"), Tenant("dup", api_key="b"))
            )

    def test_anonymous_defaults(self):
        assert TenantDirectory().authenticate(None) is ANONYMOUS
        directory = TenantDirectory((Tenant("acme", api_key="k"),))
        assert directory.allow_anonymous is False
        with pytest.raises(AuthenticationError):
            directory.authenticate(None)
        relaxed = TenantDirectory(
            (Tenant("acme", api_key="k"),), allow_anonymous=True
        )
        assert relaxed.authenticate("") is ANONYMOUS

    def test_key_lookup_and_denial(self):
        directory = TenantDirectory(
            (
                Tenant("acme", api_key="key-a", allowed_models=("m1",)),
                Tenant("blue", api_key="key-b"),
            )
        )
        assert directory.authenticate("key-a").name == "acme"
        with pytest.raises(AuthenticationError):
            directory.authenticate("key-c")
        directory.authorize(directory.authenticate("key-b"), "m2")
        with pytest.raises(AuthorizationError):
            directory.authorize(directory.authenticate("key-a"), "m2")

    def test_allow_list(self):
        tenant = Tenant("acme", api_key="k", allowed_models=("m1", "m2"))
        assert tenant.may_use("m1") and not tenant.may_use("m3")
        assert Tenant("open", api_key="k").may_use("anything")


class TestModelRegistry:
    def test_registration_validation(self):
        registry = ModelRegistry()
        registry.register(ModelVariant("model-a"))
        with pytest.raises(ValueError):
            registry.register(ModelVariant("model-a"))
        with pytest.raises(ValueError):
            ModelVariant("no spaces allowed")
        with pytest.raises(ValueError):
            ModelVariant("")
        registry.close()

    def test_unknown_model_is_coded(self):
        with ModelRegistry() as registry:
            with pytest.raises(UnknownModelError):
                registry.stats("ghost")
            with pytest.raises(UnknownModelError):
                registry.submit("ghost", PredictionRequest.of(["mov rax, 1"]))

    def test_lazy_load_unload_cycle(self):
        with ModelRegistry(
            (ModelVariant("m", ServiceConfig(tasks=("haswell",))),)
        ) as registry:
            assert not registry.is_loaded("m")
            report = registry.stats("m")
            assert report.snapshot is None and report.workers == []
            assert not registry.is_loaded("m"), "stats must not load the model"
            future = registry.submit("m", PredictionRequest.of(["mov rax, 1"]))
            assert future.result(timeout=120.0).num_blocks == 1
            assert registry.is_loaded("m")
            assert registry.stats("m").snapshot.queue.submitted_requests == 1
            assert registry.unload("m") is True
            assert registry.unload("m") is False
            assert not registry.is_loaded("m")
            # A fresh instance serves again after unload.
            future = registry.submit("m", PredictionRequest.of(["mov rbx, 2"]))
            assert future.result(timeout=120.0).num_blocks == 1

    def test_tenant_routing_and_counters(self):
        acme = Tenant("acme", api_key="k", allowed_models=("m1",))
        with ModelRegistry(
            (
                ModelVariant("m1", ServiceConfig(tasks=("haswell",))),
                ModelVariant("m2", ServiceConfig(tasks=("skylake",))),
            )
        ) as registry:
            registry.submit(
                "m1", PredictionRequest.of(["mov rax, 1"]), tenant=acme
            ).result(timeout=120.0)
            with pytest.raises(AuthorizationError):
                registry.submit(
                    "m2", PredictionRequest.of(["mov rax, 1"]), tenant=acme
                )
            info = {item.name: item for item in registry.describe()}
            assert info["m1"].requests_by_tenant == {"acme": 1}
            assert info["m2"].requests_by_tenant == {}
            assert info["m2"].loaded is False

    def test_closed_registry_refuses(self):
        registry = ModelRegistry((ModelVariant("m"),))
        registry.close()
        registry.close()  # idempotent
        with pytest.raises(ServiceClosedError):
            registry.submit("m", PredictionRequest.of(["mov rax, 1"]))
        with pytest.raises(ServiceClosedError):
            registry.describe()

    def test_variant_accessor(self):
        config = ServiceConfig(tasks=("haswell",), max_batch_size=5)
        with ModelRegistry((ModelVariant("m", config),)) as registry:
            assert registry.variant("m").config is config
            with pytest.raises(UnknownModelError):
                registry.variant("ghost")
