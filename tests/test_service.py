"""SER-as-a-service: query canonicalization, engine scheduling, daemon.

The engine tests drive :class:`~repro.service.CampaignEngine` with
injected (gated) runners so coalescing, admission, fairness, and
memoization are asserted deterministically — no sleeps standing in
for synchronization.  The daemon tests run the real asyncio server on
a unix socket in a background thread and talk to it through
:class:`~repro.service.ServiceClient` (the same path ``repro-ser
query`` uses).  One end-to-end test runs a real (tiny) campaign
through :func:`~repro.service.run_query` and checks bit-identity with
a directly built :class:`~repro.core.SerFlow`.
"""

import asyncio
import contextlib
import json
import socket as socketlib
import threading
import time

import pytest

from repro.cli import main as cli_main
from repro.obs import disable_events, disable_metrics, enable_metrics
from repro.obs.convergence import reset_convergence
from repro.obs.trace import reset_tracing
from repro.service import (
    AdmissionError,
    CampaignEngine,
    ExecutionOptions,
    QueryError,
    QuerySpec,
    ServiceClient,
    ServiceDaemon,
    ServiceError,
    build_flow,
    get_service_ledger,
    reset_service_ledger,
    run_query,
)


@pytest.fixture(autouse=True)
def _clean_state():
    disable_events()
    disable_metrics()
    reset_tracing()
    reset_convergence()
    reset_service_ledger()
    yield
    disable_events()
    disable_metrics()
    reset_tracing()
    reset_convergence()
    reset_service_ledger()


@contextlib.contextmanager
def engine_ctx(**kwargs):
    engine = CampaignEngine(**kwargs)
    try:
        yield engine
    finally:
        engine.shutdown(wait=True, timeout_s=10.0)


def _tiny_spec(**overrides):
    """A spec distinct from every default (cheap canonicalization)."""
    fields = dict(
        particles=("alpha",),
        vdd_list=(0.8,),
        mc_particles=300,
        samples=8,
        yield_trials=120,
        yield_points=3,
    )
    fields.update(overrides)
    return QuerySpec(**fields)


def _fake_result(degraded=False):
    return {
        "kind": "ser_result",
        "key": "k" * 16,
        "cases": [
            {
                "particle": "alpha",
                "vdd": 0.8,
                "fit_total": 1.0,
                "fit_seu": 0.9,
                "fit_mbu": 0.1,
                "mbu_to_seu_ratio": 0.111,
                "degraded": degraded,
            }
        ],
        "degraded": degraded,
    }


def _wait_until(predicate, timeout_s=5.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


class _GatedRunner:
    """Counts calls; campaigns whose seed is gated block until released."""

    def __init__(self, gate_seeds=()):
        self.calls = []
        self.order = []
        self.started = threading.Event()
        self.release = threading.Event()
        self.gate_seeds = set(gate_seeds)

    def __call__(self, spec):
        self.calls.append(spec)
        self.order.append(spec.seed)
        self.started.set()
        if spec.seed in self.gate_seeds:
            assert self.release.wait(timeout=10.0)
        return _fake_result()


class TestQuerySpec:
    def test_canonical_key_field_order_independent(self):
        a = _tiny_spec()
        b = QuerySpec.from_dict(
            json.loads(json.dumps(a.to_dict(), sort_keys=True))
        )
        assert a.canonical_key() == b.canonical_key()

    def test_canonical_key_tolerates_list_vs_tuple(self):
        a = QuerySpec(particles=["alpha"], vdd_list=[0.8])
        b = QuerySpec(particles=("alpha",), vdd_list=(0.8,))
        assert a == b
        assert a.canonical_key() == b.canonical_key()

    def test_canonical_key_sensitive_to_physics_fields(self):
        base = _tiny_spec()
        assert base.canonical_key() != _tiny_spec(seed=7).canonical_key()
        assert (
            base.canonical_key()
            != _tiny_spec(ecc="SEC-DED").canonical_key()
        )

    def test_interleave_outside_key_without_ecc(self):
        # analysis knobs only count when the analysis is requested
        assert (
            _tiny_spec(interleave=2).canonical_key()
            == _tiny_spec(interleave=8).canonical_key()
        )

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(QueryError, match="unknown spec field"):
            QuerySpec.from_dict({"particless": ["alpha"]})

    def test_rejects_bad_values(self):
        with pytest.raises(QueryError):
            QuerySpec(particles=())
        with pytest.raises(QueryError):
            QuerySpec(vdd_list=())
        with pytest.raises(QueryError):
            QuerySpec(ecc="hamming")
        with pytest.raises(QueryError):
            QuerySpec(interleave=0)

    def test_defaults_match_cli_defaults(self):
        """An empty query asks what a bare ``repro-ser sweep`` computes."""
        spec = QuerySpec()
        assert spec.particles == ("alpha", "proton")
        assert spec.vdd_list == (0.7, 0.8, 0.9, 1.0, 1.1)
        assert spec.mc_particles == 50000
        assert spec.samples == 200
        assert spec.yield_trials == 20000
        assert spec.seed == 2014
        assert spec.variation is True

    def test_to_flow_config_matches_direct_construction(self):
        from repro.core import FlowConfig
        from repro.io import config_hash
        from repro.sram import CharacterizationConfig

        spec = _tiny_spec()
        direct = FlowConfig(
            particles=("alpha",),
            vdd_list=(0.8,),
            yield_trials_per_energy=120,
            yield_energy_points=3,
            characterization=CharacterizationConfig(
                vdd_list=(0.8,), n_samples=8
            ),
            process_variation=True,
            mc_particles_per_bin=300,
            seed=2014,
        )
        assert config_hash(spec.to_flow_config()) == config_hash(direct)


class TestCampaignEngine:
    def test_identical_inflight_requests_coalesce(self):
        registry = enable_metrics(fresh=True)
        runner = _GatedRunner(gate_seeds={2014})
        with engine_ctx(runner=runner) as engine:
            spec = _tiny_spec()
            futures = [engine.submit(spec) for _ in range(3)]
            assert runner.started.wait(5.0)
            # all three landed on one campaign before it finished
            runner.release.set()
            results = [f.result(timeout=10.0) for f in futures]
        assert len(runner.calls) == 1
        assert {r["source"] for r in results} == {"campaign"}
        snapshot = registry.snapshot()["counters"]
        assert snapshot["service.requests"] == 3
        assert snapshot["service.coalesced"] == 2
        assert snapshot["service.campaigns"] == 1

    def test_completed_results_memoized(self):
        registry = enable_metrics(fresh=True)
        runner = _GatedRunner()
        with engine_ctx(runner=runner) as engine:
            spec = _tiny_spec()
            engine.submit(spec).result(timeout=10.0)
            repeat = engine.submit(spec).result(timeout=10.0)
        assert len(runner.calls) == 1
        assert repeat["source"] == "memo"
        assert registry.snapshot()["counters"]["service.memo_hits"] == 1

    def test_degraded_results_not_memoized(self):
        calls = []

        def runner(spec):
            calls.append(spec)
            return _fake_result(degraded=len(calls) == 1)

        with engine_ctx(runner=runner) as engine:
            spec = _tiny_spec()
            first = engine.submit(spec).result(timeout=10.0)
            second = engine.submit(spec).result(timeout=10.0)
        assert first["degraded"] and not second["degraded"]
        assert len(calls) == 2  # the degraded answer was recomputed

    def test_admission_control_rejects_past_bound(self):
        enable_metrics(fresh=True)
        runner = _GatedRunner(gate_seeds={0})
        with engine_ctx(
            runner=runner, max_concurrent=1, max_pending=1
        ) as engine:
            blocker = engine.submit(_tiny_spec(seed=0))
            assert runner.started.wait(5.0)  # occupies the running slot
            assert _wait_until(lambda: engine.stats()["running"] == 1)
            queued = engine.submit(_tiny_spec(seed=1))  # fills the queue
            with pytest.raises(AdmissionError):
                engine.submit(_tiny_spec(seed=2))
            assert engine.stats()["rejected"] == 1
            # a coalescing request is free: it is NOT a new campaign
            engine.submit(_tiny_spec(seed=1))
            runner.release.set()
            blocker.result(timeout=10.0)
            queued.result(timeout=10.0)

    def test_per_tenant_round_robin_fairness(self):
        runner = _GatedRunner(gate_seeds={0})
        with engine_ctx(runner=runner, max_concurrent=1) as engine:
            blocker = engine.submit(_tiny_spec(seed=0), tenant="z")
            assert runner.started.wait(5.0)
            assert _wait_until(lambda: engine.stats()["running"] == 1)
            hog = [
                engine.submit(_tiny_spec(seed=s), tenant="hog")
                for s in (10, 11, 12)
            ]
            polite = engine.submit(_tiny_spec(seed=20), tenant="polite")
            runner.release.set()
            for future in [blocker, polite] + hog:
                future.result(timeout=10.0)
        order = runner.order
        # round-robin: the single 'polite' campaign is not starved
        # behind the hog's backlog — it runs before the hog's last one
        assert order.index(20) < order.index(12)

    def test_campaign_failure_propagates_to_every_waiter(self):
        registry = enable_metrics(fresh=True)
        boom = RuntimeError("campaign exploded")
        gate = threading.Event()

        def runner(spec):
            assert gate.wait(timeout=10.0)
            raise boom

        with engine_ctx(runner=runner) as engine:
            spec = _tiny_spec()
            futures = [engine.submit(spec) for _ in range(2)]
            gate.set()
            for future in futures:
                with pytest.raises(RuntimeError, match="exploded"):
                    future.result(timeout=10.0)
            # a failure is not memoized: the next request retries
            gate.clear()
            retry = engine.submit(spec)
            gate.set()
            with pytest.raises(RuntimeError):
                retry.result(timeout=10.0)
        assert registry.snapshot()["counters"]["service.failures"] == 2

    def test_shutdown_fails_pending_campaigns(self):
        runner = _GatedRunner(gate_seeds={0})
        engine = CampaignEngine(runner=runner, max_concurrent=1)
        blocker = engine.submit(_tiny_spec(seed=0))
        assert runner.started.wait(5.0)
        assert _wait_until(lambda: engine.stats()["running"] == 1)
        pending = engine.submit(_tiny_spec(seed=1))
        runner.release.set()
        engine.shutdown(wait=True, timeout_s=10.0)
        blocker.result(timeout=10.0)  # in-flight campaign completed
        with pytest.raises(ServiceError):
            pending.result(timeout=10.0)
        with pytest.raises(ServiceError):
            engine.submit(_tiny_spec(seed=2))

    def test_ledger_records_served_campaigns(self):
        runner = _GatedRunner(gate_seeds={2014})
        with engine_ctx(runner=runner) as engine:
            spec = _tiny_spec()
            futures = [engine.submit(spec, tenant="t") for _ in range(2)]
            assert runner.started.wait(5.0)
            runner.release.set()
            for future in futures:
                future.result(timeout=10.0)
        entries = get_service_ledger().summary()
        assert len(entries) == 1
        assert entries[0]["tenant"] == "t"
        assert entries[0]["requests"] == 2
        assert entries[0]["ok"] is True

    def test_request_latency_percentiles_exposed(self):
        enable_metrics(fresh=True)
        with engine_ctx(runner=_GatedRunner()) as engine:
            engine.submit(_tiny_spec()).result(timeout=10.0)
            stats = engine.stats()
        assert stats["request_p50_s"] > 0.0
        assert stats["request_p99_s"] >= stats["request_p50_s"]


class _DaemonHarness:
    """Run the asyncio daemon in a background thread for blocking tests."""

    def __init__(self, engine, socket_path):
        self.socket_path = str(socket_path)
        self.daemon = ServiceDaemon(engine, socket_path=self.socket_path)
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        asyncio.run(self._main())

    async def _main(self):
        await self.daemon.start()
        self._ready.set()
        await self.daemon.serve_until_shutdown()

    def __enter__(self):
        self._thread.start()
        assert self._ready.wait(5.0), "daemon did not start"
        return self

    def __exit__(self, *exc_info):
        try:
            with ServiceClient(
                socket_path=self.socket_path, timeout_s=5.0
            ) as client:
                client.shutdown()
        except (ServiceError, OSError):
            pass  # already stopped by the test body
        self._thread.join(5.0)

    def client(self, timeout_s=10.0):
        return ServiceClient(socket_path=self.socket_path, timeout_s=timeout_s)


class TestServiceDaemon:
    def test_query_round_trip_and_stats(self, tmp_path):
        enable_metrics(fresh=True)
        runner = _GatedRunner()
        engine = CampaignEngine(runner=runner)
        try:
            with _DaemonHarness(engine, tmp_path / "ser.sock") as harness:
                with harness.client() as client:
                    assert client.ping()
                    reply = client.query(_tiny_spec())
                    assert reply["ok"] and reply["source"] == "campaign"
                    assert reply["result"]["cases"][0]["fit_total"] == 1.0
                    repeat = client.query(_tiny_spec())
                    assert repeat["source"] == "memo"
                    stats = client.stats()
                    assert stats["requests"] == 2
                    assert stats["memo_hits"] == 1
                    assert stats["campaigns"] == 1
        finally:
            engine.shutdown(wait=True, timeout_s=10.0)

    def test_concurrent_clients_coalesce(self, tmp_path):
        enable_metrics(fresh=True)
        runner = _GatedRunner(gate_seeds={2014})
        engine = CampaignEngine(runner=runner)
        replies = [None, None]
        try:
            with _DaemonHarness(engine, tmp_path / "ser.sock") as harness:

                def ask(i):
                    with harness.client() as client:
                        replies[i] = client.query(_tiny_spec(), tenant=f"t{i}")

                threads = [
                    threading.Thread(target=ask, args=(i,)) for i in (0, 1)
                ]
                for thread in threads:
                    thread.start()
                assert runner.started.wait(5.0)
                # both requests are in flight on one campaign
                assert _wait_until(
                    lambda: engine.stats()["coalesced"] == 1
                )
                runner.release.set()
                for thread in threads:
                    thread.join(10.0)
        finally:
            engine.shutdown(wait=True, timeout_s=10.0)
        assert len(runner.calls) == 1
        assert all(r is not None and r["ok"] for r in replies)

    def test_malformed_spec_rejected_as_bad_request(self, tmp_path):
        engine = CampaignEngine(runner=_GatedRunner())
        try:
            with _DaemonHarness(engine, tmp_path / "ser.sock") as harness:
                with harness.client() as client:
                    with pytest.raises(ServiceError, match="bad-request"):
                        client.query({"no_such_field": 1})
                    # the connection survives a bad request
                    assert client.ping()
        finally:
            engine.shutdown(wait=True, timeout_s=10.0)

    def test_admission_rejection_reported_with_code(self, tmp_path):
        runner = _GatedRunner(gate_seeds={0})
        engine = CampaignEngine(
            runner=runner, max_concurrent=1, max_pending=0
        )
        try:
            with _DaemonHarness(engine, tmp_path / "ser.sock") as harness:
                blocker_reply = [None]

                def ask_blocker():
                    with harness.client() as client:
                        blocker_reply[0] = client.query(_tiny_spec(seed=0))

                blocker = threading.Thread(target=ask_blocker)
                blocker.start()
                assert runner.started.wait(5.0)
                assert _wait_until(lambda: engine.stats()["running"] == 1)
                with harness.client() as client:
                    with pytest.raises(ServiceError, match="rejected"):
                        client.query(_tiny_spec(seed=1))
                runner.release.set()
                blocker.join(10.0)
                assert blocker_reply[0]["ok"]
        finally:
            engine.shutdown(wait=True, timeout_s=10.0)

    def test_client_disconnect_mid_campaign_leaves_engine_serving(
        self, tmp_path
    ):
        """A flaky client must not kill the shared single-flight."""
        runner = _GatedRunner(gate_seeds={2014})
        engine = CampaignEngine(runner=runner)
        try:
            with _DaemonHarness(engine, tmp_path / "ser.sock") as harness:
                # fire a query and hang up before the answer
                raw = socketlib.socket(
                    socketlib.AF_UNIX, socketlib.SOCK_STREAM
                )
                raw.connect(harness.socket_path)
                raw.sendall(
                    json.dumps(
                        {
                            "op": "query",
                            "id": 1,
                            "spec": _tiny_spec().to_dict(),
                        }
                    ).encode("utf-8")
                    + b"\n"
                )
                assert runner.started.wait(5.0)
                raw.close()  # the client dies mid-campaign
                runner.release.set()
                assert _wait_until(
                    lambda: engine.stats()["campaigns"] == 1
                ) or engine.stats()["served"] == 1
                # the daemon still serves; the orphaned result is memoized
                with harness.client() as client:
                    reply = client.query(_tiny_spec())
                    assert reply["source"] == "memo"
        finally:
            engine.shutdown(wait=True, timeout_s=10.0)

    def test_watch_streams_progress_events(self, tmp_path):
        from repro.obs import configure_events, emit_event

        configure_events(path=None)  # ring-only bus for the fan-out
        release = threading.Event()

        def runner(spec):
            emit_event("progress", label="svc", index=0, state="started")
            emit_event("progress", label="svc", index=0, state="finished")
            assert release.wait(timeout=10.0)
            return _fake_result()

        engine = CampaignEngine(runner=runner)
        seen = []
        try:
            with _DaemonHarness(engine, tmp_path / "ser.sock") as harness:
                with harness.client() as client:

                    def on_event(event):
                        seen.append(event)
                        release.set()  # got a live event: let it finish

                    reply = client.query(
                        _tiny_spec(), watch=True, on_event=on_event
                    )
                    assert reply["ok"]
        finally:
            engine.shutdown(wait=True, timeout_s=10.0)
        assert any(e.get("label") == "svc" for e in seen)


class TestCliFrontEnd:
    def test_cli_query_against_daemon(self, tmp_path, capsys):
        engine = CampaignEngine(runner=_GatedRunner())
        sock = tmp_path / "ser.sock"
        try:
            with _DaemonHarness(engine, sock):
                code = cli_main(
                    [
                        "query",
                        "--socket", str(sock),
                        "--particles", "alpha",
                        "--vdd-list", "0.8",
                        "--mc-particles", "300",
                        "--samples", "8",
                        "--yield-trials", "120",
                        "--yield-points", "3",
                    ]
                )
        finally:
            engine.shutdown(wait=True, timeout_s=10.0)
        assert code == 0
        out = capsys.readouterr().out
        assert "source=campaign" in out
        assert "alpha" in out

    def test_cli_query_without_daemon_fails_cleanly(self, tmp_path, capsys):
        code = cli_main(
            ["query", "--socket", str(tmp_path / "nope.sock")]
        )
        assert code == 1
        assert "query failed" in capsys.readouterr().out

    @pytest.mark.filterwarnings("error::ResourceWarning")
    def test_connect_to_missing_socket_leaks_nothing(self, tmp_path):
        import gc
        import warnings

        client = ServiceClient(socket_path=str(tmp_path / "nope.sock"))
        # an unclosed socket warns from its finalizer, where an "error"
        # filter cannot raise; record the warnings to see it instead
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(OSError):
                client._connect()
            gc.collect()
        assert client._sock is None
        leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert not leaks, [str(w.message) for w in leaks]


class TestRealCampaign:
    def test_run_query_bit_identical_to_direct_flow(self, tmp_path):
        import numpy as np

        from repro.core import SerFlow

        spec = _tiny_spec()
        options = ExecutionOptions(cache_dir=str(tmp_path / "svc-cache"))
        result = run_query(spec, options=options)
        assert result["kind"] == "ser_result"
        case = result["cases"][0]

        direct_flow = SerFlow(
            spec.to_flow_config(), cache_dir=str(tmp_path / "direct-cache")
        )
        direct = direct_flow.sweep().get("alpha", 0.8)
        assert np.isclose(case["fit_total"], direct.fit_total, rtol=0, atol=0)
        assert np.isclose(case["fit_seu"], direct.fit_seu, rtol=0, atol=0)
        assert np.isclose(case["fit_mbu"], direct.fit_mbu, rtol=0, atol=0)

    def test_run_query_with_ecc_analysis(self, tmp_path):
        spec = _tiny_spec(ecc="SEC-DED", interleave=4, ecc_pair_particles=500)
        options = ExecutionOptions(cache_dir=str(tmp_path / "cache"))
        result = run_query(spec, options=options)
        assert len(result["ecc"]) == 1
        analysis = result["ecc"][0]
        assert analysis["scheme"] == "SEC-DED"
        assert analysis["interleave_distance"] == 4
        assert analysis["uncorrectable_rate"] <= analysis["raw_seu_rate"]

    def test_engine_default_runner_end_to_end(self, tmp_path):
        options = ExecutionOptions(cache_dir=str(tmp_path / "cache"))
        with engine_ctx(options=options) as engine:
            spec = _tiny_spec()
            first = engine.submit(spec).result(timeout=120.0)
            repeat = engine.submit(spec).result(timeout=10.0)
        assert first["source"] == "campaign"
        assert repeat["source"] == "memo"
        assert repeat["cases"] == first["cases"]

    def test_build_flow_shares_cache_keys_with_cli_flow(self, tmp_path):
        flow = build_flow(
            _tiny_spec(), ExecutionOptions(cache_dir=str(tmp_path))
        )
        # the flow compiles from the same FlowConfig the CLI produces,
        # so its sweep cache key is a pure function of the spec
        assert flow.config.seed == 2014
        assert flow.config.particles == ("alpha",)
