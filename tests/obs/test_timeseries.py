"""Tests for repro.obs.timeseries (sampler, store, series.jsonl, top)."""

import json
from pathlib import Path

import pytest

from repro import PLBHeC, Runtime
from repro.apps import MatMul
from repro.errors import ConfigurationError, SimulationError
from repro.obs.metrics import MetricsRegistry, _series_key
from repro.obs.timeseries import (
    CLUSTER_SERIES,
    DEVICE_SERIES,
    SERIES_SCHEMA,
    ClusterSampler,
    TimeSeriesStore,
    jain_fairness,
    publish_windowed_gauges,
    read_series,
    render_top,
    sparkline,
    store_from_payload,
    validate_series,
    write_series,
)
from repro.sim.engine import Engine, PeriodicTask


class TestJainFairness:
    def test_equal_shares_are_perfectly_fair(self):
        assert jain_fairness([3.0, 3.0, 3.0]) == pytest.approx(1.0)

    def test_single_active_device_floors_at_one_over_n(self):
        assert jain_fairness([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_empty_and_all_zero_are_vacuously_fair(self):
        assert jain_fairness([]) == 1.0
        assert jain_fairness([0.0, 0.0]) == 1.0


class TestTimeSeriesStore:
    def test_record_and_read_back(self):
        store = TimeSeriesStore()
        store.record("util", 0.1, 0.5, device="a")
        store.record("util", 0.2, 0.7, device="a")
        (key,) = store.keys()
        assert key == _series_key("util", {"device": "a"})
        assert store.points(key) == [(0.1, 0.5), (0.2, 0.7)]

    def test_ring_buffer_bounds_points_per_series(self):
        store = TimeSeriesStore(max_points=8)
        for i in range(100):
            store.record("x", float(i), float(i))
        pts = store.points("x")
        assert len(pts) == 8
        assert pts[0] == (92.0, 92.0)  # oldest samples dropped

    def test_matching_and_values_merge_labelled_series(self):
        store = TimeSeriesStore()
        store.record("util", 0.2, 0.2, device="b")
        store.record("util", 0.1, 0.1, device="a")
        assert len(store.matching("util")) == 2
        assert store.values("util") == [0.1, 0.2]  # time-ordered merge

    def test_aggregate_windows(self):
        store = TimeSeriesStore()
        for i in range(10):
            store.record("x", float(i), float(i))
        agg = store.aggregate("x")
        assert agg["count"] == 10
        assert agg["mean"] == pytest.approx(4.5)
        assert agg["min"] == 0.0 and agg["max"] == 9.0 and agg["last"] == 9.0
        windowed = store.aggregate("x", t_min=5.0)
        assert windowed["count"] == 5
        assert windowed["min"] == 5.0
        assert store.aggregate("missing") == {"count": 0}

    def test_payload_round_trip(self):
        store = TimeSeriesStore(max_points=4)
        store.record("a", 0.0, 1.0)
        store.record("b", 0.5, 2.0, device="x")
        clone = store_from_payload(store.to_payload())
        assert clone.keys() == store.keys()
        for key in store.keys():
            assert clone.points(key) == store.points(key)

    def test_len_and_bool(self):
        store = TimeSeriesStore()
        assert not store and len(store) == 0
        store.record("x", 0.0, 1.0)
        assert store and len(store) == 1


class TestSparkline:
    def test_width_and_extremes(self):
        line = sparkline([0.0, 1.0], width=2)
        assert len(line) == 2
        assert line[0] == "▁" and line[-1] == "█"

    def test_resamples_long_series(self):
        assert len(sparkline(list(range(1000)), width=40)) == 40

    def test_empty_is_empty(self):
        assert sparkline([], width=10) == ""


class TestEnginePeriodicTask:
    def test_fires_at_fixed_interval(self):
        engine = Engine()
        ticks = []
        engine.schedule_periodic(0.5, ticks.append, continue_while=lambda: len(ticks) < 4)
        engine.run()
        assert ticks == [0.5, 1.0, 1.5, 2.0]

    def test_cancel_stops_pending_tick(self):
        engine = Engine()
        ticks = []
        task = engine.schedule_periodic(0.5, ticks.append)
        assert isinstance(task, PeriodicTask) and task.active
        task.cancel()
        assert not task.active
        engine.run()
        assert ticks == []

    def test_continue_while_false_drains_engine(self):
        """The predicate is the deadlock guard: once false, no reschedule."""
        engine = Engine()
        ticks = []
        engine.schedule_periodic(0.1, ticks.append, continue_while=lambda: False)
        engine.run()
        assert ticks == [0.1]  # the already-scheduled tick still fires

    def test_non_positive_interval_rejected(self):
        engine = Engine()
        with pytest.raises(SimulationError):
            engine.schedule_periodic(0.0, lambda t: None)


def _sampled_run(
    cluster, *, interval=None, seed=17, n=4096, overhead=0.002, noise=0.02
):
    app = MatMul(n=n)
    sampler = ClusterSampler(interval)
    rt = Runtime(cluster, app.codelet(), seed=seed, noise_sigma=noise)
    result = rt.run(
        PLBHeC(fixed_overhead_s=overhead),
        app.total_units,
        app.default_initial_block_size(),
        sampler=sampler,
    )
    return sampler, result


class TestClusterSampler:
    def test_auto_interval_resolves_and_samples(self, small_cluster):
        sampler, _ = _sampled_run(small_cluster, interval=0.0)
        assert sampler.interval is not None and sampler.interval > 0
        assert sampler.samples_taken > 10
        assert set(sampler.store.matching("device_util")) == {
            _series_key("device_util", {"device": d.device_id})
            for d in small_cluster.devices()
        }

    def test_records_every_declared_series(self, small_cluster):
        sampler, _ = _sampled_run(small_cluster, interval=0.0)
        names = {key.split("{", 1)[0] for key in sampler.store.keys()}
        assert names == set(CLUSTER_SERIES) | set(DEVICE_SERIES)

    def test_utilization_integrates_to_trace_busy_time(self, small_cluster):
        """Σ util·dt per device equals the trace's busy time exactly."""
        sampler, result = _sampled_run(small_cluster, interval=0.0)
        busy_by_device = {}
        for record in result.trace.records:
            busy_by_device[record.worker_id] = busy_by_device.get(
                record.worker_id, 0.0
            ) + (record.end_time - record.start_time)
        for device, expected in busy_by_device.items():
            pts = sampler.store.points(
                _series_key("device_util", {"device": device})
            )
            integral, prev_t = 0.0, 0.0
            for t, util in pts:
                integral += util * (t - prev_t)
                prev_t = t
            assert integral == pytest.approx(expected, rel=1e-9), device
            # the running busy counter agrees with the integral too
            busy_pts = sampler.store.points(
                _series_key("device_busy_s", {"device": device})
            )
            assert busy_pts[-1][1] == pytest.approx(expected, rel=1e-12)

    def test_sampling_leaves_schedule_byte_identical(self, small_cluster):
        """The acceptance property: sampler on/off, same virtual history."""
        app = MatMul(n=4096)

        def run(sampler):
            rt = Runtime(
                small_cluster, app.codelet(), seed=17, noise_sigma=0.02
            )
            result = rt.run(
                PLBHeC(fixed_overhead_s=0.002),
                app.total_units,
                app.default_initial_block_size(),
                sampler=sampler,
            )
            return result.makespan, [
                (r.worker_id, r.units, r.start_time, r.end_time)
                for r in result.trace.records
            ]

        plain = run(None)
        sampled = run(ClusterSampler(0.0))
        assert plain == sampled

    def test_completion_accounting_balances(self, small_cluster):
        sampler, result = _sampled_run(small_cluster, interval=0.0)
        completed = sampler.store.points("completed_units")
        backlog = sampler.store.points("backlog_units")
        outstanding = sampler.store.points("outstanding_units")
        total = MatMul(n=4096).total_units
        assert completed[-1][1] == total
        assert backlog[-1][1] == 0
        assert outstanding[-1][1] == 0
        # conservation holds at every tick
        for (_, c), (_, b), (_, o) in zip(completed, backlog, outstanding):
            assert c + b + o == pytest.approx(total)

    def test_fairness_and_imbalance_recorded(self, small_cluster):
        sampler, _ = _sampled_run(small_cluster, interval=0.0)
        fairness = [v for _, v in sampler.store.points("fairness")]
        assert all(0.0 < v <= 1.0 for v in fairness)
        imbalance = [v for _, v in sampler.store.points("imbalance")]
        assert all(v == 0.0 or v >= 1.0 for v in imbalance)

    def test_sampler_is_single_use(self, small_cluster):
        sampler, _ = _sampled_run(small_cluster, interval=0.0)
        app = MatMul(n=256)
        rt = Runtime(small_cluster, app.codelet(), seed=1)
        with pytest.raises(ConfigurationError, match="single-use"):
            rt.run(
                PLBHeC(fixed_overhead_s=0.002),
                app.total_units,
                8,
                sampler=sampler,
            )

    def test_real_backend_rejects_sampler(self, small_cluster):
        app = MatMul(n=256)
        rt = Runtime(small_cluster, app.codelet(), backend="real")
        with pytest.raises(ConfigurationError, match="simulated backend"):
            rt.run(
                PLBHeC(num_steps=2),
                app.total_units,
                16,
                sampler=ClusterSampler(0.1),
            )

    def test_unresolved_interval_rejected_at_start(self):
        engine = Engine()
        sampler = ClusterSampler()  # auto, but nothing resolved it
        with pytest.raises(ConfigurationError):
            sampler.start(
                engine, devices=["a"], total_units=10, work_remaining=lambda: 0
            )


class TestSeriesFile:
    def _store(self):
        store = TimeSeriesStore()
        store.record("fairness", 0.1, 0.9)
        store.record("fairness", 0.2, 0.95)
        store.record("device_util", 0.1, 0.4, device="a")
        return store

    def test_write_read_round_trip(self, tmp_path):
        path = tmp_path / "series.jsonl"
        store = self._store()
        write_series(
            path, store, run_id="run-x", interval=0.1, meta={"app": "t"}
        )
        header, clone = read_series(path)
        assert header["schema"] == SERIES_SCHEMA
        assert header["run_id"] == "run-x"
        assert header["interval"] == 0.1
        assert header["samples"] == 3
        assert header["meta"] == {"app": "t"}
        for key in store.keys():
            assert clone.points(key) == store.points(key)

    def test_written_file_validates(self, tmp_path):
        path = tmp_path / "series.jsonl"
        write_series(path, self._store(), run_id="r", interval=0.1, meta={})
        lines = path.read_text(encoding="utf-8").splitlines()
        assert validate_series(lines) == []

    def test_validator_rejects_bad_documents(self):
        assert validate_series([])  # empty
        assert validate_series(["not json"])
        header = json.dumps(
            {
                "kind": "header",
                "schema": 1,
                "run_id": "r",
                "interval": 0.1,
                "series": ["a"],
                "samples": 1,
                "meta": {},
            }
        )
        undeclared = json.dumps(
            {"kind": "sample", "series": "b", "labels": {}, "t": 0.0, "v": 1.0}
        )
        assert any(
            "undeclared" in p for p in validate_series([header, undeclared])
        )
        # json.loads accepts NaN; the validator must still reject it
        nan = '{"kind": "sample", "series": "a", "labels": {}, "t": 0.0, "v": NaN}'
        assert any("finite" in p for p in validate_series([header, nan]))

    def test_validator_enforces_time_monotonicity(self):
        header = json.dumps(
            {
                "kind": "header",
                "schema": 1,
                "run_id": "r",
                "interval": 0.1,
                "series": ["a"],
                "samples": 2,
                "meta": {},
            }
        )
        fwd = json.dumps(
            {"kind": "sample", "series": "a", "labels": {}, "t": 1.0, "v": 0.0}
        )
        back = json.dumps(
            {"kind": "sample", "series": "a", "labels": {}, "t": 0.5, "v": 0.0}
        )
        problems = validate_series([header, fwd, back])
        assert any("backwards" in p for p in problems)


def _schema2_doc(rows, *, series=("a",), samples=None, max_points=4096):
    """A schema-2 document: header line plus one ``kind: series`` row each."""
    lines = [
        json.dumps(
            {
                "kind": "header",
                "schema": 2,
                "run_id": "r",
                "interval": 0.1,
                "series": list(series),
                "samples": sum(len(r["t"]) for r in rows)
                if samples is None
                else samples,
                "max_points": max_points,
                "meta": {},
            }
        )
    ]
    for row in rows:
        lines.append(json.dumps({"kind": "series", "labels": {}, **row}))
    return lines


class TestColumnarSeriesFile:
    """Schema 2: one line per series, validated in memory and on read."""

    def test_one_line_per_series(self, tmp_path):
        store = TimeSeriesStore()
        for i in range(50):
            store.record("fairness", i * 0.1, 1.0)
            store.record("device_util", i * 0.1, 0.5, device="a")
        path = write_series(tmp_path / "series.jsonl", store)
        lines = path.read_text(encoding="utf-8").splitlines()
        header = json.loads(lines[0])
        assert header["schema"] == SERIES_SCHEMA == 2
        assert len(lines) == 1 + len(header["series"]) == 3
        row = json.loads(lines[2])
        assert row["kind"] == "series"
        assert row["series"] == "device_util"
        assert row["labels"] == {"device": "a"}
        assert len(row["t"]) == len(row["v"]) == 50

    def test_round_trip_keeps_ring_size(self, tmp_path):
        """A store larger than the default ring reads back whole."""
        store = TimeSeriesStore(max_points=8192)
        for i in range(5000):
            store.record("x", float(i), float(i))
        path = write_series(tmp_path / "series.jsonl", store)
        header, clone = read_series(path)
        assert header["max_points"] == 8192
        assert clone.max_points == 8192
        assert len(clone) == 5000
        assert clone.to_payload() == store.to_payload()

    def test_writer_refuses_non_finite_values(self, tmp_path):
        store = TimeSeriesStore()
        store.record("x", 0.0, float("nan"))
        path = tmp_path / "series.jsonl"
        with pytest.raises(ConfigurationError, match="non-finite"):
            write_series(path, store)
        assert not path.exists()

    def test_writer_refuses_time_going_backwards(self, tmp_path):
        store = TimeSeriesStore()
        store.record("x", 1.0, 0.0)
        store.record("x", 0.5, 0.0)
        path = tmp_path / "series.jsonl"
        with pytest.raises(ConfigurationError, match="backwards"):
            write_series(path, store)
        assert not path.exists()

    def test_valid_document_passes(self):
        doc = _schema2_doc([{"series": "a", "t": [0.0, 1, 1.0], "v": [1, 2.5, 0]}])
        assert validate_series(doc) == []

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_rejects_non_finite_in_array(self, literal):
        row = '{"kind": "series", "series": "a", "labels": {}, ' + (
            f'"t": [0.0, 1.0], "v": [1.0, {literal}]}}'
        )
        header = _schema2_doc([], samples=2)[0]
        assert any("finite" in p for p in validate_series([header, row]))

    def test_rejects_bools(self):
        doc = _schema2_doc([{"series": "a", "t": [0.0, 1.0], "v": [1.0, True]}])
        assert any("finite" in p for p in validate_series(doc))

    def test_rejects_length_mismatch(self):
        doc = _schema2_doc(
            [{"series": "a", "t": [0.0, 1.0], "v": [1.0]}], samples=2
        )
        assert any("equal length" in p for p in validate_series(doc))

    def test_rejects_time_going_backwards(self):
        doc = _schema2_doc([{"series": "a", "t": [1.0, 0.5], "v": [0.0, 0.0]}])
        assert any("backwards" in p for p in validate_series(doc))

    def test_rejects_undeclared_key(self):
        doc = _schema2_doc([{"series": "b", "t": [0.0], "v": [1.0]}])
        assert any("undeclared" in p for p in validate_series(doc))

    def test_rejects_key_on_two_rows(self):
        doc = _schema2_doc(
            [
                {"series": "a", "t": [0.0], "v": [1.0]},
                {"series": "a", "t": [1.0], "v": [1.0]},
            ]
        )
        assert any("two rows" in p for p in validate_series(doc))

    def test_rejects_samples_count_mismatch(self):
        doc = _schema2_doc([{"series": "a", "t": [0.0], "v": [1.0]}], samples=2)
        assert any("declares 2 samples" in p for p in validate_series(doc))

    def test_rejects_row_longer_than_the_ring(self):
        doc = _schema2_doc(
            [{"series": "a", "t": [0.0, 1.0, 2.0], "v": [1.0, 1.0, 1.0]}],
            max_points=2,
        )
        assert any("max_points" in p for p in validate_series(doc))

    def test_rejects_schema1_rows_under_schema2_header(self):
        header = _schema2_doc([], samples=1)[0]
        sample = json.dumps(
            {"kind": "sample", "series": "a", "labels": {}, "t": 0.0, "v": 1.0}
        )
        assert any("kind=series" in p for p in validate_series([header, sample]))

    def test_read_series_raises_on_invalid_file(self, tmp_path):
        path = tmp_path / "series.jsonl"
        doc = _schema2_doc([{"series": "b", "t": [0.0], "v": [1.0]}])
        path.write_text("\n".join(doc) + "\n", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="undeclared"):
            read_series(path)


class TestSchema1SeriesFile:
    """Files written before the columnar format still read and validate."""

    FIXTURE = Path(__file__).parent / "data" / "series_schema1.jsonl"

    def test_fixture_validates(self):
        lines = self.FIXTURE.read_text(encoding="utf-8").splitlines()
        assert json.loads(lines[0])["schema"] == 1
        assert validate_series(lines) == []

    def test_fixture_reads_back_to_its_store(self):
        header, store = read_series(self.FIXTURE)
        expected = TimeSeriesStore()
        expected.record("fairness", 0.1, 0.9)
        expected.record("device_util", 0.1, 0.4, device="A.gpu0")
        expected.record("fairness", 0.2, 0.95)
        expected.record("device_util", 0.2, 1.0, device="A.gpu0")
        expected.record("completed_units", 0.2, 128)
        assert header["run_id"] == "fixture"
        assert header["meta"] == {"app": "matmul"}
        assert store.max_points == 4096
        assert store.keys() == expected.keys()
        assert store.to_payload() == expected.to_payload()

    def test_rejects_bools(self):
        header = json.dumps(
            {"kind": "header", "schema": 1, "series": ["a"], "samples": 1}
        )
        sample = json.dumps(
            {"kind": "sample", "series": "a", "labels": {}, "t": True, "v": False}
        )
        assert any("finite" in p for p in validate_series([header, sample]))

    def test_rejects_columnar_rows_under_schema1_header(self):
        header = json.dumps(
            {"kind": "header", "schema": 1, "series": ["a"], "samples": 1}
        )
        row = json.dumps(
            {"kind": "series", "series": "a", "labels": {}, "t": [0.0], "v": [1.0]}
        )
        assert any("kind=sample" in p for p in validate_series([header, row]))

    def test_rejects_unknown_schema(self):
        header = json.dumps({"kind": "header", "schema": 3, "series": []})
        assert any("unsupported schema" in p for p in validate_series([header]))


class TestResolvedBuffers:
    def test_sampled_store_equals_record_rebuild(self, small_cluster):
        """The sampler's direct appends match ``record()`` value for value."""
        sampler, _ = _sampled_run(small_cluster, interval=0.0, seed=3)
        rebuilt = TimeSeriesStore()
        # replay in time order, one tick at a time, in the sampler's
        # own series order: per device util/idle/busy, then the cluster
        devices = [d.device_id for d in small_cluster.devices()]
        for i in range(sampler.samples_taken):
            for device in devices:
                for name in DEVICE_SERIES:
                    key = _series_key(name, {"device": device})
                    t, v = sampler.store.points(key)[i]
                    rebuilt.record(name, t, v, device=device)
            for name in CLUSTER_SERIES:
                t, v = sampler.store.points(name)[i]
                rebuilt.record(name, t, v)
        assert json.dumps(sampler.store.to_payload()) == json.dumps(
            rebuilt.to_payload()
        )

    def test_zero_sample_run_leaves_store_empty(self):
        sampler = ClusterSampler(1.0)
        engine = Engine()
        sampler.start(engine, devices=["a"], total_units=1, work_remaining=lambda: 0)
        sampler.stop()
        engine.run()
        sampler.finish(0.0)
        assert sampler.store.keys() == []
        assert sampler.store.to_payload() == {"max_points": 4096, "series": {}}

    def test_buffer_is_the_records_deque(self):
        store = TimeSeriesStore(max_points=2)
        buf = store.buffer("util", device="a")
        assert store.keys() == ["util{device=a}"]
        store.record("util", 0.0, 1.0, device="a")
        buf.append((1.0, 2.0))
        buf.append((2.0, 3.0))
        assert store.points("util{device=a}") == [(1.0, 2.0), (2.0, 3.0)]
        with pytest.raises(ConfigurationError):
            store.buffer("")


class TestWindowedGauges:
    def test_publishes_aggregates_with_labels(self):
        store = TimeSeriesStore()
        for i in range(20):
            store.record("device_util", i * 0.1, i / 20.0, device="a")
        registry = MetricsRegistry()
        count = publish_windowed_gauges(store, registry)
        assert count > 0
        snapshot = registry.snapshot()
        key = _series_key("ts.device_util.mean", {"device": "a"})
        assert snapshot["gauges"][key] == pytest.approx(0.475)
        assert _series_key("ts.device_util.p95", {"device": "a"}) in snapshot[
            "gauges"
        ]


class TestRenderTop:
    def _header_and_store(self, small_cluster):
        sampler, _ = _sampled_run(small_cluster, interval=0.0)
        header = {
            "run_id": "run-t",
            "interval": sampler.interval,
            "samples": sampler.samples_taken,
        }
        return header, sampler.store

    def test_frame_contains_devices_and_summary(self, small_cluster):
        header, store = self._header_and_store(small_cluster)
        frame = render_top(header, store)
        assert "repro top" in frame
        for device in (d.device_id for d in small_cluster.devices()):
            assert device in frame
        assert "fairness" in frame and "units left" in frame
        assert "100% done" in frame

    def test_slo_report_verdicts_render(self, small_cluster):
        header, store = self._header_and_store(small_cluster)
        report = {
            "spec": "default",
            "objectives": [
                {
                    "name": "done",
                    "expr": "last(backlog_units) <= 0",
                    "verdict": "pass",
                    "measured": 0.0,
                },
                {
                    "name": "oops",
                    "expr": "mean(fairness) > 2",
                    "verdict": "fail",
                    "measured": 0.9,
                },
            ],
        }
        frame = render_top(header, store, slo_report=report)
        assert "SLO: default" in frame
        assert "FAIL" in frame and "ok" in frame

    def test_empty_store_renders_empty_state(self):
        frame = render_top({"run_id": "r", "interval": 0.1}, TimeSeriesStore())
        assert "no device_util samples" in frame
