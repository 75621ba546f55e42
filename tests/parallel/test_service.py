"""``taq-serve``: submit/status/results/cancel over HTTP.

Drives a real :class:`ServiceServer` on an ephemeral port with
stdlib urllib clients — the same way a remote submitter would — and
checks the full loop: submit points, watch the executor drain them,
fetch values through the shared /cache endpoints, and observe the
sweep on the progress bus.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.parallel import JobStore
from repro.parallel.bus import read_bus
from repro.parallel.cache import decode_entry
from repro.parallel.service import ServiceServer

SQUARE = "tests.parallel.helpers:square"


def http_open(url, **kwargs):
    # Connection: close keeps test sockets from lingering until GC.
    headers = dict(kwargs.pop("headers", {}), Connection="close")
    request = urllib.request.Request(url, headers=headers, **kwargs)
    return urllib.request.urlopen(request, timeout=10.0)


def get_bytes(url):
    with http_open(url) as response:
        return response.read()


def get_json(url):
    return json.loads(get_bytes(url).decode("utf-8"))


def post_json(url, payload):
    with http_open(
        url,
        data=json.dumps(payload).encode("utf-8"),
        method="POST",
        headers={"Content-Type": "application/json"},
    ) as response:
        return json.loads(response.read().decode("utf-8"))


def wait_done(url, total, timeout_s=30.0):
    deadline = time.time() + timeout_s
    while time.time() < deadline:
        status = get_json(f"{url}/status")
        if status["counts"]["done"] == total:
            return status
        time.sleep(0.05)
    raise AssertionError(f"service did not finish {total} jobs in time")


@pytest.fixture
def server(tmp_path):
    srv = ServiceServer(str(tmp_path / "svc"), jobs=1, version="v1")
    srv.serve_in_background()
    try:
        yield srv
    finally:
        srv.shutdown()
        srv.server_close()


class TestSubmitAndExecute:
    def test_full_loop(self, server):
        points = [{"fn": SQUARE, "kwargs": {"x": x}, "label": f"x={x}"}
                  for x in (2, 3, 4)]
        response = post_json(f"{server.url}/submit", {"points": points})
        assert response["submitted"] == 3
        assert response["known"] == 0
        assert len(response["ids"]) == 3

        status = wait_done(server.url, 3)
        assert status["total"] == 3
        assert {job["state"] for job in status["jobs"]} == {"done"}

        results = get_json(f"{server.url}/results")
        assert len(results["done"]) == 3
        # Values travel through the shared entry store, by job id.
        by_label = {}
        for row in results["done"]:
            value, _wall = decode_entry(
                get_bytes(f"{server.url}/cache/{row['id']}")
            )
            by_label[row["label"]] = value
        assert by_label == {"x=2": 4, "x=3": 9, "x=4": 16}

    def test_resubmit_is_idempotent(self, server):
        points = [{"fn": SQUARE, "kwargs": {"x": 5}}]
        first = post_json(f"{server.url}/submit", {"points": points})
        assert first["submitted"] == 1
        wait_done(server.url, 1)
        again = post_json(f"{server.url}/submit", {"points": points})
        assert again["submitted"] == 0
        assert again["known"] == 1
        assert again["ids"] == first["ids"]

    def test_sweep_is_visible_on_the_bus(self, server):
        points = [{"fn": SQUARE, "kwargs": {"x": x}} for x in (6, 7)]
        post_json(f"{server.url}/submit", {"points": points})
        status = wait_done(server.url, 2)
        state = read_bus(status["bus_dir"])
        assert len(state["points"]) == 2
        assert all(p["status"] in ("done", "cached")
                   for p in state["points"].values())

    def test_failed_points_are_recorded_not_fatal(self, server):
        points = [
            {"fn": "tests.parallel.helpers:boom", "kwargs": {}},
            {"fn": SQUARE, "kwargs": {"x": 8}},
        ]
        post_json(f"{server.url}/submit", {"points": points})
        deadline = time.time() + 30.0
        while time.time() < deadline:
            status = get_json(f"{server.url}/status")
            counts = status["counts"]
            if counts["done"] == 1 and counts["failed"] == 1:
                break
            time.sleep(0.05)
        else:
            raise AssertionError("keep-going executor did not settle")
        failed = [j for j in status["jobs"] if j["state"] == "failed"]
        assert "boom" in failed[0]["error"]


class TestCancel:
    def test_cancel_marks_pending_jobs_failed(self, tmp_path):
        # Seed pending jobs before the server exists; the executor only
        # wakes on submit, so they stay pending until cancelled.
        root = tmp_path / "svc"
        from repro.parallel import PointSpec

        seed = JobStore(str(root / "jobs"), version="v1")
        seed.submit([PointSpec(SQUARE, {"x": x}) for x in (11, 12)])
        srv = ServiceServer(str(root), jobs=1, version="v1")
        srv.serve_in_background()
        try:
            response = post_json(f"{srv.url}/cancel", {})
            assert response["cancelled"] == 2
            status = get_json(f"{srv.url}/status")
            assert status["counts"]["failed"] == 2
            assert all(j["error"] == "cancelled" for j in status["jobs"])
        finally:
            srv.shutdown()
            srv.server_close()


class TestValidation:
    def test_submit_without_points_is_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            post_json(f"{server.url}/submit", {})
        assert err.value.code == 400
        err.value.close()

    def test_point_without_fn_is_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            post_json(f"{server.url}/submit", {"points": [{"kwargs": {}}]})
        assert err.value.code == 400
        err.value.close()

    @pytest.mark.parametrize("points", [
        [{"fn": "os:getcwd"}],
        # A valid point in the same batch is not stored either.
        [{"fn": SQUARE, "kwargs": {"x": 1}}, {"fn": "os:getcwd"}],
        [{"fn": SQUARE, "kwargs": {"x": 1}, "scenario": {}}],
        [{"fn": SQUARE, "kwargs": [1]}],
        [{"fn": "tests.parallel.no_such_module:f"}],
    ], ids=["unmarked", "mixed-batch", "unknown-key", "kwargs-list", "no-module"])
    def test_a_point_that_cannot_run_is_400_and_nothing_is_stored(
            self, server, points):
        with pytest.raises(urllib.error.HTTPError) as err:
            post_json(f"{server.url}/submit", {"points": points})
        assert err.value.code == 400
        err.value.close()
        assert get_json(f"{server.url}/status")["total"] == 0

    def test_os_system_is_refused_and_never_runs(self, server, tmp_path):
        marker = tmp_path / "ran"
        point = {"fn": "os:system", "kwargs": {"command": f"touch {marker}"}}
        with pytest.raises(urllib.error.HTTPError) as err:
            post_json(f"{server.url}/submit", {"points": [point]})
        assert err.value.code == 400
        assert "not a @point function" in err.value.read().decode("utf-8")
        err.value.close()
        time.sleep(0.2)  # the executor would have picked it up by now
        assert not marker.exists()
        assert get_json(f"{server.url}/status")["total"] == 0

    def test_store_endpoints_still_work(self, server):
        assert get_json(f"{server.url}/stats")["kind"] == "dir"
        # The plain-text liveness contract survives behind ?plain=1.
        assert get_bytes(f"{server.url}/healthz?plain=1") == b"ok"


class TestRunHealthPlane:
    def test_healthz_reports_job_depth_and_executor(self, server):
        health = get_json(f"{server.url}/healthz")
        assert health["status"] == "ok"
        assert set(health["jobs"]) == {"pending", "running", "done", "failed"}
        assert health["executor"]["alive"] is True

        points = [{"fn": SQUARE, "kwargs": {"x": x}} for x in (31, 32)]
        post_json(f"{server.url}/submit", {"points": points})
        wait_done(server.url, 2)
        health = get_json(f"{server.url}/healthz")
        assert health["jobs"]["done"] == 2
        assert health["jobs"]["pending"] == 0

    def test_metrics_endpoint_serves_valid_openmetrics(self, server):
        from repro.obs.export import (
            OPENMETRICS_CONTENT_TYPE,
            parse_openmetrics,
            validate_openmetrics,
        )

        points = [{"fn": SQUARE, "kwargs": {"x": x}} for x in (41, 42, 43)]
        post_json(f"{server.url}/submit", {"points": points})
        wait_done(server.url, 3)

        with http_open(f"{server.url}/metrics") as response:
            assert response.headers["Content-Type"] == OPENMETRICS_CONTENT_TYPE
            text = response.read().decode("utf-8")
        assert validate_openmetrics(text) == []
        families = parse_openmetrics(text)

        jobs = {s["labels"]["state"]: s["value"]
                for s in families["taq_jobs"]["samples"]}
        assert jobs["done"] == 3.0
        assert families["taq_executor_alive"]["samples"][0]["value"] == 1.0

        cache = {s["labels"]["kind"]: s["value"]
                 for s in families["taq_cache_entries"]["samples"]}
        assert cache == {"dir": 3.0}
        assert "taq_cache_hits" in families
        assert "taq_cache_misses" in families

        # The executor ran points through the bus: their status shows up.
        assert "taq_bus_points" in families
        statuses = {s["labels"]["status"]
                    for s in families["taq_bus_points"]["samples"]}
        assert statuses <= {"pending", "running", "done", "cached", "failed"}

    def test_plain_store_metrics_endpoint(self, tmp_path):
        from repro.obs.export import validate_openmetrics
        from repro.parallel.httpstore import StoreServer

        srv = StoreServer(str(tmp_path / "store"))
        srv.serve_in_background()
        try:
            text = get_bytes(f"{srv.url}/metrics").decode("utf-8")
        finally:
            srv.shutdown()
            srv.server_close()
        assert validate_openmetrics(text) == []
        assert "taq_cache_entries" in text
        # The bare store has no job queue: no service families leak in.
        assert "taq_jobs" not in text


class TestDurability:
    def test_restarted_service_remembers_done_jobs(self, tmp_path):
        root = str(tmp_path / "svc")
        points = [{"fn": SQUARE, "kwargs": {"x": x}} for x in (21, 22)]
        srv = ServiceServer(root, jobs=1, version="v1")
        srv.serve_in_background()
        try:
            post_json(f"{srv.url}/submit", {"points": points})
            wait_done(srv.url, 2)
        finally:
            srv.shutdown()
            srv.server_close()
        # A new service over the same root replays the job store.
        srv = ServiceServer(root, jobs=1, version="v1")
        srv.serve_in_background()
        try:
            status = get_json(f"{srv.url}/status")
            assert status["counts"]["done"] == 2
            results = get_json(f"{srv.url}/results")
            assert len(results["done"]) == 2
        finally:
            srv.shutdown()
            srv.server_close()
