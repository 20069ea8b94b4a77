"""HTTP job service smoke: ephemeral-port server, warm-cache proof, CLI.

This module is also the CI "service smoke" job: it starts the real
``ThreadingHTTPServer`` on an ephemeral port, submits a small BV job over
HTTP, polls it to completion, and asserts the second identical
submission reports stage-level cache hits with an identical result — the
end-to-end warm-cache acceptance proof.
"""

import json
import time

import pytest

from repro.cli import main
from repro.service import JobServer, ServiceClientError, request_json


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    instance = JobServer(
        store_dir=tmp_path_factory.mktemp("store"), port=0, workers=2
    ).start()
    yield instance
    instance.close()


_BV_JOB = {
    "circuit": {"benchmark": "bv", "qubits": 6, "seed": 0},
    "device_size": 5,
    "query": {"type": "fd", "top": 3},
}


def _poll(server, job_id, timeout=60.0):
    deadline = time.monotonic() + timeout
    while True:
        document = request_json("GET", f"{server.url}/jobs/{job_id}")
        if document["state"] in ("done", "failed", "cancelled"):
            return document
        assert time.monotonic() < deadline, f"job stuck: {document}"
        time.sleep(0.01)


class TestHttpApi:
    def test_healthz(self, server):
        assert request_json("GET", f"{server.url}/healthz") == {"status": "ok"}

    def test_submit_poll_result_then_warm_resubmit(self, server):
        created = request_json("POST", f"{server.url}/jobs", payload=_BV_JOB)
        assert created["state"] == "queued"
        status = _poll(server, created["job_id"])
        assert status["state"] == "done", status.get("error")
        assert status["cache_hits"] == {"cut": False, "evaluate": False}
        cold = request_json(
            "GET", f"{server.url}/jobs/{created['job_id']}/result"
        )
        assert cold["result"]["top_states"][0]["state"] == "111111"

        # The acceptance proof: an identical second submission runs warm —
        # cut search and variant evaluation are both served by the store.
        resubmitted = request_json("POST", f"{server.url}/jobs",
                                   payload=_BV_JOB)
        assert resubmitted["job_id"] != created["job_id"]
        warm_status = _poll(server, resubmitted["job_id"])
        assert warm_status["state"] == "done"
        assert warm_status["cache_hits"] == {"cut": True, "evaluate": True}
        warm = request_json(
            "GET", f"{server.url}/jobs/{resubmitted['job_id']}/result"
        )
        assert warm["result"]["top_states"] == cold["result"]["top_states"]

        stats = request_json("GET", f"{server.url}/stats")
        assert stats["cache"]["stage_hits"]["cut"] >= 1
        assert stats["cache"]["stage_hits"]["evaluate"] >= 1
        assert stats["store"]["artifacts"]["cuts"] >= 1

    def test_result_conflict_before_done(self, server):
        # A queued/running job's result is a 409, not garbage.
        created = request_json("POST", f"{server.url}/jobs", payload={
            **_BV_JOB, "circuit": {"benchmark": "bv", "qubits": 8, "seed": 0},
            "device_size": 7,
        })
        try:
            request_json(
                "GET", f"{server.url}/jobs/{created['job_id']}/result"
            )
        except ServiceClientError as error:
            assert error.status == 409
        else:
            # Scheduler may legitimately have finished already.
            assert _poll(server, created["job_id"])["state"] == "done"

    def test_submitted_workers_is_accepted_and_ignored(self, server):
        # Process parallelism is the operator's --pool-workers; an old
        # client's per-job ``workers`` neither fails nor forks anything.
        created = request_json(
            "POST", f"{server.url}/jobs", payload={**_BV_JOB, "workers": 4}
        )
        assert created["state"] == "queued"
        status = _poll(server, created["job_id"])
        assert status["state"] == "done", status.get("error")
        assert "workers" not in status["spec"]

    def test_submitted_sim_batch_is_accepted_and_ignored(self, server):
        # Init batches have one fixed size; an old client's ``sim_batch``
        # (per-variant 0 included) neither fails nor changes the engine.
        created = request_json(
            "POST", f"{server.url}/jobs", payload={**_BV_JOB, "sim_batch": 0}
        )
        status = _poll(server, created["job_id"])
        assert status["state"] == "done", status.get("error")
        assert "sim_batch" not in status["spec"]
        plain = request_json("POST", f"{server.url}/jobs", payload=_BV_JOB)
        plain = _poll(server, plain["job_id"])
        # Both address the one batched evaluation artifact.
        assert status["fingerprints"] == plain["fingerprints"]

    def test_submitted_fusion_width_is_accepted_and_ignored(self, server):
        # Bodies fuse at one fixed width; an old client's ``fusion_width``
        # is admitted, runs, and addresses the same evaluation artifact.
        created = request_json(
            "POST", f"{server.url}/jobs", payload={**_BV_JOB, "fusion_width": 2}
        )
        status = _poll(server, created["job_id"])
        assert status["state"] == "done", status.get("error")
        assert "fusion_width" not in status["spec"]
        plain = request_json("POST", f"{server.url}/jobs", payload=_BV_JOB)
        plain = _poll(server, plain["job_id"])
        assert status["fingerprints"] == plain["fingerprints"]

    def test_unknown_job_is_404(self, server):
        with pytest.raises(ServiceClientError) as excinfo:
            request_json("GET", f"{server.url}/jobs/job-nope")
        assert excinfo.value.status == 404

    def test_bad_payload_is_400(self, server):
        with pytest.raises(ServiceClientError) as excinfo:
            request_json("POST", f"{server.url}/jobs",
                         payload={"circuit": {"benchmark": "bv", "qubits": 6}})
        assert excinfo.value.status == 400
        assert "device_size" in excinfo.value.document["error"]

    def test_bad_seed_is_400_at_admission(self, server):
        with pytest.raises(ServiceClientError) as excinfo:
            request_json("POST", f"{server.url}/jobs", payload={
                "benchmark": "bv", "qubits": 6, "device_size": 5,
                "device": "bogota", "seed": -1,
            })
        assert excinfo.value.status == 400
        assert "seed" in excinfo.value.document["error"]

    @pytest.mark.parametrize(
        "field, value",
        [("recursions", 2.5), ("active", True), ("recursions", "3"),
         ("zoom_width", -2)],
    )
    def test_bad_dd_count_is_400_at_admission(self, server, field, value):
        before = len(request_json("GET", f"{server.url}/jobs")["jobs"])
        with pytest.raises(ServiceClientError) as excinfo:
            request_json("POST", f"{server.url}/jobs", payload={
                "benchmark": "bv", "qubits": 6, "device_size": 5,
                "query": "dd", field: value,
            })
        assert excinfo.value.status == 400
        assert field in excinfo.value.document["error"]
        after = len(request_json("GET", f"{server.url}/jobs")["jobs"])
        assert after == before

    @pytest.mark.parametrize(
        "field, value",
        [("strategy", "bogus"), ("method", "bogus"), ("device", "nope"),
         ("shots", -5), ("max_subcircuits", 0)],
    )
    def test_bad_run_option_is_400_at_admission(self, server, field, value):
        # Each of these used to be accepted and then fail the job deep in
        # the pipeline; the job's RunConfig now refuses it at submission.
        before = len(request_json("GET", f"{server.url}/jobs")["jobs"])
        payload = {"benchmark": "bv", "qubits": 6, "device_size": 5,
                   field: value}
        if field == "shots":
            payload["device"] = "bogota"
        with pytest.raises(ServiceClientError) as excinfo:
            request_json("POST", f"{server.url}/jobs", payload=payload)
        assert excinfo.value.status == 400
        assert field in excinfo.value.document["error"]
        after = len(request_json("GET", f"{server.url}/jobs")["jobs"])
        assert after == before

    @pytest.mark.parametrize(
        "threshold", [-0.1, 1.5, float("nan"), float("inf"), "0.5", True]
    )
    def test_bad_threshold_is_400_at_admission(self, server, threshold):
        with pytest.raises(ServiceClientError) as excinfo:
            request_json("POST", f"{server.url}/jobs", payload={
                "benchmark": "bv", "qubits": 6, "device_size": 5,
                "query": "dd", "threshold": threshold,
            })
        assert excinfo.value.status == 400
        assert "threshold" in excinfo.value.document["error"]

    def test_odd_qaoa_degree_is_400_at_admission(self, server):
        # The default degree 3 on 5 qubits has no regular graph: refused
        # at submission for an fd job, not only for a variational one.
        before = len(request_json("GET", f"{server.url}/jobs")["jobs"])
        with pytest.raises(ServiceClientError) as excinfo:
            request_json("POST", f"{server.url}/jobs", payload={
                "benchmark": "qaoa", "qubits": 5, "device_size": 4,
                "query": "fd",
            })
        assert excinfo.value.status == 400
        assert "degree" in excinfo.value.document["error"]
        after = len(request_json("GET", f"{server.url}/jobs")["jobs"])
        assert after == before

    @pytest.mark.parametrize("shard_qubits", [99, -1])
    def test_out_of_range_shard_qubits_is_400_at_admission(
        self, server, shard_qubits
    ):
        before = len(request_json("GET", f"{server.url}/jobs")["jobs"])
        with pytest.raises(ServiceClientError) as excinfo:
            request_json("POST", f"{server.url}/jobs", payload={
                "benchmark": "bv", "qubits": 8, "device_size": 5,
                "query": "top_k", "shard_qubits": shard_qubits,
            })
        assert excinfo.value.status == 400
        assert "shard_qubits" in excinfo.value.document["error"]
        # Refused before a record existed: no cut or evaluate stage ran.
        after = len(request_json("GET", f"{server.url}/jobs")["jobs"])
        assert after == before

    def test_job_documents_pin_their_stats_keys(self, server):
        """The ``dd`` job's ``stats`` and the ``top_k`` job's ``stream``
        are dataclass dumps: their keys are the HTTP API."""
        documents = {}
        for query in ({"type": "dd", "active": 2, "recursions": 3},
                      {"type": "top_k", "top": 2, "shard_qubits": 2}):
            created = request_json("POST", f"{server.url}/jobs", payload={
                **_BV_JOB, "query": query,
            })
            assert _poll(server, created["job_id"])["state"] == "done"
            documents[query["type"]] = request_json(
                "GET", f"{server.url}/jobs/{created['job_id']}/result"
            )["result"]
        assert list(documents["dd"]["stats"]) == [
            "num_recursions", "num_rounds", "zoom_width", "num_bins",
            "frontier_size", "total_elapsed_seconds", "collapse_seconds",
            "contract_seconds", "cache_hits", "cache_misses",
            "cache_hit_rate",
        ]
        assert list(documents["top_k"]["stream"]) == [
            "shard_qubits", "num_shards_total", "num_shards_emitted",
            "peak_shard_bytes", "elapsed_seconds", "cache_hits",
            "cache_misses", "cache_hit_rate", "transport", "workers",
        ]

    def test_unknown_route_is_404(self, server):
        with pytest.raises(ServiceClientError) as excinfo:
            request_json("GET", f"{server.url}/nope")
        assert excinfo.value.status == 404

    def test_method_not_allowed_is_405(self, server):
        with pytest.raises(ServiceClientError) as excinfo:
            request_json("POST", f"{server.url}/jobs/whatever/result",
                         payload={})
        assert excinfo.value.status == 405

    def test_bodies_are_compact_unless_pretty_is_asked_for(self, server):
        import urllib.request

        def body(path):
            with urllib.request.urlopen(f"{server.url}{path}") as response:
                assert response.headers["Content-Length"] == str(
                    len(payload := response.read())
                )
                return payload.decode()

        assert body("/healthz") == '{"status":"ok"}\n'
        assert body("/healthz?pretty=1") == '{\n  "status": "ok"\n}\n'
        assert "\n" not in body("/stats").rstrip("\n")
        assert json.loads(body("/stats?pretty=1")).keys() == json.loads(
            body("/stats")
        ).keys()

    def test_one_connection_serves_many_requests(self, server):
        import http.client

        connection = http.client.HTTPConnection(server.host, server.port)
        try:
            connection.request(
                "POST", "/jobs", body=json.dumps(_BV_JOB),
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert (response.status, response.version) == (202, 11)
            job_id = json.loads(response.read())["job_id"]
            sock = connection.sock
            for path in (f"/jobs/{job_id}", "/jobs/nope", "/healthz"):
                connection.request("GET", path)
                response = connection.getresponse()
                response.read()
                assert not response.will_close
            assert connection.sock is sock  # never reconnected
            # A body its route ignores is still consumed, never left to be
            # parsed as the connection's next request.
            connection.request("POST", f"/jobs/{job_id}/cancel", body='{"x": 1}')
            response = connection.getresponse()
            assert response.status == 200 and "cancelled" in json.loads(response.read())
            connection.request("GET", "/healthz")
            assert json.loads(connection.getresponse().read()) == {"status": "ok"}
            assert connection.sock is sock
            # An oversized body is refused unread, so that connection ends.
            connection.putrequest("POST", "/jobs")
            connection.putheader("Content-Length", str(9 * 1024 * 1024))
            connection.endheaders()
            response = connection.getresponse()
            response.read()
            assert response.status == 413 and response.will_close
        finally:
            connection.close()
        _poll(server, job_id)

    def test_jobs_listing(self, server):
        listing = request_json("GET", f"{server.url}/jobs")
        assert isinstance(listing["jobs"], list)
        assert all("job_id" in job for job in listing["jobs"])


class TestServiceCli:
    def test_submit_wait_json(self, server, capsys):
        code = main([
            "submit", "--url", server.url, "--benchmark", "bv",
            "--qubits", "6", "--device-size", "5", "--wait", "--json",
        ])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["state"] == "done"
        assert document["result"]["top_states"][0]["state"] == "111111"
        # Warm by now: earlier tests ran the same job through this store.
        assert document["cache_hits"] == {"cut": True, "evaluate": True}

    def test_submit_then_status(self, server, capsys):
        code = main([
            "submit", "--url", server.url, "--benchmark", "bv",
            "--qubits", "6", "--device-size", "5",
        ])
        assert code == 0
        job_id = capsys.readouterr().out.split()[1].rstrip(":")
        for _ in range(500):
            code = main(["status", "--url", server.url, "--job", job_id,
                         "--json"])
            assert code == 0
            document = json.loads(capsys.readouterr().out)
            if document["state"] == "done":
                break
            time.sleep(0.01)
        assert document["state"] == "done"
        code = main(["status", "--url", server.url, "--job", job_id,
                     "--result"])
        out = capsys.readouterr().out
        assert code == 0
        assert "|111111>" in out

    def test_jobs_listing_cli(self, server, capsys):
        assert main(["jobs", "--url", server.url]) == 0
        out = capsys.readouterr().out
        assert "done" in out
        assert "cache hits" in out
        assert main(["jobs", "--url", server.url, "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["stats"]["jobs"]["submitted"] >= 1

    def test_unreachable_server_is_a_clean_error(self, capsys):
        """Connection refused must exit 1 with an error line, never a
        traceback (URLError is wrapped like HTTPError)."""
        dead = "http://127.0.0.1:9"  # discard port; nothing listens
        assert main(["status", "--url", dead, "--job", "job-x"]) == 1
        assert "error:" in capsys.readouterr().err
        assert main(["jobs", "--url", dead]) == 1
        assert "cannot reach" in capsys.readouterr().err
        assert main(["submit", "--url", dead, "--benchmark", "bv",
                     "--qubits", "6", "--device-size", "5"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_submit_validates_circuit_source(self, server, capsys):
        code = main(["submit", "--url", server.url, "--device-size", "5"])
        assert code == 2
        assert "either" in capsys.readouterr().err

    def test_submit_dd_query(self, server, capsys):
        code = main([
            "submit", "--url", server.url, "--benchmark", "bv",
            "--qubits", "6", "--device-size", "5", "--query", "dd",
            "--active", "2", "--recursions", "4", "--wait", "--json",
        ])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["result"]["mode"] == "dd"
        assert document["result"]["solution_states"][0]["state"] == "111111"

    def test_cancel_endpoint(self, server):
        created = request_json("POST", f"{server.url}/jobs", payload=_BV_JOB)
        response = request_json(
            "POST", f"{server.url}/jobs/{created['job_id']}/cancel",
            payload={},
        )
        assert response["job_id"] == created["job_id"]
        final = _poll(server, created["job_id"])
        assert final["state"] in ("done", "cancelled")


class TestPooledService:
    """A server holding one persistent worker pool across all jobs."""

    @pytest.fixture(scope="class")
    def pooled_server(self, tmp_path_factory):
        instance = JobServer(
            store_dir=tmp_path_factory.mktemp("pooled-store"),
            port=0,
            workers=1,
            pool_workers=1,
        ).start()
        yield instance
        instance.close()

    def test_stats_reports_pool_utilization(self, pooled_server):
        # Before any job: the pool exists but has not started workers.
        stats = request_json("GET", f"{pooled_server.url}/stats")
        assert stats["pool"]["workers"] == 1
        assert stats["pool"]["started"] is False

        job = {
            "circuit": {"benchmark": "bv", "qubits": 6, "seed": 0},
            "device_size": 5,
            "query": {"type": "top_k", "top": 3, "shard_qubits": 2},
        }
        created = request_json(
            "POST", f"{pooled_server.url}/jobs", payload=job
        )
        done = _poll(pooled_server, created["job_id"])
        assert done["state"] == "done", done.get("error")
        result = request_json(
            "GET", f"{pooled_server.url}/jobs/{created['job_id']}/result"
        )
        assert result["result"]["top_states"][0]["state"] == "111111"
        assert result["result"]["stream"]["transport"] == "pool"

        stats = request_json("GET", f"{pooled_server.url}/stats")
        pool_stats = stats["pool"]
        assert pool_stats["started"] is True
        assert pool_stats["tasks_completed"] > 0
        assert pool_stats["busy_seconds"] > 0
        assert 0.0 <= pool_stats["utilization"] <= 1.0
        assert pool_stats["tasks_by_kind"].get("plan", 0) > 0
        assert "busy_seconds_by_kind" in pool_stats
        assert "wall_seconds" in pool_stats

    def test_unpooled_server_reports_null_pool(self, server):
        stats = request_json("GET", f"{server.url}/stats")
        assert stats["pool"] is None
