"""Stdlib HTTP front-end of the job service (plus a tiny JSON client).

Routes (all JSON)::

    POST /jobs               submit a job           -> 202 {job_id, state}
    GET  /jobs               list jobs + states
    GET  /jobs/<id>          job status (stages, timings, cache hits)
    GET  /jobs/<id>/result   query result           -> 409 until done
    GET  /jobs/<id>/trace    span tree of the job   -> 409 until recorded
    POST /jobs/<id>/cancel   request cancellation
    GET  /stats              scheduler + artifact-store statistics
    GET  /metrics            Prometheus text exposition (not JSON)
    GET  /healthz            liveness probe

Bodies are compact JSON; append ``?pretty=1`` for an indented one.  The
server speaks HTTP/1.1 with a ``Content-Length`` on every response, so a
client may keep its connection open between requests.

Built on :class:`http.server.ThreadingHTTPServer` — no third-party web
framework, matching the repo's stdlib-only dependency rule.  Pass
``port=0`` to bind an ephemeral port (tests, CI smoke); the bound port is
available as :attr:`JobServer.port`.
"""

from __future__ import annotations

import json
import re
import threading
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple

from .api import ApiError, JobServiceAPI
from .scheduler import JobScheduler
from .store import ArtifactStore

__all__ = ["JobServer", "request_json", "ServiceClientError"]

_JOB_PATH = re.compile(
    r"^/jobs/(?P<job_id>[\w.\-]+)(?P<tail>/result|/cancel|/trace)?$"
)
_MAX_BODY_BYTES = 8 * 1024 * 1024


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP verbs onto a :class:`JobServiceAPI` instance."""

    api: JobServiceAPI  # injected by JobServer via subclassing
    server_version = "CutQCJobService/1.0"
    protocol_version = "HTTP/1.1"
    #: Buffered replies: headers and body leave in one send.
    wbufsize = 1 << 16
    #: Seconds an idle kept-alive connection may hold its handler thread.
    timeout = 60.0

    # -- plumbing -------------------------------------------------------
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # keep test/CI output clean; stats live at /stats

    def _send(self, status: int, document) -> None:
        if isinstance(document, str):  # /metrics: Prometheus text, not JSON
            return self._send_bytes(
                status, document.encode(),
                "text/plain; version=0.0.4; charset=utf-8",
            )
        if "pretty=1" in self.path.partition("?")[2].split("&"):
            text = json.dumps(document, indent=2)
        else:
            text = json.dumps(document, separators=(",", ":"))
        self._send_bytes(status, (text + "\n").encode(), "application/json")

    def _send_bytes(
        self, status: int, body: bytes, content_type: str
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> Dict:
        """The JSON body of a request whose route wants one.  (Every
        ``POST`` body was already consumed into ``self._raw``: left unread
        it would be parsed as the kept connection's next request.)"""
        raw = self._raw
        if not raw:
            raise ApiError(400, "request body must be JSON")
        try:
            return json.loads(raw)
        except json.JSONDecodeError as error:
            raise ApiError(400, f"invalid JSON body: {error}") from None

    def _dispatch(self, method: str) -> None:
        try:
            status, document = self._route(method)
        except ApiError as error:
            self._send(error.status, error.as_dict())
        except Exception as error:  # noqa: BLE001 - never kill the server
            self._send(
                500, {"error": f"{type(error).__name__}: {error}", "status": 500}
            )
        else:
            self._send(status, document)

    # -- routing --------------------------------------------------------
    def _route(self, method: str) -> Tuple[int, object]:
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        if method == "GET" and path == "/healthz":
            return 200, {"status": "ok"}
        if method == "GET" and path == "/stats":
            return 200, self.api.stats()
        if method == "GET" and path == "/metrics":
            return 200, self.api.metrics()
        if path == "/jobs":
            if method == "POST":
                return 202, self.api.create_job(self._read_body())
            if method == "GET":
                return 200, self.api.list_jobs()
            raise ApiError(405, f"{method} not allowed on {path}")
        match = _JOB_PATH.match(path)
        if match:
            job_id, tail = match.group("job_id"), match.group("tail")
            if tail == "/result" and method == "GET":
                return 200, self.api.job_result(job_id)
            if tail == "/trace" and method == "GET":
                return 200, self.api.job_trace(job_id)
            if tail == "/cancel" and method == "POST":
                return 200, self.api.cancel_job(job_id)
            if tail is None and method == "GET":
                return 200, self.api.job_status(job_id)
            raise ApiError(405, f"{method} not allowed on {path}")
        raise ApiError(404, f"no route for {path}")

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        length = int(self.headers.get("Content-Length") or 0)
        if length > _MAX_BODY_BYTES:
            self.close_connection = True  # refused unread
            self._send(413, ApiError(413, "request body too large").as_dict())
            return
        self._raw = self.rfile.read(length) if length else b""
        self._dispatch("POST")


class JobServer:
    """The assembled service: store + scheduler + threaded HTTP server.

    Each server instance is *stateless* beyond its scheduler's journal
    mirror: N servers constructed over one shared :class:`ArtifactStore`
    (``serve --replicas N``, or a ``store`` passed explicitly, or N
    processes pointed at one ``store_dir``) coordinate through the job
    journal — any replica accepts submissions, exactly one claims and
    executes each job, and every replica can serve its status/result.

    Without a ``scheduler``, the server builds one over its store from
    ``scheduler_options`` — :class:`JobScheduler`'s keyword arguments
    (``workers``, ``pool_workers``, ``tenants``, ``max_retries``, ...).
    """

    def __init__(
        self,
        store_dir=None,
        host: str = "127.0.0.1",
        port: int = 8000,
        scheduler: Optional[JobScheduler] = None,
        store: Optional[ArtifactStore] = None,
        max_store_bytes: Optional[int] = None,
        max_pending: Optional[int] = None,
        **scheduler_options,
    ):
        if scheduler is not None:
            self.store = scheduler.store
            self.scheduler = scheduler
        else:
            if store is None:
                if store_dir is None:
                    raise ValueError(
                        "JobServer needs store_dir, store or scheduler"
                    )
                store = ArtifactStore(store_dir, max_bytes=max_store_bytes)
            self.store = store
            self.scheduler = JobScheduler(self.store, **scheduler_options)
        self.api = JobServiceAPI(self.scheduler, max_pending=max_pending)

        api = self.api

        class BoundHandler(_Handler):
            pass

        BoundHandler.api = api
        class BoundServer(ThreadingHTTPServer):
            pass

        if max_pending is not None:
            # Bound the TCP accept backlog too, so overload pushes back
            # at the socket before the typed 503 ever has to.
            BoundServer.request_queue_size = min(
                128, max(8, int(max_pending))
            )
        self.httpd = BoundServer((host, port), BoundHandler)
        self.httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self.httpd.server_address[0]

    @property
    def port(self) -> int:
        """The actually bound port (resolves ``port=0`` ephemeral binds)."""
        return self.httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    def start(self) -> "JobServer":
        """Serve in a daemon thread (non-blocking); returns self."""
        self._thread = threading.Thread(
            target=self.httpd.serve_forever, name="cutqc-http", daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the CLI ``serve`` verb)."""
        self.httpd.serve_forever()

    def close(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10)
        self.scheduler.shutdown(wait=True)  # also closes the journal descriptor

    def __enter__(self) -> "JobServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ----------------------------------------------------------------------
# Minimal JSON client (CLI verbs, tests)
# ----------------------------------------------------------------------

class ServiceClientError(RuntimeError):
    """An HTTP error from the service, with its status + JSON body."""

    def __init__(self, status: int, document: Dict):
        super().__init__(document.get("error", f"HTTP {status}"))
        self.status = status
        self.document = document


def request_json(
    method: str,
    url: str,
    payload: Optional[Dict] = None,
    timeout: float = 30.0,
) -> Dict:
    """One JSON request/response round-trip against the service."""
    data = None
    headers = {"Accept": "application/json"}
    if payload is not None:
        data = json.dumps(payload).encode()
        headers["Content-Type"] = "application/json"
    request = urllib.request.Request(
        url, data=data, headers=headers, method=method
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return json.loads(response.read() or b"{}")
    except urllib.error.HTTPError as error:
        try:
            document = json.loads(error.read() or b"{}")
        except json.JSONDecodeError:
            document = {"error": str(error)}
        raise ServiceClientError(error.code, document) from None
    except urllib.error.URLError as error:
        # Connection refused / DNS failure / timeout: no HTTP status.
        raise ServiceClientError(
            0, {"error": f"cannot reach {url}: {error.reason}"}
        ) from None
