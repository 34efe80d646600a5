"""Transport-agnostic HTTP applications for the serving plane.

The route logic for a worker (:class:`ServiceApp`) and for the fleet
router (:class:`repro.serving.router.RouterApp`) speaks one tiny
interface —

    ``app.handle(method, target, body_bytes) -> Response``

— which the threaded stdlib front-end (:mod:`repro.serving.http`)
drives for both, so a worker and the router frame replies identically.

The adapter owns the wire (short-read-hardened body collection, status
line, Content-Length framing); the app owns JSON parsing, routing,
error mapping (400 for bad input, 500 for surprises) and the
``http.handle`` trace span.  ``Response.shutdown`` asks the adapter to
run its shutdown action after the reply is flushed — never before.
"""

from __future__ import annotations

import json
from typing import Callable, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from ..exceptions import ConfigError, DataError
from ..obs import get_logger
from .service import PredictionService

__all__ = ["MAX_BODY_BYTES", "MAX_BATCH_ITEMS", "Response", "ServiceApp"]

_log = get_logger(__name__)

#: Largest request body any serving endpoint accepts.
MAX_BODY_BYTES = 1 << 20
#: Largest ``items`` list one ``/predict_batch`` call may carry.
MAX_BATCH_ITEMS = 8192
_DEFAULT_TRACE_DUMP = 256

_JSON = "application/json"
_PROMETHEUS = "text/plain; version=0.0.4; charset=utf-8"

#: Input errors mapped to 400s (anything else unexpected becomes a 500).
BAD_REQUEST_ERRORS = (DataError, ConfigError, ValueError, KeyError, TypeError)


class Response:
    """One rendered HTTP response, ready for any adapter to frame."""

    __slots__ = ("status", "data", "content_type", "shutdown")

    def __init__(
        self,
        status: int,
        data: bytes,
        content_type: str = _JSON,
        shutdown: bool = False,
    ) -> None:
        self.status = status
        self.data = data
        self.content_type = content_type
        #: When true, the adapter runs its shutdown action after the
        #: reply bytes are flushed to the socket.
        self.shutdown = shutdown


def json_response(status: int, payload: dict, shutdown: bool = False) -> Response:
    return Response(
        status, json.dumps(payload).encode("utf-8"), _JSON, shutdown=shutdown
    )


def text_response(status: int, text: str) -> Response:
    return Response(status, text.encode("utf-8"), _PROMETHEUS)


def parse_json_body(body: bytes) -> dict:
    """The hardened JSON-object parse both apps share.

    An empty body means the adapter saw ``Content-Length: 0`` (or none);
    truncation and oversize are adapter-level errors because only the
    adapter sees the wire.
    """
    if not body:
        raise DataError("request body required")
    try:
        parsed = json.loads(body)
    except json.JSONDecodeError as error:
        raise DataError(f"invalid JSON body: {error}") from error
    if not isinstance(parsed, dict):
        raise DataError("request body must be a JSON object")
    return parsed


def parse_batch_items(body: dict) -> list:
    """Validate a ``/predict_batch`` payload into (area, day, slot) triples."""
    items = body.get("items")
    if not isinstance(items, list):
        raise DataError('predict_batch body must be {"items": [...]}')
    if not items:
        raise DataError("items must not be empty")
    if len(items) > MAX_BATCH_ITEMS:
        raise DataError(
            f"batch of {len(items)} items exceeds the {MAX_BATCH_ITEMS} limit"
        )
    triples = []
    for item in items:
        if not isinstance(item, dict):
            raise DataError(
                "each batch item must be an object with area/day/timeslot"
            )
        triples.append(
            (int(item["area"]), int(item["day"]), int(item["timeslot"]))
        )
    return triples


class ServiceApp:
    """Routes for one :class:`PredictionService` (the worker surface).

    ``POST /predict``, ``/predict_batch``, ``/observe``, ``/reload``,
    ``/shutdown``; ``GET /healthz``, ``/stats``, ``/metrics``,
    ``/trace?limit=N`` — exactly the PR 7 API plus the batch endpoint.
    """

    def __init__(self, service: PredictionService) -> None:
        self.service = service

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def handle(self, method: str, target: str, body: bytes) -> Response:
        parsed = urlsplit(target)
        path = parsed.path
        with self.service.tracer.span("http.handle", path=path):
            try:
                if method == "GET":
                    return self._get(path, parsed.query)
                if method == "POST":
                    return self._post(path, body)
                return json_response(
                    405, {"error": f"method {method} not allowed"}
                )
            except BAD_REQUEST_ERRORS as error:
                return json_response(400, {"error": str(error)})
            except Exception as error:  # noqa: BLE001 — last-resort 500
                _log.event("serving.http_error", path=path, error=repr(error))
                return json_response(500, {"error": repr(error)})

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------

    def _get(self, path: str, query: str) -> Response:
        service = self.service
        if path == "/healthz":
            return json_response(
                200, {"status": "ok", "version": service.version}
            )
        if path == "/stats":
            return json_response(200, service.stats())
        if path == "/metrics":
            return text_response(200, service.registry.to_prometheus())
        if path == "/trace":
            return json_response(*self._trace_dump(parse_qs(query)))
        return json_response(404, {"error": f"unknown path {path}"})

    def _post(self, path: str, body: bytes) -> Response:
        if path == "/predict":
            return json_response(*self._predict(parse_json_body(body)))
        if path == "/predict_batch":
            return json_response(*self._predict_batch(parse_json_body(body)))
        if path == "/observe":
            return json_response(*self._observe(parse_json_body(body)))
        if path == "/reload":
            payload = parse_json_body(body)
            version = self.service.load_checkpoint(str(payload["checkpoint"]))
            return json_response(200, {"version": version})
        if path == "/shutdown":
            return json_response(200, {"status": "shutting down"}, shutdown=True)
        return json_response(404, {"error": f"unknown path {path}"})

    @staticmethod
    def _result_payload(result) -> dict:
        """One result as a wire dict; interval keys only when the
        checkpoint carries a quantile head, so point-only responses are
        byte-for-byte what they were before quantile serving existed."""
        payload = {
            "gap": result.gap,
            "version": result.version,
            "cached": result.cached,
        }
        if result.intervals is not None:
            payload.update(result.intervals)
        return payload

    def _predict(self, body: dict) -> Tuple[int, dict]:
        result = self.service.predict(
            int(body["area"]), int(body["day"]), int(body["timeslot"])
        )
        return 200, self._result_payload(result)

    def _predict_batch(self, body: dict) -> Tuple[int, dict]:
        results = self.service.predict_batch(parse_batch_items(body))
        return 200, {
            "results": [self._result_payload(r) for r in results],
            "count": len(results),
        }

    def _observe(self, body: dict) -> Tuple[int, dict]:
        area = body.get("area")
        outcome = self.service.observe(
            str(body["kind"]),
            int(body["day"]),
            int(body["minute"]),
            area_id=int(area) if area is not None else None,
            **dict(body.get("values", {})),
        )
        return 200, outcome

    def _trace_dump(self, query: dict) -> Tuple[int, dict]:
        limit = int(query.get("limit", [_DEFAULT_TRACE_DUMP])[0])
        if limit < 0:
            raise ValueError(f"limit must be >= 0, got {limit}")
        tracer = self.service.tracer
        spans = tracer.spans(limit=limit)
        return 200, {
            "enabled": tracer.enabled,
            "capacity": tracer.capacity,
            "dropped": tracer.dropped,
            "spans": [span.as_dict() for span in spans],
        }


#: Type of the action an adapter runs after flushing a shutdown reply.
ShutdownAction = Optional[Callable[[], None]]
