"""The asyncio HTTP skin over :class:`CampaignService`.

Deliberately framework-free: requests are parsed off an asyncio stream
into a plain :class:`HttpRequest`, dispatched through the declarative
route table (:mod:`repro.serve.routes`), and answered with an
:class:`HttpResponse`.  Two properties matter more than features:

* **In-process transport.**  ``await app.dispatch(request)`` is the
  whole request path — tests exercise every route without opening a
  socket, and the socket shell (:meth:`ServeApp.serve`) is a thin loop
  that only CI's smoke job needs to touch.
* **Streaming responses.**  ``/api/events`` returns a response whose
  body is an async iterator of SSE frames fed from the service's
  :class:`~repro.serve.service.EventHub` via ``call_soon_threadsafe``
  (supervisor threads publish; the event loop consumes).

Blocking work (a replay boots a kernel and re-runs an MTI) runs in the
default executor so heartbeat streaming never stalls behind it.
"""

from __future__ import annotations

import asyncio
import json
import os
from dataclasses import dataclass, field
from typing import AsyncIterator, Dict, Optional, Union
from urllib.parse import parse_qs, unquote, urlsplit

from repro.errors import ConfigError
from repro.serve.routes import match_route
from repro.serve.service import CampaignService

#: Where the dashboard's static files live (shipped with the package).
DASHBOARD_DIR = os.path.join(os.path.dirname(__file__), "dashboard")

_CONTENT_TYPES = {
    ".html": "text/html; charset=utf-8",
    ".js": "application/javascript; charset=utf-8",
    ".css": "text/css; charset=utf-8",
    ".json": "application/json; charset=utf-8",
}

#: Comment frame sent on an idle SSE stream so proxies keep it open.
_SSE_KEEPALIVE_SECS = 15.0

#: Largest request body the daemon reads; a bigger ``Content-Length``
#: is answered 413 without reading the body.
MAX_BODY_BYTES = 1 << 20

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Content Too Large",
    500: "Internal Server Error",
}


@dataclass
class HttpRequest:
    """A parsed request — constructible directly in tests."""

    method: str
    path: str
    query: Dict[str, str] = field(default_factory=dict)
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self):
        try:
            return json.loads(self.body.decode("utf-8") or "null")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"request body is not valid JSON: {exc}")


@dataclass
class HttpResponse:
    """A response; ``body`` is bytes or an async iterator of chunks."""

    status: int = 200
    body: Union[bytes, AsyncIterator[bytes]] = b""
    content_type: str = "application/json; charset=utf-8"
    headers: Dict[str, str] = field(default_factory=dict)

    @property
    def streaming(self) -> bool:
        return not isinstance(self.body, (bytes, bytearray))

    def json(self):
        """Decode a non-streaming JSON body (test convenience)."""
        return json.loads(self.body.decode("utf-8"))


def json_response(payload, status: int = 200) -> HttpResponse:
    return HttpResponse(
        status=status, body=(json.dumps(payload, indent=2) + "\n").encode()
    )


def error_response(message: str, status: int) -> HttpResponse:
    return json_response({"error": message}, status=status)


class RequestError(Exception):
    """A request rejected while parsing, answered with ``status``."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class ServeApp:
    """Route handlers + dispatch over one :class:`CampaignService`."""

    def __init__(self, service: CampaignService) -> None:
        self.service = service

    # -- dispatch ----------------------------------------------------------

    async def dispatch(self, request: HttpRequest) -> HttpResponse:
        """The full request path, no socket required."""
        route, params = match_route(request.method, request.path)
        if route is None:
            # Distinguish a wrong method on a real path from a miss.
            for method in ("GET", "POST"):
                if method != request.method:
                    r, _ = match_route(method, request.path)
                    if r is not None:
                        return error_response(
                            f"method {request.method} not allowed on "
                            f"{request.path}", 405,
                        )
            return error_response(f"no route for {request.path}", 404)
        handler = getattr(self, route.handler)
        try:
            return await handler(request, **params)
        except KeyError as exc:
            return error_response(f"unknown campaign {exc.args[0]!r}", 404)
        except ConfigError as exc:
            # Spec/validation problems are 400; illegal lifecycle
            # transitions are conflicts with current state.
            status = 409 if "transition" in str(exc) or "cannot" in str(exc) else 400
            return error_response(str(exc), status)

    # -- campaign endpoints ------------------------------------------------

    async def health(self, request: HttpRequest) -> HttpResponse:
        return json_response(
            {"status": "ok", "campaigns": self.service.states_census()}
        )

    async def list_campaigns(self, request: HttpRequest) -> HttpResponse:
        return json_response(
            {
                "campaigns": [
                    self.service.summary(cid)
                    for cid in self.service.campaign_ids()
                ]
            }
        )

    async def submit_campaign(self, request: HttpRequest) -> HttpResponse:
        payload = request.json()
        mc = self.service.submit(payload if payload is not None else {})
        return json_response({"campaign_id": mc.id, "state": mc.state})

    async def campaign_detail(self, request: HttpRequest, id: str) -> HttpResponse:
        return json_response(self.service.summary(id))

    async def pause_campaign(self, request: HttpRequest, id: str) -> HttpResponse:
        mc = self.service.pause(id)
        return json_response({"id": mc.id, "state": mc.state})

    async def resume_campaign(self, request: HttpRequest, id: str) -> HttpResponse:
        mc = self.service.resume(id)
        return json_response({"id": mc.id, "state": mc.state})

    async def cancel_campaign(self, request: HttpRequest, id: str) -> HttpResponse:
        mc = self.service.cancel(id)
        return json_response({"id": mc.id, "state": mc.state})

    async def campaign_result(self, request: HttpRequest, id: str) -> HttpResponse:
        text = self.service.result_json(id)
        if text is None:
            return error_response(f"campaign {id} has no result yet", 404)
        return HttpResponse(body=text.encode())

    async def campaign_crashes(self, request: HttpRequest, id: str) -> HttpResponse:
        return json_response({"crashes": self.service.crashes(id)})

    async def list_artifacts(self, request: HttpRequest, id: str) -> HttpResponse:
        return json_response({"artifacts": self.service.artifact_names(id)})

    async def download_artifact(
        self, request: HttpRequest, id: str, name: str
    ) -> HttpResponse:
        text = self.service.artifact_text(id, name)
        if text is None:
            return error_response(f"no artifact {name!r} for campaign {id}", 404)
        return HttpResponse(
            body=text.encode(),
            headers={"Content-Disposition": f'attachment; filename="{name}"'},
        )

    # -- replay / explorer -------------------------------------------------

    def _replay_feed(self, artifact_text: str) -> dict:
        """Blocking: load, replay and annotate one artifact."""
        from repro.trace.feed import schedule_feed
        from repro.trace.replayer import CrashArtifact, replay_artifact

        artifact = CrashArtifact.from_json(artifact_text)
        verdict = replay_artifact(artifact)
        crash = {
            "title": artifact.title,
            "oracle": artifact.oracle,
            "function": artifact.function,
            "inst_addr": artifact.inst_addr,
            "event_index": artifact.event_index,
            "reordered_insns": list(artifact.reordered_insns),
            "hypothetical_barrier": artifact.hypothetical_barrier,
            "barrier_test": artifact.barrier_test,
        }
        return {
            "verdict": {
                "ok": verdict.ok,
                "mismatches": verdict.mismatches,
                "events_compared": verdict.events_compared,
            },
            "crash": crash,
            "feed": schedule_feed(artifact.schedule, crash),
        }

    async def _replay_response(self, artifact_text: str) -> HttpResponse:
        from repro.trace.replayer import ArtifactError

        loop = asyncio.get_running_loop()
        try:
            payload = await loop.run_in_executor(
                None, self._replay_feed, artifact_text
            )
        except ArtifactError as exc:
            return error_response(str(exc), 400)
        return json_response(payload)

    async def replay_stored(
        self, request: HttpRequest, id: str, name: str
    ) -> HttpResponse:
        text = self.service.artifact_text(id, name)
        if text is None:
            return error_response(f"no artifact {name!r} for campaign {id}", 404)
        return await self._replay_response(text)

    async def replay_posted(self, request: HttpRequest) -> HttpResponse:
        if not request.body:
            return error_response("post a crash-artifact JSON body", 400)
        return await self._replay_response(request.body.decode("utf-8", "replace"))

    # -- stats / events ----------------------------------------------------

    async def stats(self, request: HttpRequest) -> HttpResponse:
        return json_response(self.service.merged_stats())

    def _since(self, request: HttpRequest) -> int:
        try:
            return max(0, int(request.query.get("since", "0")))
        except ValueError:
            raise ConfigError("?since= must be an integer")

    async def events_poll(self, request: HttpRequest) -> HttpResponse:
        events, cursor = self.service.hub.since(self._since(request))
        return json_response({"next": cursor, "events": events})

    async def events_stream(self, request: HttpRequest) -> HttpResponse:
        since = self._since(request)
        loop = asyncio.get_running_loop()
        queue: asyncio.Queue = asyncio.Queue()
        hub = self.service.hub

        def deliver(entry: dict) -> None:
            loop.call_soon_threadsafe(queue.put_nowait, entry)

        async def frames() -> AsyncIterator[bytes]:
            token = hub.subscribe(deliver)
            try:
                replay, _ = hub.since(since)
                seen = -1
                for entry in replay:
                    seen = entry["seq"]
                    yield _sse_frame(entry)
                while True:
                    try:
                        entry = await asyncio.wait_for(
                            queue.get(), timeout=_SSE_KEEPALIVE_SECS
                        )
                    except asyncio.TimeoutError:
                        yield b": keepalive\n\n"
                        continue
                    if entry["seq"] <= seen:
                        continue  # already replayed from the ring
                    seen = entry["seq"]
                    yield _sse_frame(entry)
            finally:
                hub.unsubscribe(token)

        return HttpResponse(
            body=frames(),
            content_type="text/event-stream; charset=utf-8",
            headers={"Cache-Control": "no-cache"},
        )

    # -- dashboard ---------------------------------------------------------

    async def dashboard(self, request: HttpRequest) -> HttpResponse:
        return self._asset("index.html")

    async def static_asset(self, request: HttpRequest, name: str) -> HttpResponse:
        return self._asset(name)

    def _asset(self, name: str) -> HttpResponse:
        if os.sep in name or name.startswith("."):
            return error_response(f"bad asset name {name!r}", 400)
        path = os.path.join(DASHBOARD_DIR, name)
        try:
            with open(path, "rb") as fh:
                body = fh.read()
        except (FileNotFoundError, IsADirectoryError):
            return error_response(f"no asset {name!r}", 404)
        ext = os.path.splitext(name)[1]
        return HttpResponse(
            body=body,
            content_type=_CONTENT_TYPES.get(ext, "application/octet-stream"),
        )

    # -- socket shell ------------------------------------------------------

    async def handle_connection(self, reader, writer) -> None:
        """One connection, one request (Connection: close)."""
        try:
            request = await _read_request(reader)
        except RequestError as exc:
            response = error_response(str(exc), exc.status)
        except (asyncio.IncompleteReadError, ConnectionError, ValueError):
            writer.close()
            return
        else:
            try:
                response = await self.dispatch(request)
            except Exception as exc:  # a handler bug must not kill the daemon
                response = error_response(f"internal error: {exc}", 500)
        try:
            await _write_response(writer, response)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            try:
                writer.close()
            except Exception:
                pass

    async def serve(self, host: str, port: int):
        """Bind and return the asyncio server (caller owns the loop)."""
        return await asyncio.start_server(self.handle_connection, host, port)


def _sse_frame(entry: dict) -> bytes:
    return (
        f"id: {entry['seq']}\ndata: {json.dumps(entry)}\n\n".encode("utf-8")
    )


async def _read_request(reader) -> HttpRequest:
    """Parse one HTTP/1.1 request off a stream (no continuation lines)."""
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    try:
        method, target, _version = lines[0].split(" ", 2)
    except ValueError:
        raise ValueError(f"bad request line {lines[0]!r}")
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if ":" in line:
            key, value = line.split(":", 1)
            headers[key.strip().lower()] = value.strip()
    body = b""
    raw = headers.get("content-length", "0") or "0"
    if not (raw.isascii() and raw.isdigit()):
        raise RequestError(400, f"bad Content-Length {raw!r}")
    length = int(raw)
    if length > MAX_BODY_BYTES:
        raise RequestError(
            413, f"request body of {length} bytes exceeds {MAX_BODY_BYTES}"
        )
    if length:
        body = await reader.readexactly(length)
    parts = urlsplit(target)
    query = {
        k: v[-1] for k, v in parse_qs(parts.query, keep_blank_values=True).items()
    }
    return HttpRequest(
        method=method.upper(),
        path=unquote(parts.path) or "/",
        query=query,
        headers=headers,
        body=body,
    )


async def _write_response(writer, response: HttpResponse) -> None:
    reason = _STATUS_TEXT.get(response.status, "Unknown")
    headers = dict(response.headers)
    headers["Content-Type"] = response.content_type
    headers["Connection"] = "close"
    if not response.streaming:
        headers["Content-Length"] = str(len(response.body))
    head = [f"HTTP/1.1 {response.status} {reason}"]
    head.extend(f"{k}: {v}" for k, v in headers.items())
    writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"))
    await writer.drain()
    if response.streaming:
        async for chunk in response.body:
            writer.write(chunk)
            await writer.drain()
    else:
        writer.write(response.body)
        await writer.drain()
