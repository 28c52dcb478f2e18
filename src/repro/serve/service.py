"""CampaignService: the always-on core behind ``repro serve``.

The HTTP layer is a thin skin; everything stateful lives here so the
service logic is testable without sockets:

* **Registry + lifecycle.**  Campaigns are registered with a stable id
  and move through the lifecycle machine defined in
  :mod:`repro.campaign_api` (``queued → running → … → completed``).
  Every transition is validated and persisted atomically to
  ``STATE_DIR/service.json``.
* **Background execution.**  A running campaign is a daemon thread
  around :func:`~repro.fuzzer.supervisor.run_supervised` with a
  :class:`~repro.fuzzer.supervisor.CampaignController` attached — the
  supervisor loop itself is unchanged; pause/cancel are its ``SIGINT``
  path triggered through the controller, so a paused campaign is
  checkpointed at batch granularity like any interrupted run.
* **Crash-safety.**  Each campaign checkpoints into its own directory
  under the state dir using the existing v2 checkpoint schema.  The
  registry never claims more than the checkpoints can back: after a
  ``SIGKILL``, :meth:`CampaignService.recover` re-queues every campaign
  the registry recorded as in-flight, and the scheduler resumes each
  from its checkpoint — batch-granular resume makes the final
  :class:`CampaignResult` equal to an uninterrupted run's.
* **Events.**  Supervisor ExecTrace events (heartbeats, claims,
  checkpoints) and service lifecycle changes fan out through an
  :class:`EventHub` ring buffer to SSE/long-poll subscribers.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

from repro.campaign_api import (
    CampaignResult,
    CampaignSpec,
    TERMINAL_STATES,
    KNOWN_SPEC_KEYS,
    spec_from_dict,
    spec_to_dict,
    validate_transition,
)
from repro.errors import ConfigError
from repro.fuzzer.supervisor import (
    MANIFEST_NAME,
    CampaignController,
    atomic_write,
    load_checkpoint,
    run_supervised,
)

REGISTRY_NAME = "service.json"
REGISTRY_KIND = "ozz-serve-registry"
REGISTRY_VERSION = 1

#: Events retained in the hub's ring for ``?since=`` replay.
EVENT_HISTORY = 2048

#: States :meth:`CampaignService.wait` treats as "settled" by default.
SETTLED_STATES = frozenset(TERMINAL_STATES | {"paused"})


class EventHub:
    """Thread-safe fan-out ring buffer for service/supervisor events.

    Supervisor threads publish; subscribers register a plain callable
    (the SSE handler bridges into its asyncio loop with
    ``call_soon_threadsafe``).  Every event gets a monotonically
    increasing ``seq``, and the last :data:`EVENT_HISTORY` events are
    replayable via :meth:`since` — that is what makes ``?since=N``
    reconnects and long-polling lossless over short gaps.
    """

    def __init__(self, history: int = EVENT_HISTORY) -> None:
        self._lock = threading.Lock()
        self._seq = 0
        self._buffer: deque = deque(maxlen=history)
        self._subs: Dict[int, Callable[[dict], None]] = {}
        self._tokens = itertools.count()

    def publish(self, payload: dict) -> dict:
        with self._lock:
            entry = dict(payload)
            entry["seq"] = self._seq
            self._seq += 1
            self._buffer.append(entry)
            subs = list(self._subs.values())
        for deliver in subs:
            try:
                deliver(entry)
            except Exception:
                pass  # a dead subscriber must not wedge the publisher
        return entry

    def subscribe(self, deliver: Callable[[dict], None]) -> int:
        with self._lock:
            token = next(self._tokens)
            self._subs[token] = deliver
            return token

    def unsubscribe(self, token: int) -> None:
        with self._lock:
            self._subs.pop(token, None)

    def since(self, seq: int) -> Tuple[List[dict], int]:
        """Buffered events with ``seq >= seq`` and the next cursor."""
        with self._lock:
            return [e for e in self._buffer if e["seq"] >= seq], self._seq


class _CampaignSink:
    """TraceSink bridging one campaign's supervisor events to the hub."""

    active = True

    def __init__(self, hub: EventHub, campaign_id: str) -> None:
        self.hub = hub
        self.campaign_id = campaign_id
        self.index = 0

    def emit(self, event) -> None:
        self.index += 1
        payload = event.to_dict()
        payload["campaign"] = self.campaign_id
        self.hub.publish(payload)


class ManagedCampaign:
    """Registry entry: one campaign's spec, state and live handles."""

    def __init__(self, cid: str, spec: CampaignSpec, state: str = "queued") -> None:
        self.id = cid
        self.spec = spec
        self.state = state
        self.error: Optional[str] = None
        self.result: Optional[CampaignResult] = None
        self.controller = None  # CampaignController while running


class CampaignService:
    """The campaign registry, scheduler and persistence layer.

    State-dir layout (everything JSON, everything atomic)::

        STATE_DIR/service.json            registry: ids, states, specs
        STATE_DIR/campaigns/<id>/ckpt/    v2 supervisor checkpoint
        STATE_DIR/campaigns/<id>/result.json     final CampaignResult
        STATE_DIR/campaigns/<id>/artifacts/*.json   crash artifacts
    """

    def __init__(
        self,
        state_dir: str,
        *,
        max_concurrent: int = 2,
        hub: Optional[EventHub] = None,
    ) -> None:
        if max_concurrent < 1:
            raise ConfigError("max_concurrent must be >= 1")
        self.state_dir = os.path.abspath(state_dir)
        self.max_concurrent = max_concurrent
        self.hub = hub or EventHub()
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self._campaigns: Dict[str, ManagedCampaign] = {}
        self._order: List[str] = []
        self._threads: Dict[str, threading.Thread] = {}
        self._next_id = 1
        self._closed = False
        os.makedirs(self.state_dir, exist_ok=True)
        self._load_registry()

    # -- paths -------------------------------------------------------------

    def campaign_dir(self, cid: str) -> str:
        return os.path.join(self.state_dir, "campaigns", cid)

    def checkpoint_dir(self, cid: str) -> str:
        return os.path.join(self.campaign_dir(cid), "ckpt")

    def artifacts_dir(self, cid: str) -> str:
        return os.path.join(self.campaign_dir(cid), "artifacts")

    def result_path(self, cid: str) -> str:
        return os.path.join(self.campaign_dir(cid), "result.json")

    # -- registry persistence ----------------------------------------------

    def _persist(self) -> None:
        payload = {
            "version": REGISTRY_VERSION,
            "kind": REGISTRY_KIND,
            "next_id": self._next_id,
            "campaigns": [
                {
                    "id": cid,
                    "state": self._campaigns[cid].state,
                    "spec": spec_to_dict(self._campaigns[cid].spec),
                    "error": self._campaigns[cid].error,
                }
                for cid in self._order
            ],
        }
        atomic_write(
            os.path.join(self.state_dir, REGISTRY_NAME),
            json.dumps(payload, indent=2),
        )

    def _load_registry(self) -> None:
        path = os.path.join(self.state_dir, REGISTRY_NAME)
        try:
            with open(path) as fh:
                payload = json.load(fh)
        except FileNotFoundError:
            return
        if payload.get("kind") != REGISTRY_KIND:
            raise ConfigError(f"{path} is not a service registry")
        if payload.get("version") != REGISTRY_VERSION:
            raise ConfigError(
                f"unsupported service registry version {payload.get('version')!r}"
            )
        self._next_id = payload.get("next_id", 1)
        for entry in payload.get("campaigns", ()):
            mc = ManagedCampaign(
                entry["id"], spec_from_dict(entry["spec"]), entry["state"]
            )
            mc.error = entry.get("error")
            if mc.state in TERMINAL_STATES:
                try:
                    with open(self.result_path(mc.id)) as fh:
                        mc.result = CampaignResult.from_json(fh.read())
                except (OSError, ValueError):
                    pass  # cancelled/failed campaigns may have no result
            self._campaigns[mc.id] = mc
            self._order.append(mc.id)

    # -- lifecycle ---------------------------------------------------------

    def _get(self, cid: str) -> ManagedCampaign:
        mc = self._campaigns.get(cid)
        if mc is None:
            raise KeyError(cid)
        return mc

    def _set_state(self, mc: ManagedCampaign, target: str) -> None:
        """Validated transition + persistence + event, under the lock."""
        validate_transition(mc.state, target)
        mc.state = target
        self._persist()
        self._cond.notify_all()
        self.hub.publish(
            {"kind": "campaign-state", "campaign": mc.id, "state": target}
        )

    def submit(self, payload: dict) -> ManagedCampaign:
        """Register a campaign from a spec payload; it queues immediately."""
        if not isinstance(payload, dict):
            raise ConfigError("campaign spec must be a JSON object")
        unknown = sorted(set(payload) - KNOWN_SPEC_KEYS)
        if unknown:
            raise ConfigError(f"unknown spec field(s): {', '.join(unknown)}")
        if payload.get("checkpoint_dir"):
            raise ConfigError(
                "checkpoint_dir is service-owned; submit the spec without it"
            )
        spec = spec_from_dict(payload)
        with self._lock:
            if self._closed:
                raise ConfigError("service is shutting down")
            cid = f"c{self._next_id:04d}"
            self._next_id += 1
            # Re-point the spec at the campaign's own checkpoint dir: this
            # both forces the supervised (pooled) path and is what makes
            # the campaign survive a daemon kill.
            from dataclasses import replace

            spec = replace(spec, checkpoint_dir=self.checkpoint_dir(cid))
            os.makedirs(self.checkpoint_dir(cid), exist_ok=True)
            mc = ManagedCampaign(cid, spec)
            self._campaigns[cid] = mc
            self._order.append(cid)
            self._persist()
            self.hub.publish(
                {"kind": "campaign-state", "campaign": cid, "state": "queued"}
            )
        self._tick()
        return mc

    def pause(self, cid: str) -> ManagedCampaign:
        with self._lock:
            mc = self._get(cid)
            if mc.state == "queued":
                self._set_state(mc, "paused")
            elif mc.state == "running":
                self._set_state(mc, "pausing")
                if mc.controller is not None:
                    mc.controller.request_stop("pause")
            else:
                raise ConfigError(f"cannot pause a {mc.state} campaign")
            return mc

    def resume(self, cid: str) -> ManagedCampaign:
        with self._lock:
            mc = self._get(cid)
            self._set_state(mc, "queued")  # only legal from "paused"
        self._tick()
        return mc

    def cancel(self, cid: str) -> ManagedCampaign:
        with self._lock:
            mc = self._get(cid)
            if mc.state in ("queued", "paused"):
                self._set_state(mc, "cancelled")
            elif mc.state in ("running", "pausing"):
                self._set_state(mc, "cancelling")
                if mc.controller is not None:
                    mc.controller.request_stop("cancel")
            else:
                raise ConfigError(f"cannot cancel a {mc.state} campaign")
            return mc

    def recover(self) -> List[str]:
        """Re-queue every campaign the registry recorded as in-flight.

        Called once on daemon start.  ``running`` (the daemon was
        killed mid-campaign) and stale ``queued`` campaigns re-enter the
        queue and resume from their checkpoints; a kill that landed
        while a pause/cancel was draining settles to the state the user
        asked for.  Returns the ids that will run again.
        """
        requeued: List[str] = []
        with self._lock:
            for cid in self._order:
                mc = self._campaigns[cid]
                if mc.state == "running":
                    self._set_state(mc, "queued")
                    requeued.append(cid)
                elif mc.state == "queued":
                    requeued.append(cid)
                elif mc.state == "pausing":
                    self._set_state(mc, "paused")
                elif mc.state == "cancelling":
                    self._set_state(mc, "cancelled")
        self._tick()
        return requeued

    def close(self, *, wait: float = 30.0) -> None:
        """Graceful shutdown: drain running campaigns to checkpoints.

        Running campaigns are asked to stop (reason ``shutdown``) and —
        once their supervisors have checkpointed — return to ``queued``,
        so the next ``repro serve`` picks them up exactly where a
        ``SIGKILL`` restart would.
        """
        with self._lock:
            self._closed = True
            for mc in self._campaigns.values():
                if mc.state == "running" and mc.controller is not None:
                    mc.controller.request_stop("shutdown")
            threads = list(self._threads.values())
        deadline = time.monotonic() + wait
        for t in threads:
            t.join(timeout=max(0.1, deadline - time.monotonic()))

    # -- scheduler ---------------------------------------------------------

    def _tick(self) -> None:
        """Start queued campaigns while worker-pool slots are free."""
        with self._lock:
            if self._closed:
                return
            while len(self._threads) < self.max_concurrent:
                cid = next(
                    (
                        c
                        for c in self._order
                        if self._campaigns[c].state == "queued"
                        and c not in self._threads
                    ),
                    None,
                )
                if cid is None:
                    return
                mc = self._campaigns[cid]
                self._set_state(mc, "running")
                t = threading.Thread(
                    target=self._run, args=(mc,), daemon=True,
                    name=f"campaign-{cid}",
                )
                self._threads[cid] = t
                t.start()

    def _run(self, mc: ManagedCampaign) -> None:
        """Thread body: execute (or resume) one campaign to a settled state."""
        controller = CampaignController()
        with self._lock:
            mc.controller = controller
        sink = _CampaignSink(self.hub, mc.id)
        try:
            ckpt = self.checkpoint_dir(mc.id)
            if os.path.exists(os.path.join(ckpt, MANIFEST_NAME)):
                state = load_checkpoint(ckpt)
                result = run_supervised(
                    state.spec,
                    resume_state=state,
                    sink=sink,
                    controller=controller,
                )
            else:
                result = run_supervised(mc.spec, sink=sink, controller=controller)
        except Exception as exc:
            with self._lock:
                mc.error = f"{type(exc).__name__}: {exc}"
                mc.controller = None
                self._threads.pop(mc.id, None)
                self._set_state(mc, "failed")
            self._tick()
            return

        reason = controller.stop_reason
        completed = not result.interrupted
        if completed:
            # Persist the result and its replayable artifacts *before*
            # the state flips, so an observer that sees "completed" can
            # immediately fetch both.
            self._write_result(mc, result)
        with self._lock:
            mc.controller = None
            self._threads.pop(mc.id, None)
            if completed:
                mc.result = result
                self._set_state(mc, "completed")
            elif reason == "cancel":
                mc.result = result  # partial merge, kept for inspection
                self._set_state(mc, "cancelled")
            elif reason == "pause":
                self._set_state(mc, "paused")
            else:  # shutdown (or an external stop): resumable next start
                self._set_state(mc, "queued")
        self._tick()

    def _write_result(self, mc: ManagedCampaign, result: CampaignResult) -> None:
        atomic_write(self.result_path(mc.id), result.to_json())
        if result.crashdb is not None:
            from repro.trace.replayer import dump_artifacts

            dump_artifacts(
                result.crashdb, result.spec.patched, self.artifacts_dir(mc.id)
            )

    # -- queries -----------------------------------------------------------

    def wait(
        self,
        cid: str,
        *,
        states: frozenset = SETTLED_STATES,
        timeout: float = 600.0,
    ) -> str:
        """Block until a campaign reaches one of ``states`` (tests/CLI)."""
        deadline = time.monotonic() + timeout
        with self._cond:
            mc = self._get(cid)
            while mc.state not in states:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError(
                        f"campaign {cid} still {mc.state!r} after {timeout}s"
                    )
                self._cond.wait(remaining)
            return mc.state

    def states_census(self) -> Dict[str, int]:
        with self._lock:
            census: Dict[str, int] = {}
            for mc in self._campaigns.values():
                census[mc.state] = census.get(mc.state, 0) + 1
            return census

    def campaign_ids(self) -> List[str]:
        with self._lock:
            return list(self._order)

    def summary(self, cid: str) -> dict:
        """JSON-safe summary of one campaign (list/detail endpoints)."""
        with self._lock:
            mc = self._get(cid)
            out: dict = {
                "id": mc.id,
                "state": mc.state,
                "mode": mc.spec.mode,
                "spec": spec_to_dict(mc.spec),
            }
            if mc.controller is not None:
                out["progress"] = mc.controller.progress()
            elif mc.result is not None:
                out["progress"] = {
                    "batches": len(mc.spec.batches()),
                    "done": len(mc.result.shards),
                    "failed": len(mc.result.failed_shards),
                    "iterations": {},
                }
            if mc.error is not None:
                out["error"] = mc.error
            if mc.result is not None:
                r = mc.result
                out["result"] = {
                    "tests_run": r.stats.tests_run,
                    "unique_crashes": len(r.crashes),
                    "coverage": r.stats.coverage,
                    "seconds": r.seconds,
                    "interrupted": r.interrupted,
                    "found_table3": list(r.found_table3),
                    "found_table4": list(r.found_table4),
                }
            return out

    def result_json(self, cid: str) -> Optional[str]:
        """The stored CampaignResult JSON text, or None if not finished."""
        with self._lock:
            mc = self._get(cid)
            if mc.result is not None:
                return mc.result.to_json()
        try:
            with open(self.result_path(cid)) as fh:
                return fh.read()
        except FileNotFoundError:
            return None

    def crashes(self, cid: str) -> List[dict]:
        """Crash summaries with artifact download names when available."""
        from repro.trace.replayer import artifact_slug

        with self._lock:
            mc = self._get(cid)
            result = mc.result
        if result is None:
            return []
        adir = self.artifacts_dir(cid)
        out = []
        for c in result.crashes:
            name = f"{artifact_slug(c.title)}.json"
            out.append(
                {
                    "title": c.title,
                    "count": c.count,
                    "first_test_index": c.first_test_index,
                    "bug_id": c.bug_id,
                    "oracle": c.oracle,
                    "artifact": (
                        name if os.path.exists(os.path.join(adir, name)) else None
                    ),
                }
            )
        return out

    def artifact_names(self, cid: str) -> List[str]:
        self._get(cid)
        try:
            return sorted(
                n
                for n in os.listdir(self.artifacts_dir(cid))
                if n.endswith(".json")
            )
        except FileNotFoundError:
            return []

    def artifact_text(self, cid: str, name: str) -> Optional[str]:
        """One stored artifact's JSON text (name is validated, no paths)."""
        self._get(cid)
        if os.sep in name or name.startswith(".") or not name.endswith(".json"):
            raise ConfigError(f"bad artifact name {name!r}")
        try:
            with open(os.path.join(self.artifacts_dir(cid), name)) as fh:
                return fh.read()
        except FileNotFoundError:
            return None

    def merged_stats(self) -> dict:
        """Crash/coverage statistics merged across every campaign."""
        with self._lock:
            results = {
                cid: self._campaigns[cid].result
                for cid in self._order
                if self._campaigns[cid].result is not None
            }
            census = {}
            for mc in self._campaigns.values():
                census[mc.state] = census.get(mc.state, 0) + 1
        titles: Dict[str, dict] = {}
        tests_run = 0
        t3: set = set()
        t4: set = set()
        coverage: Dict[str, int] = {}
        for cid, r in results.items():
            tests_run += r.stats.tests_run
            coverage[cid] = r.stats.coverage
            t3.update(r.found_table3)
            t4.update(r.found_table4)
            for c in r.crashes:
                slot = titles.setdefault(
                    c.title,
                    {"title": c.title, "count": 0, "bug_id": c.bug_id,
                     "campaigns": []},
                )
                slot["count"] += c.count
                slot["campaigns"].append(cid)
        return {
            "campaigns": census,
            "tests_run": tests_run,
            "unique_titles": len(titles),
            "crashes": sorted(titles.values(), key=lambda d: d["title"]),
            "found_table3": sorted(t3),
            "found_table4": sorted(t4),
            "coverage": coverage,
        }
