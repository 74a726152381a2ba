"""gRPC-like request/response layer.

Every vSwarm function sits behind an RPC server; the client performs
requests and the measured interval is request-to-reply (§4.1.2.3).  The
channel meters marshalling work (wire bytes both ways) so the workload
models can charge serialization instructions proportional to real payload
sizes.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.db.engine import encoded_size


class RpcError(RuntimeError):
    """Remote call failed (unknown method, handler raised, bad payload)."""


#: ``encoded_size({"method": m, "payload": p})`` beyond the sizes of
#: ``m`` and ``p``: ``{"method":`` + ``,"payload":`` + ``}``, with the
#: sorted keys and compact separators :func:`encoded_size` uses.
_ENVELOPE_BYTES = 22


class RpcRequest:
    """One marshalled request.

    ``payload_bytes``, when given, is ``encoded_size(payload)`` already
    taken by the caller; the envelope then adds only its fixed part
    instead of encoding the payload again.  A falsy payload is sent as
    ``{}``, which that size does not describe, so it is always encoded.
    """

    __slots__ = ("method", "payload", "wire_bytes")

    def __init__(self, method: str, payload: Optional[Dict[str, Any]] = None,
                 payload_bytes: Optional[int] = None):
        self.method = method
        self.payload = payload or {}
        if payload_bytes is None or not payload:
            self.wire_bytes = encoded_size(
                {"method": method, "payload": self.payload})
        else:
            self.wire_bytes = (payload_bytes + encoded_size(method)
                               + _ENVELOPE_BYTES)

    def __repr__(self) -> str:
        return "RpcRequest(%s, %dB)" % (self.method, self.wire_bytes)


class RpcResponse:
    """One marshalled response."""

    __slots__ = ("payload", "status", "wire_bytes")

    def __init__(self, payload: Any, status: str = "OK"):
        self.payload = payload
        self.status = status
        self.wire_bytes = encoded_size({"status": status, "payload": payload})

    @property
    def ok(self) -> bool:
        return self.status == "OK"

    def __repr__(self) -> str:
        return "RpcResponse(%s, %dB)" % (self.status, self.wire_bytes)


class RpcChannel:
    """A point-to-point channel with registered service methods."""

    def __init__(self, name: str = "channel"):
        self.name = name
        self._methods: Dict[str, Callable[[Dict[str, Any]], Any]] = {}
        self.requests_served = 0
        self.bytes_in = 0
        self.bytes_out = 0
        #: Optional :class:`repro.faults.FaultInjector`; calls then consult
        #: the ``rpc.drop`` / ``rpc.latency`` hook sites.  Same
        #: guard-on-``None`` discipline as everywhere else.
        self.faults = None
        #: Optional :class:`repro.obs.Tracer`; injected latency spikes
        #: then appear as spans on the faults track.
        self.tracer = None
        self.drops = 0
        self.latency_ticks = 0

    def register(self, method: str, handler: Callable[[Dict[str, Any]], Any]) -> None:
        if method in self._methods:
            raise ValueError("method %r already registered on %s" % (method, self.name))
        self._methods[method] = handler

    def call(self, method: str, payload: Optional[Dict[str, Any]] = None,
             payload_bytes: Optional[int] = None) -> RpcResponse:
        """Serve one request; ``payload_bytes`` as for :class:`RpcRequest`."""
        request = RpcRequest(method, payload, payload_bytes)
        self.bytes_in += request.wire_bytes
        faults = self.faults
        if faults is not None:
            if faults.should_fire("rpc.drop"):
                # The request never reaches the server: the client sees
                # UNAVAILABLE, the canonical retryable gRPC status.
                self.drops += 1
                response = RpcResponse(
                    {"error": "injected drop on %s" % self.name},
                    status="UNAVAILABLE",
                )
                self.bytes_out += response.wire_bytes
                return response
            if faults.should_fire("rpc.latency"):
                ticks = faults.ticks_for("rpc.latency")
                self.latency_ticks += ticks
                tracer = self.tracer
                if tracer is not None and ticks:
                    from repro.obs.tracer import TRACK_FAULTS

                    start = tracer.now
                    tracer.advance(ticks)
                    tracer.complete("rpc-latency-spike", "fault", start,
                                    ticks, TRACK_FAULTS,
                                    args={"method": method})
        handler = self._methods.get(method)
        if handler is None:
            raise RpcError("UNIMPLEMENTED: no method %r on %s" % (method, self.name))
        try:
            result = handler(request.payload)
        except RpcError:
            raise
        except Exception as error:  # noqa: BLE001 - surface as RPC status
            response = RpcResponse({"error": str(error)}, status="INTERNAL")
            self.bytes_out += response.wire_bytes
            return response
        response = RpcResponse(result)
        self.requests_served += 1
        self.bytes_out += response.wire_bytes
        return response

    def methods(self):
        return sorted(self._methods)

    def wire_stats(self) -> Dict[str, int]:
        """Cumulative wire-level counters, one dict per channel.

        The serving router gives every pool instance its own channel, so
        these counters are *per instance* — dashboards and tests can sum
        them across a pool or diff them around a single call without
        poking at individual attributes.
        """
        return {
            "requests_served": self.requests_served,
            "bytes_in": self.bytes_in,
            "bytes_out": self.bytes_out,
            "drops": self.drops,
            "latency_ticks": self.latency_ticks,
        }

    def __repr__(self) -> str:
        return "RpcChannel(%s, %d methods, %d served)" % (
            self.name, len(self._methods), self.requests_served,
        )
