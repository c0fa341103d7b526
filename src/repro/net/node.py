"""Client/sequencer/server nodes of the Figure-4 causal KV store.

The store's roles, routing discipline and session-causal guard, on asyncio
protocols via :mod:`repro.net.transport`; its configuration, records and audit
live in :mod:`repro.applications.causal_kv`.  The same nodes run on TCP
(``repro kv-live``: one OS process hosts the whole loopback cluster; ``repro
serve``: one node per process with a shared JSON address book) and on
virtual time (:func:`~repro.applications.causal_kv.run_store`, on a
:class:`~repro.net.virtual.VirtualLoop`).

Routing follows the Figure-4 communication graph exactly: clients and
servers talk only to the sequencers they are attached to, sequencers form a
clique, and any message to a non-adjacent process is relayed through the
target's home sequencer (at most one relay hop, since the sequencer mesh is
complete).  Keeping every hop on a graph edge is what lets a real
:class:`~repro.clocks.base.ClockAlgorithm` — in particular the paper's
:class:`~repro.clocks.inline_cover.CoverInlineClock`, whose timestamps are
sized by the sequencer vertex cover — observe the live run unchanged.

The **clock seam** is :class:`LiveClockHost`: every framed request and
response between adjacent processes is an application message carrying a
clock envelope (send-event payload) and the receiving node replays it into
the algorithm.  Any of the nine registered schemes drops in; duplicated
frames are absorbed by message-id dedup so at-least-once delivery never
produces a second receive event.

**Control messages ride the frames already going their way** (the paper's
Section 3.2 piggybacking; the simulator's ``ControlTransport.PIGGYBACK``).
A control the algorithm emits on receiving a *request* goes back in the
``"ctl"`` list of that request's response; one emitted on receiving a
*response* waits in a per-destination outbox for this node's next request to
that process.  A riding control is its acknowledgement alone, ``{"pl":
{"__tup": [seq, a, b]}}``: the frame's sender is the control channel's
source and its receiver the destination, and the acknowledgement's first
element is its sequence number.  The receiver checks a frame's list once,
before the clock sees anything: the hop must be one of the clock's control
channels and every payload three integers with ``seq >= 0`` and ``a, b >=
1``, or the whole frame is refused (``net.ctl_rejected``).  It then hands
the list to its clock after the frame's own receive event, through
:meth:`LiveClockHost.control`; the clock applies each control channel in
the order of the controls' own sequence numbers and refuses a repeat
(:class:`~repro.clocks.base.InlineClock`) — so a retransmitted request or a
replayed cached response is harmless, and a request that fails puts its
controls back at the head of the outbox.  There is no per-control RPC and
no timer: an edge that goes idle finalizes at its next message, or when the
node quiesces and :meth:`LiveNode.flush_controls` sends what is left, one
batched ``{"type": "ctl"}`` request per destination.  A response never
empties the outbox: which of two concurrent exchanges on an edge ends last
depends on timing, and the number of frames a run sends must not.  What is
lost: the controls on a response whose requester gave up on the request id
(they count as piggybacked; the receiver's channel then holds later ones
back), those of a flush that exhausts its retries (``net.ctl_lost``), and
whatever a crashed node still held.  Their events finalize at termination,
as in the simulator's lossy-control runs.

Robustness properties the nodes provide:

- **Exactly-once commits.**  Write commits are deduplicated by the client's
  operation id (``orid``) *at the primary*, and the dedup table is part of
  the server's durable checkpoint — so retransmissions, duplicated frames,
  and client failover between sequencers can never double-commit.
- **Sequencer failover.**  A client attaches to two sequencers (when the
  deployment has two or more) and fails over when its home sequencer is
  slow or down — the live analogue of the paper's claim that delayed
  finalization tolerates slow paths: progress rides the healthy route while
  the slow sequencer's control traffic catches up later.
- **Deferred reads.**  A server holds a read until its replica satisfies
  the session's dependency map, then answers from its finalized prefix,
  yielding session-causal consistency by construction (audited post hoc by
  :func:`repro.applications.causal_kv.audit_operations`).
"""

from __future__ import annotations

import asyncio
import fcntl
import itertools
import json
import os
import random
from array import array
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.applications.causal_kv import VALUE_HOPS, Operation, StoreConfig, WriteRecord
from repro.clocks.base import ClockAlgorithm, DuplicateControl
from repro.core.events import EventId
from repro.core.execution import Execution, ExecutionBuilder
from repro.net.chaos_proxy import ChaosInterposer
from repro.net.transport import (
    PeerClient,
    RequestTimeout,
    RpcServer,
    TransportError,
    TransportPolicy,
    pack_payload,
    unpack_payload,
)
from repro.obs import Counter, Histogram, counter, metric
from repro.topology.generators import sequencer_architecture
from repro.topology.graph import CommunicationGraph

#: bucket ladder for live (millisecond) latencies
MS_BUCKETS: Tuple[float, ...] = (
    0.5, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096,
)


class LiveRunError(Exception):
    """An operation could not complete within its deadline."""


# ----------------------------------------------------------------------
# address books
# ----------------------------------------------------------------------
class AddressBook:
    """Process id → (host, port), re-resolved on every connection attempt."""

    def __init__(self) -> None:
        self._addrs: Dict[int, Tuple[str, int]] = {}

    def set(self, proc: int, addr: Tuple[str, int]) -> None:
        self._addrs[proc] = (addr[0], int(addr[1]))

    def get(self, proc: int) -> Tuple[str, int]:
        addr = self._addrs.get(proc)
        if addr is None:
            raise TransportError(f"no address registered for p{proc}")
        return addr


class FileAddressBook(AddressBook):
    """Address book shared between OS processes through a JSON file.

    ``repro serve`` nodes register themselves by rewriting the file, one
    at a time under an exclusive lock on ``PATH.lock``, so nodes started
    together do not drop each other's entries; lookups re-read it, so peers
    started later (or restarted on a new port) are found without
    coordination beyond the shared path.
    """

    def __init__(self, path: str) -> None:
        super().__init__()
        self._path = path

    def _load(self) -> Dict[int, Tuple[str, int]]:
        try:
            with open(self._path) as fh:
                raw = json.load(fh)
        except (OSError, ValueError):
            return {}
        return {int(k): (v[0], int(v[1])) for k, v in raw.items()}

    def set(self, proc: int, addr: Tuple[str, int]) -> None:
        with open(f"{self._path}.lock", "a") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)  # released when *lock* closes
            entries = self._load()
            entries[proc] = (addr[0], int(addr[1]))
            tmp = f"{self._path}.tmp.{os.getpid()}"
            with open(tmp, "w") as fh:
                json.dump({str(k): list(v) for k, v in entries.items()}, fh)
            os.replace(tmp, self._path)

    def get(self, proc: int) -> Tuple[str, int]:
        addr = self._load().get(proc)
        if addr is None:
            raise TransportError(f"p{proc} not in address book {self._path}")
        return addr


# ----------------------------------------------------------------------
# cluster shape
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ClusterSpec:
    """Roles and routing for one deployment of a :class:`StoreConfig`.

    Process ids ``0..S-1`` are sequencers, then come servers, then clients.
    Every client and server attaches to *two* sequencers when there are two,
    so a node always has a failover route that stays on a graph edge.  The
    routing is computed here, once: every query below is a table read.
    """

    config: StoreConfig
    host: str = "127.0.0.1"
    graph: CommunicationGraph = field(init=False, compare=False)
    sequencers: Tuple[int, ...] = field(init=False, compare=False)
    servers: Tuple[int, ...] = field(init=False, compare=False)
    clients: Tuple[int, ...] = field(init=False, compare=False)
    #: ``neighbours[pid]``: the processes *pid* shares a graph edge with
    neighbours: Tuple[FrozenSet[int], ...] = field(
        init=False, compare=False, repr=False
    )
    #: ``_attached[pid]``: the sequencers adjacent to *pid*, home first
    _attached: Tuple[Tuple[int, ...], ...] = field(
        init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        c = self.config
        graph, seqs = sequencer_architecture(
            c.n_sequencers,
            c.n_servers,
            c.n_clients,
            attachments_per_node=min(2, c.n_sequencers),
        )
        n = graph.n_vertices
        first_client = c.n_sequencers + c.n_servers
        neighbours = tuple(frozenset(graph.neighbors(p)) for p in range(n))
        cover = frozenset(seqs)
        attached = tuple(
            (p,) if p in cover else tuple(sorted(neighbours[p] & cover))
            for p in range(n)
        )
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "sequencers", tuple(seqs))
        object.__setattr__(self, "servers", tuple(range(c.n_sequencers, first_client)))
        object.__setattr__(self, "clients", tuple(range(first_client, n)))
        object.__setattr__(self, "neighbours", neighbours)
        object.__setattr__(self, "_attached", attached)

    @property
    def n_processes(self) -> int:
        return self.graph.n_vertices

    def role_of(self, pid: int) -> str:
        if pid in self.sequencers:
            return "sequencer"
        return "server" if pid in self.servers else "client"

    def attached(self, pid: int) -> Tuple[int, ...]:
        """Sequencers adjacent to *pid* (home first)."""
        return self._attached[pid]

    def home(self, pid: int) -> int:
        return self._attached[pid][0]

    def primary_of(self, key: str) -> int:
        return self.servers[int(key[1:]) % self.config.n_servers]

    def next_hop(self, here: int, target: int) -> int:
        """One routing step toward *target* along graph edges."""
        if target in self.neighbours[here]:
            return target
        # a sequencer relays to the target's home, anyone else to its own
        return self._attached[target if here in self.sequencers else here][0]


# ----------------------------------------------------------------------
# the pluggable clock seam
# ----------------------------------------------------------------------
class LiveClockHost:
    """Hosts one :class:`ClockAlgorithm` over the live message flow.

    The host owns event-index allocation (per process, contiguous from 1),
    message ids and receive-side dedup, so the algorithm observes exactly
    the execution model it was written for even though the wire may
    duplicate or reorder frames.  Controls go to the clock as they arrive:
    it orders each control channel itself, and refuses a second copy.
    Single-threaded by construction: all entry points are synchronous and
    run on the event loop thread.

    The run is logged as three integer columns — process, peer, and message
    id (``~mid`` for a receive) — and the clock's own table holds the
    timestamps.  A hop hands the clock the integers it logs, through the
    clock's record step: no :class:`~repro.core.events.Event` or
    :class:`~repro.core.events.EventId` is built for it.  The clock's
    newly-finalized list, which nothing here reads, is emptied after every
    call.
    """

    def __init__(self, clock: ClockAlgorithm, spec: ClusterSpec) -> None:
        if clock.n_processes != spec.n_processes:
            raise ValueError(
                f"clock built for {clock.n_processes} processes, "
                f"cluster has {spec.n_processes}"
            )
        self.clock = clock
        #: the ``(src, dst)`` hops a control may ride
        self.control_channels = clock.control_channels
        self._spec = spec
        self._neighbours = spec.neighbours
        self._next_index = [0] * spec.n_processes
        self._next_mid = itertools.count()
        self._received: Set[int] = set()
        self._procs = array("q")
        self._peers = array("q")
        self._mids = array("q")

    def _log(self, proc: int, peer: int, mid: int) -> None:
        """Log one event the clock took (*mid* is ``~mid`` for a receive)."""
        self._next_index[proc] += 1
        self._procs.append(proc)
        self._peers.append(peer)
        self._mids.append(mid)

    # -- app-message hooks ---------------------------------------------
    def envelope(self, src: int, dst: int) -> Dict[str, Any]:
        """Send event for one ``src -> dst`` hop; the frame's clock payload."""
        if dst not in self._neighbours[src]:
            raise ValueError(f"no channel p{src} -> p{dst} in the cluster graph")
        clock = self.clock
        payload = clock.record_send(src, self._next_index[src] + 1, dst)
        # logged once the clock took the event: a refused one leaves no trace
        mid = next(self._next_mid)
        self._log(src, dst, mid)
        clock._newly_finalized.clear()
        return {"mid": mid, "ts": pack_payload(payload)}

    def deliver(
        self, dst: int, src: int, env: Dict[str, Any]
    ) -> List[Dict[str, Any]]:
        """Receive event for an incoming envelope; returns the control it
        makes *dst* owe *src*, if any, as a one-element list of
        ``{"pl": <packed (seq, a, b)>}``: the frame that carries it back to
        *src* names its channel.

        Duplicate copies (same message id) are absorbed here — the
        execution model has at most one receive event per message.  A
        payload the clock refuses raises, and leaves no receive logged and
        the message id unseen.
        """
        mid = int(env["mid"])
        if mid in self._received:
            counter("net.clock_dup_receives").inc()
            return []
        clock = self.clock
        ack = clock.record_receive(
            dst, self._next_index[dst] + 1, src, unpack_payload(env["ts"])
        )
        self._received.add(mid)
        self._log(dst, src, ~mid)
        clock._newly_finalized.clear()
        if ack is None:
            return []
        # an ack is three integers: packed as pack_payload packs them
        return [{"pl": {"__tup": list(ack)}}]

    # -- control-message hooks -----------------------------------------
    def control(self, src: int, dst: int, seq: int, packed: Any) -> None:
        """Hand the control *packed* that rode a ``src -> dst`` frame to the
        clock, which orders its channel by the control's own *seq* (the
        acknowledgement's first element); a second copy is counted
        (``net.ctl_dup``), not applied.  *packed* is an acknowledgement the
        node checked: ``{"__tup": [seq, a, b]}``, three integers."""
        clock = self.clock
        try:
            clock.on_control(src, dst, tuple(packed["__tup"]))
        except DuplicateControl:
            counter("net.ctl_dup").inc()
            return
        clock._newly_finalized.clear()

    # -- reporting ------------------------------------------------------
    @property
    def n_events(self) -> int:
        return len(self._procs)

    def _table(self) -> List[List[Any]]:
        """The clock's timestamps by position: ``[p][k - 1]`` is event
        ``(p, k)``'s, ``None`` while it is ``⊥`` — the table every
        :class:`ClockAlgorithm` writes each timestamp into once."""
        return self.clock._stamps

    def execution(self) -> Execution:
        """The run so far as an :class:`~repro.core.execution.Execution`:
        one message per envelope, received or not."""
        builder = ExecutionBuilder(self._spec.n_processes, graph=self._spec.graph)
        for proc, peer, mid in zip(self._procs, self._peers, self._mids):
            if mid >= 0:
                builder.send(proc, peer)  # message ids follow envelope ids
            else:
                builder.receive(proc, ~mid)
        return builder.freeze()

    def finalized_events(self) -> List[Tuple[EventId, Any]]:
        """``(eid, timestamp)`` for every event whose timestamp is final,
        process by process."""
        return [
            (EventId(proc, index), ts)
            for proc, row in enumerate(self._table())
            for index, ts in enumerate(row, 1)
            if ts is not None
        ]

    def stats(self) -> Dict[str, Any]:
        # one pass over the table: ``ts is not None`` is finality
        widths = [ts.n_elements for row in self._table() for ts in row if ts is not None]
        final = len(widths)
        max_elements = max(widths, default=0)
        total = len(self._procs)
        return {
            "clock": self.clock.name,
            "events": total,
            "finalized": final,
            "finalized_fraction": (final / total) if total else 1.0,
            "max_elements": max_elements,
        }


# ----------------------------------------------------------------------
# nodes
# ----------------------------------------------------------------------
class LiveNode:
    """Base node: an RPC server plus routed, clock-aware outbound calls."""

    role = "node"

    def __init__(
        self,
        pid: int,
        spec: ClusterSpec,
        book: AddressBook,
        policy: Optional[TransportPolicy] = None,
        interposer: Optional[ChaosInterposer] = None,
        clock_host: Optional[LiveClockHost] = None,
    ) -> None:
        self.pid = pid
        self.spec = spec
        self.book = book
        self.policy = policy or TransportPolicy()
        self.interposer = interposer
        self.clock_host = clock_host
        self._peers: Dict[int, PeerClient] = {}
        self._rpc: Optional[RpcServer] = None
        self._bg: Set[asyncio.Task] = set()
        #: destination -> controls waiting for the next frame going there
        self._ctl_out: Dict[int, List[Dict[str, Any]]] = {}
        self.crashed = False
        #: supervisor-injected per-response delay (slow-node degradation)
        self.response_delay = 0.0
        self._piggybacked = counter("net.ctl_piggybacked")
        #: (type, op, is a response) -> the hop counter, data or metadata, of
        #: that direction of that frame type (``op/w`` is ``("op", "w")``,
        #: ``commit`` is ``("commit", "")``)
        self._hops: Dict[Tuple[str, str, bool], Counter] = {
            (*frame.partition("/")[::2], response): counter(
                "net.data_hops" if (way == "response") == response else "net.meta_hops",
                frame=frame,
            )
            for frame, way in VALUE_HOPS.items()
            for response in (False, True)
        }

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        self.crashed = False
        self._rpc = RpcServer(self.pid, self._dispatch, interposer=self.interposer)
        addr = await self._rpc.start(self.spec.host, 0)
        self.book.set(self.pid, addr)
        return addr

    async def stop(self) -> None:
        await self.flush_controls()
        for peer in self._peers.values():
            await peer.close()
        self._peers.clear()
        for t in list(self._bg):
            t.cancel()
        if self._bg:
            await asyncio.gather(*self._bg, return_exceptions=True)
        self._bg.clear()
        if self._rpc is not None:
            await self._rpc.stop()
            self._rpc = None

    async def kill(self) -> None:
        """Abrupt crash: stop serving, drop every connection and every
        control still waiting for a frame."""
        self.crashed = True
        counter("net.crashes").inc()
        self._ctl_out.clear()
        await self.stop()

    def checkpoint_state(self) -> Dict[str, Any]:
        """Durable state a restarted instance restores (role-specific)."""
        return {}

    def restore_state(self, state: Dict[str, Any]) -> None:
        pass

    # -- outbound -------------------------------------------------------
    def peer(self, dst: int) -> PeerClient:
        client = self._peers.get(dst)
        if client is None:
            client = PeerClient(
                self.pid,
                dst,
                resolve=lambda d=dst: self.book.get(d),
                policy=self.policy,
                interposer=self.interposer,
            )
            self._peers[dst] = client
        return client

    async def call(
        self,
        target: int,
        message: Dict[str, Any],
        rid: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Route *message* one hop toward *target* (relaying if needed)."""
        nxt = self.spec.next_hop(self.pid, target)
        self._count_hop(message, False)
        if nxt != target:
            message = {"type": "fwd", "target": target, "inner": message}
        frame = dict(message)
        riding: List[Dict[str, Any]] = []
        if self.clock_host is not None:
            frame["env"] = self.clock_host.envelope(self.pid, nxt)
            riding = self._ctl_out.pop(nxt, [])
            if riding:
                frame["ctl"] = riding
        try:
            response = await self.peer(nxt).request(frame, rid=rid)
        except (RequestTimeout, TransportError):
            if riding:
                # back to the head of the queue; copies the receiver already
                # applied are dropped there by sequence number
                self._ctl_out[nxt] = riding + self._ctl_out.get(nxt, [])
            raise
        if riding:
            self._piggybacked.inc(len(riding))
        produced = self._absorb(nxt, response)
        if produced:
            # controls for the responder wait for the next request going there
            self._queue_controls(nxt, produced)
        return response

    def _count_hop(self, message: Dict[str, Any], response: bool) -> None:
        """One hop of *message*'s frame type, as data or metadata."""
        hop = self._hops.get((message.get("type"), message.get("op", ""), response))
        if hop is not None:
            hop.inc()

    # -- control messages ride application frames -------------------------
    def _absorb(self, peer: int, frame: Dict[str, Any]) -> List[Dict[str, Any]]:
        """Strip the clock fields off a frame from *peer* and act on them:
        the frame's own receive event first, then the controls it carried —
        the order the simulator delivers a piggybacked message in.  Returns
        the controls the receive event produced (all owed to *peer*).  Every
        carried control is on channel ``peer -> here``: the hop names it.
        """
        env = frame.pop("env", None)
        carried = frame.pop("ctl", None)
        if carried is not None:
            self._check_controls(peer, carried)
        host = self.clock_host
        if host is None:
            return []
        produced = host.deliver(self.pid, peer, env) if env is not None else []
        if carried:
            pid = self.pid
            for ctl in carried:
                packed = ctl["pl"]
                host.control(peer, pid, packed["__tup"][0], packed)
        return produced

    def _queue_controls(self, dst: int, controls: List[Dict[str, Any]]) -> None:
        """Hold *controls*, owed to *dst*, until a frame goes there anyway."""
        self._ctl_out.setdefault(dst, []).extend(controls)

    def _check_controls(self, peer: int, controls: Any) -> None:
        """Refuse a frame from *peer* whose controls the clock cannot take.

        The frame's hop is the controls' channel, so ``peer -> here`` must
        be one of the clock's control channels, and each control must be an
        acknowledgement ``{"pl": {"__tup": [seq, a, b]}}`` of three integers
        with ``seq >= 0`` and ``a, b >= 1``.  One bad control refuses the
        whole frame, before the clock sees its receive event or any control.
        """
        if not self._controls_acceptable(peer, controls):
            counter("net.ctl_rejected").inc()
            raise TransportError(
                f"p{self.pid} refused controls on a frame from p{peer}: the "
                f"hop must be a control channel, and each control an "
                f'acknowledgement {{"pl": {{"__tup": [seq, a, b]}}}} of '
                f"integers, seq >= 0, a, b >= 1"
            )

    def _controls_acceptable(self, peer: int, controls: Any) -> bool:
        if type(controls) is not list:
            return False
        host = self.clock_host
        if host is not None and (peer, self.pid) not in host.control_channels:
            return False
        for ctl in controls:
            packed = ctl.get("pl") if type(ctl) is dict else None
            if type(packed) is not dict or len(packed) != 1:
                return False
            ack = packed.get("__tup")
            if type(ack) is not list or len(ack) != 3:
                return False
            seq, a, b = ack
            # ``type(x) is int``: a bool is not an index
            if type(seq) is not int or type(a) is not int or type(b) is not int:
                return False
            if seq < 0 or a < 1 or b < 1:
                return False
        return True

    def _spawn(self, coro: Any) -> None:
        task = asyncio.ensure_future(coro)
        self._bg.add(task)
        task.add_done_callback(self._bg.discard)

    async def drain(self, timeout: float = 10.0) -> None:
        """Wait for background work (replication) to finish."""
        pending = [t for t in self._bg if not t.done()]
        if pending:
            await asyncio.wait(pending, timeout=timeout)

    async def flush_controls(self) -> None:
        """Send every queued control now, one batched request per destination.

        The only stand-alone control frames there are: a node calls this
        when it quiesces, because an edge that went idle has no frame left
        for its last controls to ride.  A batch that cannot be delivered is
        given up (``net.ctl_lost``); its events finalize at termination.
        """
        for dst in sorted(self._ctl_out):
            batch = self._ctl_out.pop(dst)
            try:
                await self.peer(dst).request({"type": "ctl", "ctl": batch})
            except (RequestTimeout, TransportError):
                counter("net.ctl_lost").inc(len(batch))
            else:
                counter("net.ctl_flushed").inc(len(batch))

    # -- inbound --------------------------------------------------------
    async def _dispatch(self, peer: int, message: Dict[str, Any]) -> Dict[str, Any]:
        if self.crashed:
            raise TransportError(f"p{self.pid} is down")
        if self.response_delay > 0:
            await asyncio.sleep(self.response_delay)
        message = dict(message)
        owed = self._absorb(peer, message)
        kind = message.get("type")
        if kind == "ctl":  # a quiesce flush: controls only, not a clock hop
            return {}
        try:
            if kind == "fwd":
                body = await self.call(int(message["target"]), message["inner"])
            else:
                body = await self.handle_app(peer, message)
        except Exception:
            # an error response has no body for them to ride
            if owed:
                self._queue_controls(peer, owed)
            raise
        self._count_hop(message["inner"] if kind == "fwd" else message, True)
        if self.clock_host is not None:
            # the response is itself an application message hop, and takes
            # the controls its request gave rise to back to the requester
            body = dict(body)
            body["env"] = self.clock_host.envelope(self.pid, peer)
            if owed:
                body["ctl"] = owed
                self._piggybacked.inc(len(owed))
        return body

    async def handle_app(self, peer: int, message: Dict[str, Any]) -> Dict[str, Any]:
        raise TransportError(
            f"{self.role} p{self.pid} cannot handle {message.get('type')!r}"
        )


class SequencerNode(LiveNode):
    """Stateless router: forwards ops to primaries/replicas, relays frames."""

    role = "sequencer"

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        # read-target choice is deterministic per (seed, sequencer)
        self._rng = random.Random(
            (self.spec.config.seed << 8) ^ (0x5EC << 4) ^ self.pid
        )

    async def handle_app(self, peer: int, message: Dict[str, Any]) -> Dict[str, Any]:
        if message.get("type") != "op":
            return await super().handle_app(peer, message)
        key = message["key"]
        inner = {
            "key": key,
            "client": message["client"],
            "deps": message["deps"],
            "wsi": message["wsi"],
            "orid": message["orid"],
        }
        if message["op"] == "w":
            inner["type"] = "commit"
            return await self.call(self.spec.primary_of(key), inner)
        inner["type"] = "read"
        server = self._rng.choice(self.spec.servers)
        return await self.call(server, inner)


class ServerNode(LiveNode):
    """Replica holder; primary for its share of the keyspace.

    Durable state (the checkpoint a supervisor restores after a crash):
    the replica map, the per-key commit log and version counters, and the
    commit dedup table — everything needed so a restarted primary neither
    loses acknowledged writes nor re-commits a retransmitted one.
    """

    role = "server"

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        # key -> (version, deps, writer, writer_session_index)
        self.replica: Dict[str, Tuple[int, Dict[str, int], int, int]] = {}
        self.commit_log: List[Dict[str, Any]] = []
        self.version_counter: Dict[str, int] = {}
        self._commit_by_rid: Dict[str, Dict[str, Any]] = {}
        self._applied = asyncio.Condition()
        #: reads waiting on ``_applied``: an apply notifies only while one is
        self._reads_waiting = 0
        self.read_guard_timeout = 15.0
        self._commits = counter("net.commits")
        self._reads_served = counter("net.reads_served")

    # -- durability -----------------------------------------------------
    def checkpoint_state(self) -> Dict[str, Any]:
        import copy

        return copy.deepcopy(
            {
                "replica": self.replica,
                "commit_log": self.commit_log,
                "version_counter": self.version_counter,
                "commit_by_rid": self._commit_by_rid,
            }
        )

    def restore_state(self, state: Dict[str, Any]) -> None:
        import copy

        state = copy.deepcopy(state)
        self.replica = state["replica"]
        self.commit_log = state["commit_log"]
        self.version_counter = state["version_counter"]
        self._commit_by_rid = state["commit_by_rid"]

    # -- handlers -------------------------------------------------------
    async def handle_app(self, peer: int, message: Dict[str, Any]) -> Dict[str, Any]:
        kind = message.get("type")
        if kind == "commit":
            return await self._handle_commit(message)
        if kind == "repl":
            return await self._handle_repl(message)
        if kind == "read":
            return await self._handle_read(message)
        return await super().handle_app(peer, message)

    async def _handle_commit(self, message: Dict[str, Any]) -> Dict[str, Any]:
        orid = message["orid"]
        cached = self._commit_by_rid.get(orid)
        if cached is not None:
            counter("net.commit_dedup").inc()
            return dict(cached)
        key = message["key"]
        deps = {str(k): int(v) for k, v in dict(message["deps"]).items()}
        version = self.version_counter.get(key, 0) + 1
        self.version_counter[key] = version
        record = {
            "key": key,
            "version": version,
            "writer": int(message["client"]),
            "wsi": int(message["wsi"]),
            "deps": deps,
            "orid": orid,
        }
        self.commit_log.append(record)
        self.replica[key] = (version, deps, record["writer"], record["wsi"])
        self._commits.inc()
        response = {"version": version}
        self._commit_by_rid[orid] = dict(response)
        if self._reads_waiting:
            async with self._applied:
                self._applied.notify_all()
        repl = {
            "type": "repl",
            "key": key,
            "version": version,
            "deps": deps,
            "writer": record["writer"],
            "wsi": record["wsi"],
            "orid": f"{orid}!repl",
        }
        for other in self.spec.servers:
            if other != self.pid:
                self._spawn(self._replicate(other, dict(repl)))
        return response

    async def _replicate(self, target: int, message: Dict[str, Any]) -> None:
        message["orid"] = f"{message['orid']}@p{target}"
        for _ in range(3):  # each call() already retries per its policy
            try:
                await self.call(target, message)
                return
            except (RequestTimeout, TransportError):
                await asyncio.sleep(self.policy.request_timeout)
        counter("net.repl_failures").inc()

    async def _handle_repl(self, message: Dict[str, Any]) -> Dict[str, Any]:
        key = message["key"]
        version = int(message["version"])
        current = self.replica.get(key, (0, {}, -1, -1))
        if version > current[0]:
            self.replica[key] = (
                version,
                {str(k): int(v) for k, v in dict(message["deps"]).items()},
                int(message["writer"]),
                int(message["wsi"]),
            )
            if self._reads_waiting:
                async with self._applied:
                    self._applied.notify_all()
        return {}

    def _satisfied(self, deps: Dict[str, int]) -> bool:
        return all(
            self.replica.get(k, (0, {}, -1, -1))[0] >= v for k, v in deps.items()
        )

    async def _handle_read(self, message: Dict[str, Any]) -> Dict[str, Any]:
        deps = {str(k): int(v) for k, v in dict(message["deps"]).items()}
        if not self._satisfied(deps):  # usually met on arrival: no wait
            self._reads_waiting += 1
            try:
                async with self._applied:
                    await asyncio.wait_for(
                        self._applied.wait_for(lambda: self._satisfied(deps)),
                        self.read_guard_timeout,
                    )
            except asyncio.TimeoutError:
                counter("net.read_guard_timeouts").inc()
                raise TransportError(
                    f"read guard timed out at p{self.pid}: deps {deps} unmet"
                ) from None
            finally:
                self._reads_waiting -= 1
        key = message["key"]
        version, wdeps, writer, wsi = self.replica.get(key, (0, {}, -1, -1))
        self._reads_served.inc()
        return {
            "version": version,
            "wdeps": wdeps,
            "writer": writer,
            "wsi": wsi,
        }


class ClientNode(LiveNode):
    """A closed-loop session: issues its next operation when the last
    completes, maintaining the Lazy-Replication-style dependency map."""

    role = "client"

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        cfg = self.spec.config
        self.session: Dict[str, int] = {}
        self.operations: List[Operation] = []
        self.latencies_ms: List[float] = []
        self._rng = random.Random((cfg.seed << 16) ^ self.pid)
        self.op_deadline = 30.0
        self.failovers = 0
        self._ops_completed = counter("net.ops_completed")
        self._latency: Dict[str, Histogram] = {
            kind: metric("net.op_latency_ms", buckets=MS_BUCKETS, kind=kind)
            for kind in ("w", "r")
        }

    async def run_session(self) -> None:
        cfg = self.spec.config
        for _ in range(cfg.ops_per_client):
            key = f"k{self._rng.randrange(cfg.n_keys)}"
            write = self._rng.random() < cfg.write_fraction
            started = asyncio.get_running_loop().time()
            if write:
                version = await self._do_write(key)
                kind = "w"
            else:
                version = await self._do_read(key)
                kind = "r"
            elapsed_ms = (asyncio.get_running_loop().time() - started) * 1e3
            self.latencies_ms.append(elapsed_ms)
            self._latency[kind].observe(elapsed_ms)
            self.operations.append(
                Operation(
                    client=self.pid,
                    session_index=len(self.operations),
                    kind=kind,
                    key=key,
                    version=version,
                    write_index=None,  # resolved post hoc from commit logs
                )
            )
            self._ops_completed.inc()

    async def _issue(self, op: str, key: str) -> Dict[str, Any]:
        """Send one operation, failing over between attached sequencers."""
        orid = f"c{self.pid}-{len(self.operations)}"
        message = {
            "type": "op",
            "op": op,
            "key": key,
            "client": self.pid,
            "deps": dict(self.session),
            "wsi": len(self.operations),
            "orid": orid,
        }
        targets = self.spec.attached(self.pid)
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.op_deadline
        round_idx = 0
        while True:
            for i, target in enumerate(targets):
                if loop.time() >= deadline:
                    raise LiveRunError(
                        f"p{self.pid} {op}({key}) missed its "
                        f"{self.op_deadline:.0f}s deadline"
                    )
                if i or round_idx:
                    self.failovers += 1
                    counter("net.failovers").inc()
                try:
                    return await self.call(
                        target, message, rid=f"{orid}@p{target}:{round_idx}"
                    )
                except (RequestTimeout, TransportError):
                    continue
            round_idx += 1

    async def _do_write(self, key: str) -> int:
        response = await self._issue("w", key)
        version = int(response["version"])
        self.session[key] = max(self.session.get(key, 0), version)
        return version

    async def _do_read(self, key: str) -> int:
        response = await self._issue("r", key)
        version = int(response["version"])
        self.session[key] = max(self.session.get(key, 0), version)
        if version > 0:
            for dkey, dver in dict(response["wdeps"]).items():
                dkey = str(dkey)
                self.session[dkey] = max(self.session.get(dkey, 0), int(dver))
        return version


def make_node(
    pid: int,
    spec: ClusterSpec,
    book: AddressBook,
    policy: Optional[TransportPolicy] = None,
    interposer: Optional[ChaosInterposer] = None,
    clock_host: Optional[LiveClockHost] = None,
) -> LiveNode:
    """Construct the right node class for *pid*'s role in the cluster."""
    cls = {
        "sequencer": SequencerNode,
        "server": ServerNode,
        "client": ClientNode,
    }[spec.role_of(pid)]
    return cls(pid, spec, book, policy, interposer, clock_host)


# ----------------------------------------------------------------------
# post-hoc assembly for the audit
# ----------------------------------------------------------------------
def collect_writes(
    servers: List[ServerNode],
) -> Tuple[List[WriteRecord], Dict[Tuple[str, int], int]]:
    """Global write list from the primaries' commit logs.

    Records are ordered deterministically by ``(key, version)``; the
    returned index maps ``(key, version)`` to the record's position so
    client operations can be linked to the writes they observed.
    """
    raw = [
        record
        for server in servers
        for record in server.commit_log
        if server.spec.primary_of(record["key"]) == server.pid
    ]
    raw.sort(key=lambda r: (r["key"], r["version"]))
    writes: List[WriteRecord] = []
    index: Dict[Tuple[str, int], int] = {}
    for i, r in enumerate(raw):
        writes.append(
            WriteRecord(
                key=r["key"],
                version=r["version"],
                writer=r["writer"],
                writer_session_index=r["wsi"],
                deps=dict(r["deps"]),
            )
        )
        index[(r["key"], r["version"])] = i
    return writes, index


def link_operations(
    clients: List[ClientNode], index: Dict[Tuple[str, int], int]
) -> Tuple[List[Operation], int]:
    """Attach ``write_index`` links; count acked writes missing from logs.

    The second return value is the number of *lost acknowledged writes* —
    operations a client completed whose committed version never reached a
    primary's durable log.  A correct deployment reports zero, crashes and
    all.
    """
    operations: List[Operation] = []
    lost = 0
    for client in clients:
        for op in client.operations:
            widx: Optional[int] = None
            if op.version > 0:
                widx = index.get((op.key, op.version))
                if widx is None:
                    lost += 1
            operations.append(
                Operation(
                    client=op.client,
                    session_index=op.session_index,
                    kind=op.kind,
                    key=op.key,
                    version=op.version,
                    write_index=widx,
                )
            )
    return operations, lost
