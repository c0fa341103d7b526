"""``repro.net`` — the runtime of the Figure-4 causal KV store.

The store's roles run on asyncio streams and survive loss, duplication,
partitions, crashes, and slow sequencers — on real TCP sockets, or on
virtual time and in-memory connections, where
:func:`repro.applications.causal_kv.run_store` runs them deterministically:

- :mod:`repro.net.transport` — length-prefixed JSON framing, idempotent
  request ids with receiver-side dedup, bounded retransmission, reconnect
  with exponential backoff + jitter;
- :mod:`repro.net.node` — client/sequencer/server roles behind a pluggable
  clock seam (:class:`~repro.net.node.LiveClockHost`) hosting any
  registered scheme over the live message flow;
- :mod:`repro.net.chaos_proxy` — the simulator's
  :class:`~repro.faults.models.FaultModel` hierarchy applied to live
  connections, deterministically seeded;
- :mod:`repro.net.supervisor` — crash-recovery from durable-state
  checkpoints, the permanence audit of timestamps final at a crash, mesh
  rejoin on new ports, slow-node degradation;
- :mod:`repro.net.loadgen` — closed-loop load generation, latency
  CDF/throughput reports, and the post-hoc causal audit;
- :mod:`repro.net.virtual` — :class:`~repro.net.virtual.VirtualLoop`, an
  event loop whose clock jumps to the next timer and whose
  ``create_server`` / ``create_connection`` are in memory.

CLI: ``repro kv-live`` (full loopback cluster in one command) and
``repro serve`` (one node per OS process, clockless, with a shared JSON
address book).
"""

from repro.net.chaos_proxy import ChaosInterposer
from repro.net.loadgen import (
    LIVE_CLOCKS,
    LiveReport,
    build_live_clock,
    run_live_store,
    run_live_store_sync,
    simulator_prediction,
)
from repro.net.node import (
    AddressBook,
    ClientNode,
    ClusterSpec,
    FileAddressBook,
    LiveClockHost,
    LiveNode,
    SequencerNode,
    ServerNode,
    make_node,
)
from repro.net.supervisor import CrashPlan, CrashSnapshot, Supervisor
from repro.net.transport import (
    ConnectionClosed,
    FrameStream,
    PeerClient,
    RequestTimeout,
    RpcServer,
    TransportError,
    TransportPolicy,
    pack_payload,
    unpack_payload,
)
from repro.net.virtual import VirtualLoop, run_virtual

__all__ = [
    "AddressBook",
    "ChaosInterposer",
    "ClientNode",
    "ClusterSpec",
    "ConnectionClosed",
    "CrashPlan",
    "CrashSnapshot",
    "FileAddressBook",
    "FrameStream",
    "LIVE_CLOCKS",
    "LiveClockHost",
    "LiveNode",
    "LiveReport",
    "PeerClient",
    "RequestTimeout",
    "RpcServer",
    "SequencerNode",
    "ServerNode",
    "Supervisor",
    "TransportError",
    "TransportPolicy",
    "VirtualLoop",
    "build_live_clock",
    "make_node",
    "pack_payload",
    "run_live_store",
    "run_live_store_sync",
    "run_virtual",
    "simulator_prediction",
    "unpack_payload",
]
