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

from typing import TYPE_CHECKING

_EXPORTS = {
    "chaos_proxy": ("ChaosInterposer",),
    "loadgen": ("LIVE_CLOCKS", "LiveReport", "run_live_store", "run_live_store_sync"),
    "node": (
        "AddressBook", "ClientNode", "ClusterSpec", "FileAddressBook", "LiveClockHost",
        "LiveNode", "ServerNode", "make_node",
    ),
    "supervisor": ("CrashPlan", "CrashSnapshot", "Supervisor"),
    "transport": (
        "ConnectionClosed", "PeerClient", "RequestTimeout", "RpcServer",
        "TransportError", "TransportPolicy", "pack_payload", "unpack_payload",
    ),
    "virtual": ("run_virtual",),
}

if TYPE_CHECKING:
    from repro.net.chaos_proxy import ChaosInterposer as ChaosInterposer
    from repro.net.loadgen import (
        LIVE_CLOCKS as LIVE_CLOCKS, LiveReport as LiveReport,
        run_live_store as run_live_store, run_live_store_sync as run_live_store_sync,
    )
    from repro.net.node import (
        AddressBook as AddressBook, ClientNode as ClientNode,
        ClusterSpec as ClusterSpec, FileAddressBook as FileAddressBook,
        LiveClockHost as LiveClockHost, LiveNode as LiveNode,
        ServerNode as ServerNode, make_node as make_node,
    )
    from repro.net.supervisor import (
        CrashPlan as CrashPlan, CrashSnapshot as CrashSnapshot,
        Supervisor as Supervisor,
    )
    from repro.net.transport import (
        ConnectionClosed as ConnectionClosed, PeerClient as PeerClient,
        RequestTimeout as RequestTimeout,
        RpcServer as RpcServer, TransportError as TransportError,
        TransportPolicy as TransportPolicy, pack_payload as pack_payload,
        unpack_payload as unpack_payload,
    )
    from repro.net.virtual import run_virtual as run_virtual
else:
    from repro._exports import lazy_exports

    __all__ = [name for names in _EXPORTS.values() for name in names]
    __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
