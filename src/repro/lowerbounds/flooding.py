"""Executable adversaries for the flooding lower bounds (Lemmas 2.3, 2.4).

Both lemmas use the same adversary skeleton on a general communication
graph ``G``:

1. *Initiation.*  Every initiator sends a token to each of its neighbours
   (all processes for Lemma 2.3; only the set ``X`` of non-cut vertices for
   Lemma 2.4).  These first events are pairwise concurrent and — the scheme
   being online — already carry their permanent timestamps.
2. *Victim selection.*  The adversary reads the timestamps of the first
   events, forms the per-coordinate dominating set ``S`` and picks an
   initiator ``p_k ∉ S`` (possible while the vector length is below the
   number of initiators).
3. *Slow channels.*  Every channel incident to ``p_k`` is made slower than
   ``2δD`` (here: its deliveries are simply withheld), while the rest of the
   network floods: each process forwards each first-seen token to all its
   other neighbours.  For Lemma 2.3 the graph minus ``p_k`` is connected
   because vertex connectivity ≥ 2; for Lemma 2.4 because ``p_k ∈ X`` is not
   a cut vertex.
4. *The witness pair.*  Once some process ``p_i ≠ p_k`` has received the
   tokens of all initiators except ``p_k``, its completing receive event
   ``e`` dominates the coordinatewise max ``E`` of all first-event
   timestamps, while ``timestamp(e_1^k) ≤ E`` — so the scheme must order the
   concurrent pair ``(e_1^k, e)`` (or fail validity some other way).

The construction is purely causal, so "slower than 2δD" is realized by
delivery *order* rather than literal delays: withheld messages are simply
never delivered inside the examined window, which only makes the adversary's
job harder (fewer causal edges).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Set, Tuple

from repro.clocks.host import ClockHost
from repro.core.events import EventId
from repro.core.execution import ExecutionBuilder
from repro.lowerbounds.star_adversary import (
    AdversaryResult,
    SchemeFactory,
    _pick_outside_s,
    _receive,
    _result,
    _send,
    _vectors,
)
from repro.topology.graph import CommunicationGraph
from repro.topology.properties import lemma_2_4_set_x, vertex_connectivity


def flooding_adversary(
    scheme_factory: SchemeFactory,
    graph: CommunicationGraph,
    restrict_to_x: bool = False,
) -> AdversaryResult:
    """Run the Lemma 2.3 (or 2.4, with *restrict_to_x*) adversary.

    For Lemma 2.3 the graph should have vertex connectivity ≥ 2 (validated);
    for Lemma 2.4 connectivity 1 and initiators restricted to the non-cut
    set ``X``.  Effective against schemes with vector length below the
    number of initiators (``n`` resp. ``|X|``).
    """
    n = graph.n_vertices
    if restrict_to_x:
        initiators = sorted(lemma_2_4_set_x(graph))
        lemma = "2.4"
        if vertex_connectivity(graph) != 1:
            raise ValueError("Lemma 2.4 applies to graphs of connectivity 1")
    else:
        initiators = list(range(n))
        lemma = "2.3"
        if vertex_connectivity(graph) < 2:
            raise ValueError("Lemma 2.3 applies to graphs of connectivity >= 2")
    if len(initiators) < 2:
        raise ValueError("need at least two initiators")

    builder = ExecutionBuilder(n, graph=graph)
    host = ClockHost(scheme_factory(n))

    # ------------------------------------------------------------------
    # stage 1: every initiator sends its token to each neighbour.
    # token identity is tracked adversary-side (message contents are not
    # part of the Execution model).
    # ------------------------------------------------------------------
    first_events: Dict[int, EventId] = {}
    token_of_msg: Dict[int, int] = {}
    pending: deque = deque()  # (msg_id, token, dst, came_from)
    for p in initiators:
        for q in sorted(graph.neighbors(p)):
            eid, msg_id = _send(host, builder, p, q)
            if p not in first_events:
                first_events[p] = eid
            token_of_msg[msg_id] = p
            pending.append((msg_id, p, q, p))

    # ------------------------------------------------------------------
    # victim selection from the (permanent) first-event timestamps
    # ------------------------------------------------------------------
    first_eids = [first_events[p] for p in initiators]
    victim_eid = _pick_outside_s(_vectors(host.clock, first_eids), first_eids)
    victim = victim_eid.proc if victim_eid is not None else None

    # ------------------------------------------------------------------
    # stage 2: flood in G - victim; channels of the victim are withheld
    # ------------------------------------------------------------------
    have_token: Dict[int, Set[int]] = {p: set() for p in range(n)}
    for p in initiators:
        have_token[p].add(p)
    needed = set(initiators) - ({victim} if victim is not None else set())
    completing_event: Dict[int, EventId] = {}
    withheld: List[Tuple[int, int, int, int]] = []

    while pending:
        msg_id, token, dst, came_from = pending.popleft()
        if victim is not None and (dst == victim or came_from == victim):
            withheld.append((msg_id, token, dst, came_from))
            continue
        recv_eid = _receive(host, builder, dst, msg_id)
        first_time = token not in have_token[dst]
        have_token[dst].add(token)
        if dst not in completing_event and needed <= have_token[dst]:
            completing_event[dst] = recv_eid
        if first_time:
            for q in sorted(graph.neighbors(dst)):
                if q == came_from:
                    continue
                _eid, fwd_id = _send(host, builder, dst, q)
                token_of_msg[fwd_id] = token
                pending.append((fwd_id, token, q, dst))

    predicted_pair: Optional[Tuple[EventId, EventId]] = None
    if victim is not None and completing_event:
        # the proof's witness: any completing event at a process != victim
        # (for Lemma 2.4 the proof takes p_i in X)
        candidates = [
            p
            for p in sorted(completing_event)
            if p != victim and (not restrict_to_x or p in initiators)
        ]
        if candidates:
            predicted_pair = (
                first_events[victim],
                completing_event[candidates[0]],
            )

    return _result(lemma, host, builder, predicted_pair)
