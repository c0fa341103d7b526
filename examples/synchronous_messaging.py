#!/usr/bin/env python3
"""Scenario: synchronous messaging and component timestamps (Figure 3).

The paper's §5 contrasts its asynchronous inline timestamps with
Garg–Skawratananond's timestamps for *synchronous* messages, where a sender
blocks until the receiver acknowledges (Figure 3) and a message is one
joint event of both processes — here the four asynchronous events Figure 3
draws: the send, its receive, the acknowledgement and its receive.
Messages within a star or triangle component of an edge decomposition are
then totally ordered, and component counters can replace process counters.

This example runs our component-timestamp variant on a synchronous
client/server system and shows:

1. the synchrony difference itself (a receiver's earlier events precede
   the sender's later ones — impossible asynchronously);
2. exact causality capture with ``2d + 4``-element timestamps;
3. the size comparison against vector clocks and the asynchronous inline
   scheme on the same topology.

Run:  python examples/synchronous_messaging.py
"""

import random

from repro.core import ExecutionBuilder, HappenedBeforeOracle
from repro.sync import (
    ComponentSyncClock,
    best_decomposition,
    handshake,
    internal_event,
    joint_happened_before,
    random_sync_execution,
    star_decomposition,
    star_triangle_decomposition,
    timestamp_mismatches,
)
from repro.topology import generators
from repro.topology.vertex_cover import best_cover


def main() -> None:
    # 1. the synchrony effect
    g = generators.star(3)
    b = ExecutionBuilder(3, graph=g)
    before = internal_event(b, 1)  # at the receiver, before the rendezvous
    handshake(b, 0, 1)  # send, receive, acknowledgement, its receive
    after = internal_event(b, 0)  # at the sender, after the rendezvous
    oracle = HappenedBeforeOracle(b.freeze())
    print("synchrony: receiver's earlier event precedes sender's later one:",
          joint_happened_before(oracle, before, after))

    # 2. exact causality with component timestamps
    n = 12
    g = generators.star(n)
    dec = best_decomposition(g)
    ex, joints = random_sync_execution(g, random.Random(7), steps=5 * n)
    clock = ComponentSyncClock(dec)
    clock.replay(ex, joints)
    finalized_early = sum(map(clock.is_final, range(len(joints))))
    clock.finalize_at_termination()
    mismatches = len(timestamp_mismatches(clock, ex, joints))
    print(f"\nsynchronous star, n={n}: {len(joints)} events, "
          f"d={dec.d} component(s)")
    print(f"causality mismatches vs oracle: {mismatches}")
    print(f"events finalized before termination: "
          f"{finalized_early}/{len(joints)}")

    # 3. the size comparison
    cover = best_cover(g)
    print(f"\ntimestamp sizes on the star (n={n}):")
    print(f"  vector clock:              {n} elements")
    print(f"  async inline (paper):      {2 * len(cover) + 2} elements")
    print(f"  sync component timestamps: {clock.max_elements()} elements "
          f"(bound 2d+4 = {2 * dec.d + 4})")

    k3 = generators.clique(3)
    print("\ntriangles help on dense graphs: K3 needs "
          f"{star_decomposition(k3).d} star components but only "
          f"{star_triangle_decomposition(k3).d} triangle component.")


if __name__ == "__main__":
    main()
