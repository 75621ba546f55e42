"""Testbed emulation harness.

The paper's Figs 11 and 12 come from a physical testbed: four
underprovisioned machines on 100 Mbps Ethernet, a C#/SharpPcap TAQ
middlebox, a Ruby web server, and client scripts — with the bottleneck
bandwidth, latency and queue size artificially constrained to match the
trace parameters.  That hardware is unavailable here, so this package
provides the closest synthetic equivalent that exercises the *same
middlebox code path* (see DESIGN.md, substitutions):

- :class:`~repro.testbed.emulation.JitteredLink` — a link whose
  deliveries carry software-router processing delay and OS-scheduling
  jitter, the noise a userspace pcap middlebox adds on real hardware;
- :class:`~repro.testbed.emulation.TestbedDumbbell` — the emulated
  topology: 100 Mbps LAN ingress, the constrained middlebox link
  (running an unmodified :class:`~repro.core.taq.TAQQueue` or baseline
  queue), jittered ACK path.
"""

from repro.testbed.emulation import JitteredLink, TestbedDumbbell

__all__ = ["JitteredLink", "TestbedDumbbell"]
