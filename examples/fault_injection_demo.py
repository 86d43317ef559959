#!/usr/bin/env python
"""Seeded fault injection against an HV-coded store: the rebuild-window
nightmare, survived.

A deterministic fault plan crashes one disk, strikes a latent sector
error (URE) on a survivor, silently flips a bit, and opens a transient
I/O window — all while reads stream.  The store self-heals through its
parity chains, the checksum scrub catches the silent flip, and the
orchestrator rebuilds the crashed disk onto a hot spare, byte-identical.

Run:  python examples/fault_injection_demo.py
"""

import json

from repro import HVCode
from repro.faults import FaultPlan, compare_codes, run_scenario


def main() -> None:
    code = HVCode(p=7)
    plan = FaultPlan.random(
        seed=42,
        rows=code.rows,
        cols=code.cols,
        stripes=4,
        element_size=32,
    )
    print(f"fault plan for seed 42 ({len(plan.events)} events):")
    for event in plan.events:
        print(f"  op {event.at_op:>3}: {event.kind.value:<14} "
              f"disk {event.disk}"
              + (f", stripe {event.stripe} row {event.row}"
                 if event.row is not None else ""))

    result = run_scenario(code, seed=42)
    print(f"\nscenario against {result.code_name}: "
          f"{'survived' if result.survived else 'LOST DATA'}")
    print(f"  scrub: {len(result.scrub['flips_detected'])} flip(s) and "
          f"{len(result.scrub['latent_detected'])} latent error(s) detected, "
          f"{result.scrub['chain_repairs']} chain repair(s)")
    for rb in result.rebuilds:
        print(f"  rebuild of disk {rb['disk']}: "
              f"{rb['elements_repaired']} elements restored via "
              f"{rb['chain_reads']} chain reads, completed={rb['completed']}")
    print(f"  degraded read ok: {result.degraded_read_ok}, "
          f"final read ok: {result.final_read_ok}, "
          f"parity clean: {result.parity_clean}")

    again = run_scenario(HVCode(p=7), seed=42)
    print("same seed reproduces the identical report:",
          json.dumps(result.to_dict()) == json.dumps(again.to_dict()))

    print("\nidentical adversity across the evaluated codes (5 seeds):")
    table = compare_codes(range(5), p=7)
    print(f"  {'code':<8} {'survived':>9} {'mean repair reads':>18}")
    for name, row in table.items():
        print(f"  {name:<8} {row['survived']:>4}/{row['scenarios']:<4} "
              f"{row['mean_repair_reads']:>18.1f}")


if __name__ == "__main__":
    main()
