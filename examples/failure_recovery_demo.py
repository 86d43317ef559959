#!/usr/bin/env python
"""Disk-failure recovery walkthrough (paper Sections III.D and V.C/V.D).

1. Single disk failure: the minimal-I/O hybrid plan (Fig. 8) — which
   chain repairs each lost element and what gets read.
2. Double disk failure: Algorithm 1's four parallel recovery chains.

Run:  python examples/failure_recovery_demo.py
"""

from repro import HVCode
from repro.core.recovery import plan_double_failure_recovery
from repro.recovery.cost import repair_cost
from repro.recovery.single import degraded_read_choices


def single_disk(code: HVCode, disk: int) -> None:
    print(f"--- single failure of disk {disk} in {code.name}(p={code.p}) ---")
    column = [(r, disk) for r in range(code.rows)]
    choices = degraded_read_choices(code, column, (), method="milp")
    for cell in sorted(choices):
        chain = choices[cell]
        print(f"  rebuild {cell} via {chain.kind.value} chain at {chain.parity}")
    cost = repair_cost(code, (disk,), "milp")
    print(f"  total elements read: {cost.reads} "
          f"({cost.reads_per_lost_element:.2f} per lost element; "
          f"the paper's Fig. 8 reports 18 / 3.0 at p=7)")
    print()


def double_disk(code: HVCode, f1: int, f2: int) -> None:
    print(f"--- double failure of disks {f1} and {f2} ---")
    plan = plan_double_failure_recovery(code, f1, f2)
    for idx, chain in enumerate(plan.recovery_order, start=1):
        pretty = " -> ".join(str(pos) for pos in chain)
        print(f"  chain {idx}: {pretty}")
    print(f"  longest chain Lc = {plan.longest_chain}")

    cost = repair_cost(code, (f1, f2))
    print(f"  compiled recovery plan: {cost.rounds} parallel rounds, "
          f"{cost.parallelism} chains start at once")

    # Prove the plan on real bytes.
    stripe = code.random_stripe(element_size=32, seed=7)
    broken = stripe.copy()
    broken.erase_disks([f1, f2])
    plan.execute(broken)
    assert broken == stripe
    print("  executed on a real stripe: all bytes restored")
    print()


def main() -> None:
    code = HVCode(7)
    single_disk(code, 0)
    double_disk(code, 0, 2)
    double_disk(code, 1, 4)


if __name__ == "__main__":
    main()
