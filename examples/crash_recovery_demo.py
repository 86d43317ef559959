#!/usr/bin/env python
"""Kill a journaled store at a chosen I/O boundary, then recover it.

The RAID-6 write hole: a write-back cache lands data bytes immediately
but defers the parity delta, so a power cut between the two leaves
parity disagreeing with data.  The parity intent journal closes the
hole — every cached write frames an intent flag (the slots it is
about to dirty) *before* the first data byte mutates, and recovery
re-derives parity for every flagged stripe.

This demo walks the whole lifecycle:

1. run a seeded write workload against a journaled HV-coded store,
   counting every durable-I/O boundary the workload crosses;
2. replay the same workload and cut the power mid-flight at one of
   those boundaries (a parity landing, by default);
3. reopen the "dead" store with ``FileStore.reopen_from``, print the
   recovery report, and check the recovered image byte-for-byte
   against a write-through oracle.

Run:  python examples/crash_recovery_demo.py [crash_boundary]
"""

import sys

from repro import CrashError, HVCode
from repro.array.filestore import FileStore
from repro.faults import CrashingStore, seeded_write_trace
from repro.faults.crash import INTENT_SITES

P = 5
ELEMENT_SIZE = 16
OPS = 8
SEED = 0


def build_store() -> FileStore:
    return FileStore(
        HVCode(P), element_size=ELEMENT_SIZE, engine="fused", cache_stripes=2
    )


def main() -> None:
    code = HVCode(P)
    trace = seeded_write_trace(code, ELEMENT_SIZE, OPS, seed=SEED)

    # 1. A clean run counts the boundaries and shows the site mix.
    clean = CrashingStore(build_store())
    for offset, payload in trace:
        clean.write(offset, payload)
    clean.flush()
    print(f"workload: {OPS} seeded writes over {len(clean.store.stripes)} "
          f"stripes crossed {clean.boundaries} durable-I/O boundaries")
    sites = {}
    for site in clean.trace:
        sites[site] = sites.get(site, 0) + 1
    for site, count in sorted(sites.items()):
        print(f"  {site:<20} x{count}")

    # 2. Same workload, but the lights go out at one boundary.
    if len(sys.argv) > 1:
        crash_at = int(sys.argv[1])
    else:
        crash_at = clean.trace.index("parity-write")  # mid write hole
    wrapper = CrashingStore(build_store(), crash_at=crash_at)
    applied = 0
    try:
        for offset, payload in trace:
            wrapper.write(offset, payload)
            applied += 1
        wrapper.flush()
    except CrashError as exc:
        print(f"\npower cut: {exc}")
    site = wrapper.crashed_at[1] if wrapper.crashed_at else None
    durable = applied
    if wrapper.crashed_at and applied < len(trace) and site not in INTENT_SITES:
        durable = applied + 1  # the in-flight write's data had landed
    print(f"writes durable at the instant of the crash: {durable}/{len(trace)}")

    # 3. Reopen what survived and let recovery replay the journal.
    recovered, report = FileStore.reopen_from(wrapper.store)
    print("\nrecovery report:")
    for line in report.render().splitlines():
        print(f"  {line}")

    oracle = FileStore(code, element_size=ELEMENT_SIZE, engine="python")
    for offset, payload in trace[:durable]:
        oracle.write(offset, payload)
    oracle._ensure_capacity(recovered.capacity)
    recovered._ensure_capacity(oracle.capacity)
    identical = len(recovered.stripes) == len(oracle.stripes) and all(
        a == b for a, b in zip(recovered.stripes, oracle.stripes)
    )
    print(f"\nrecovered image matches the write-through oracle: {identical}")
    print(f"parity scrub finds {len(recovered.scrub())} inconsistent stripes")
    print(f"checksum scrub clean: {recovered.scrub_checksums(repair=False).clean}")


if __name__ == "__main__":
    main()
