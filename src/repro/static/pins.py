"""Pinned hashes for everything the static layer freezes.

Three pin tables, one entry point:

- :data:`PINNED_CERTIFICATE_HASHES` — SHA-256 of the canonical-JSON
  :class:`~repro.static.certify.CodeCertificate` for every ``(code, p)``
  of the smoke set (every registered code at the
  :data:`~repro.static.certify.SMOKE_PRIMES`);
- :data:`PINNED_PLAN_HASHES` — SHA-256 of the canonical-JSON
  :class:`~repro.engine.plan.XorPlan` for the HV schedules the paper's
  algorithms pin down;
- :data:`PINNED_PLAN_REPORT_HASHES` — SHA-256 of the canonical-JSON
  :class:`~repro.static.planverify.PlanVerificationReport` for every
  registered code at the :data:`~repro.static.planverify.PLAN_VERIFY_PRIMES`.
  Unlike the other two tables these reports are *proof-backed*: the
  hash only exists because every enumerated plan passed symbolic
  verification, so a pin mismatch means a verified schedule family
  changed shape, not merely that some bytes drifted.

All three are pure functions of the chain structure and the compiler,
so they are byte-identical across platforms and numpy versions.  Any
change means a layout, planner decision, or CSE ordering changed.

If a change is *intentional* (a new code, a deliberate layout fix),
regenerate with::

    python -m repro.cli certify --smoke --json    # certificates + HV plans
    python -m repro.cli certify --plans           # plan-verification reports

and update the tables — the accompanying tests and the CI gate both
diff against them.

:func:`check_pins` is the single verification entry point: called with
no arguments it recomputes and checks all three canonical sets;
called with explicit collections it checks exactly those.
"""

from __future__ import annotations

from typing import Iterable

from ..exceptions import CertificationError

#: ``"CODE@p" -> sha256`` for the smoke set.  Cauchy-RS keys carry the
#: auto-chosen word size rather than the prime (its ``p`` is the data
#: disk count).
PINNED_CERTIFICATE_HASHES: dict[str, str] = {
    "HV@5": "699848e5dd0f3c33519624755698f1df97c19db87f9db571ae12b7fe01b7ccd3",
    "RDP@5": "cb3341b7988c0e9a9bc2fbc0596c906271bf4ae27f2ccef6cc6479abb8b11524",
    "HDP@5": "e389255d6835230cc937ffc05ee1ad2d5e3acfcefc2d29de56b9a9fb9442cda3",
    "X-Code@5": "06b519a3c3f9e52e43082c866894e20f50fc3787c8301a6719b419d86b0c33d6",
    "H-Code@5": "8b4548c74650a38fa23c3e9bd502d6bd088e70544f0760203e2181652704a363",
    "EVENODD@5": "783156d42e4b7a556123c54d41e660ee1e8c9da865eb59947855a54c12632d99",
    "P-Code@5": "601a9be4042e17ece95ae15ec80fbff23240ffbb59d2a5d6badedfd742948398",
    "Liberation@5": "c325e9033f8f047924f802e9b5697ae38ebad11da809cd16516a9acc79291147",
    "Cauchy-RS@3": "bdc4dd6cd53c81ef655eb75b686947d4ff4d12d1450e366181b26cc3a536f7de",
    "HV@7": "834f07be7caccd69b78facc74ff2c28755c4c1d81ef68b49b19032f8747e2c9b",
    "RDP@7": "9cdd8fd32e632fe137cbb567f2e8ba67506d63474cfc7246748fdaded2eb7a83",
    "HDP@7": "60155e7a9b24e0bf5b4d24e145ee4ed44fc401bcd35a078557ec631246cfa5f3",
    "X-Code@7": "adb3b13fe4f6d260129e2ebe86aacff3ab760b93e1c956f1c38162ed735f122d",
    "H-Code@7": "588b700d7ca53ba38fdaaa40d335fcb4cc9ce107eafe4d5f7cde049609c7574d",
    "EVENODD@7": "38549de09321d98d6e1abf066454a1ca7076ab453f8bd31e596683bc612aa367",
    "P-Code@7": "e144154231fe3bede0b62eb0346f78493400537b91e3dd14a604f0d6367f006a",
    "Liberation@7": "a6dc3d54392acaa8474eea74ecc30fe7e4f54d49212510383ebeca30f1d8b27b",
    "Cauchy-RS@4": "ca9fcd1835cd4f6f9ee9ca328dbc7a217209267900f81a2f34a0341e1c9aafb3",
}


#: ``plan.key -> sha256`` for the engine's compiled-plan smoke set: the
#: HV schedules the paper's algorithms pin down (encode, Fig. 9
#: single-disk recovery of disk 0, Algorithm 1 double recovery of
#: disks 0+1, and the Section IV.5 partial-stripe-write ``update``
#: schedule for the first ``p - 1`` logical data elements — one full
#: row plus its cross-row neighbour, the pattern whose shared vertical
#: parity the paper's claim rests on) at the evaluation primes.  Plans
#: are compiled with the default deterministic ``greedy`` planner and
#: CSE on; a changed hash means the *schedule* drifted — chain layout,
#: planner decision, or CSE ordering — even if the decoded bytes stay
#: correct.
PINNED_PLAN_HASHES: dict[str, str] = {
    "HV@5:encode": "491fa0ef79c56b32cecb2c2312acb91b2d691c887470525ff29b8130e3324db9",
    "HV@5:recover-single:d0": "4cb0cb01e60697e04a59de9476c105960222f8014d734f5abf875fe8838a90e2",
    "HV@5:recover-double:d0d1": "85e74921406967f824fd7fcae87825282b0a58bd4f6b02ff7c996236275e8879",
    "HV@5:update:d0d2d4d5": "04c9948e71eaf10bb76c9f782d3d02a4edbc477a1e99e95ab9521007b920c753",
    "HV@7:encode": "3f983722179df1264843a33f24487f9a7693d39f2189cfce15b8ac847f4a0ab3",
    "HV@7:recover-single:d0": "1132e936a082839fc4a96320d9b59cf76bf74021861c2bcb0fe3d9172e2a363d",
    "HV@7:recover-double:d0d1": "73dcd0e529d42a6ee1540f8fe2076eefb23e318a55f051d36368c91453beab1f",
    "HV@7:update:d0d2d4d5d7d8": "a1cbb0ee15b4c08cf2de509a8cec26924004a276032333a00a5d9b7730b46f46",
    "HV@11:encode": "24c95f05097cb69e485040860a39dc03f4daff3935ce5b6ab83e3ff332a79510",
    "HV@11:recover-single:d0": "852d03fa4445ea6a72698be284314de048e862d0b4ee785e0ee7ae461b2b097e",
    "HV@11:recover-double:d0d1": "122494fc2afad8e2f885eddcf7e0d17fdbc801a44683f235e0d935a86fe3d543",
    "HV@11:update:d0d2d4d5d6d7d8d9d10d11": "6bd181ededbca05c3c10ab51f80d90714eb8a96ca23bfc0080c7b6eae5e97b37",
}


#: ``report.key -> sha256`` for the symbolic plan-verification set:
#: every registered code at the plan-verify primes (keys use the
#: *registry parameter*, not ``code.p`` — Cauchy-RS's word size
#: collides across parameters).  Regenerate with
#: ``python -m repro.cli certify --plans`` after a deliberate change.
PINNED_PLAN_REPORT_HASHES: dict[str, str] = {
    "HV@5": "2ccc513cd539b5c74093cce43e69541630b533029511a94a9711b6e7cba11a28",
    "RDP@5": "44a10be8d6efd0e441b6ee0c7d92b56de14e5c8854cce2d285d7cf7a70025063",
    "HDP@5": "d23717809e248eaebf8dcf120ca702194b2011244251f30580a98ab7eb4f0d3d",
    "X-Code@5": "6de2b6aa1f0903af4c1d65009727791aca9b31ef53ab0570bd6e0e760ecb7612",
    "H-Code@5": "9e84f573d6bf408fb362547e59e3c5f0038cf6f012e0adff4056d6c6f422eadb",
    "EVENODD@5": "1cf1cd010f5c2ff42aac54c58b6f14c8472f2b72feae8a22d96c3ba02adb7f99",
    "P-Code@5": "a33d6262e3107e6f20ac6d593460f9de5cbd8397486e76ba0277ef9162a847c9",
    "Liberation@5": "dfc73cb86ea77965f8c1f7105b0f224ca589d2fd67e4d68f08c274676c3b3402",
    "Cauchy-RS@5": "b39033c0641fff765c63f3a6cc7f910e5e9e99882caa28c6aa81f3fb2fe2d5fd",
    "HV@7": "99bbd539bd3913c91db1dc089777245d070c647d620c7600fbc460624fe0b215",
    "RDP@7": "dac75c1f52c873e1138f13646cffdfa603ec4c734831082b4280bdd4520afc50",
    "HDP@7": "170ded265f1b19fd1b5d0480ded7cecd99bc6ea6dff620af6ecf410d794bbd2f",
    "X-Code@7": "05c623a4326f347381133e1e178e2d59fc6c8204b280c60c748c36c34babb40c",
    "H-Code@7": "ae2470b3361a54a3e3f1040df6a97de2788527d95707ba3ee79f6acf7206f48b",
    "EVENODD@7": "fe8c741fcf771b917b6b4f99e513d25d53347d0b9dab5cb5ca1d2bec511eb9de",
    "P-Code@7": "fb59c3e26d15b5df6e7aa84c03d49620f99e7a6f5964dbf494dab1dd171d25fc",
    "Liberation@7": "4f29c14488192ee9421cbc0fa717a5f0f45d83f33b73f6491d8efed80c774b9f",
    "Cauchy-RS@7": "5c1c97d3d927dcd7989df41a36e431736ef6fb0ac9227c4ef54d1bed00b75fdd",
    "HV@11": "d5a295d5b2ddf4fda76b31f28f2241ab30cc26b71411554e040ea3e4765d649c",
    "RDP@11": "02805d4b04ac741dbbc453f4f039361f7eca6bb09adc7fe4520d9a2c66d58fa4",
    "HDP@11": "9b598541a3e9a68a7514d2d5d28493ffcb059dcdd4dbbd52d14e36b8ae566002",
    "X-Code@11": "0322e79d843aa3e6175bf9bde7e30009cddb65eca985ee3c9ec4c18f7577fcd4",
    "H-Code@11": "a8c1ad571ffc458a2837484602405a3af7884bc5efc0d7b5668813daec091d7d",
    "EVENODD@11": "27e4cb6b677f98dfa16574d555aaddd1be9d0706f8798996f8b5f7dfd8694da2",
    "P-Code@11": "801be8c026cdeff1a630a14b7f1f602d40ef1a0dc7dddbecf99c86c51fe2411a",
    "Liberation@11": "0433e20dcaa8db9a493147ab550de7d5192cd6868c7c82d37aa512834f1bf832",
    "Cauchy-RS@11": "a7af6536b8a50da9de670392ec7c71ce299bbbccfa4ca9e659c3f30abf8c7be8",
}


def pinned_plans():
    """Compile every pinned plan fresh; yields :class:`XorPlan` objects.

    Uses a private cache so a poisoned process-wide plan cache cannot
    mask drift.
    """
    from ..codes.registry import get_code
    from ..engine.compile import PlanCache, compile_plan

    cache = PlanCache()
    ops = {
        "encode": (),
        "recover-single": (0,),
        "recover-double": (0, 1),
    }
    for p in (5, 7, 11):
        code = get_code("HV", p)
        for op, pattern in ops.items():
            yield compile_plan(code, op, pattern, cache=cache)
        # The partial-stripe-write schedule: the first p - 1 logical
        # data elements dirty (a full row plus the cross-row
        # neighbour that shares its vertical parity).
        update_cells = tuple(code.data_positions[: p - 1])
        yield compile_plan(code, "update", update_cells, cache=cache)


def pinned_plan_reports():
    """Symbolically verify the full report set; yields reports.

    Each yielded :class:`~repro.static.planverify.PlanVerificationReport`
    has already proven every plan of its ``(code, p)`` — this call *is*
    the proof pass, the pin check afterwards only detects drift.
    """
    from .planverify import plan_verification_reports

    yield from plan_verification_reports()


def _check_table(
    kind: str,
    items: Iterable[tuple[str, str]],
    table: dict[str, str],
) -> None:
    """Shared pin-check core: every ``(key, sha)`` must match ``table``."""
    for key, digest in items:
        pinned = table.get(key)
        if pinned is None:
            raise CertificationError(
                f"{key}: no pinned {kind} hash; add {digest} to "
                "repro.static.pins"
            )
        if pinned != digest:
            raise CertificationError(
                f"{key}: {kind} hash {digest} does not match pinned "
                f"{pinned} — the {kind} drifted"
            )


def check_certificate_pins(certificates) -> None:
    """Verify code certificates against :data:`PINNED_CERTIFICATE_HASHES`."""
    _check_table(
        "certificate",
        ((c.key, c.certificate_hash) for c in certificates),
        PINNED_CERTIFICATE_HASHES,
    )


def check_plan_pins(plans=None) -> None:
    """Verify compiled-plan hashes against :data:`PINNED_PLAN_HASHES`.

    Raises :class:`~repro.exceptions.CertificationError` on the first
    mismatch or unpinned plan.  With no argument, compiles and checks
    the full pinned set.
    """
    plans = plans if plans is not None else pinned_plans()
    _check_table(
        "plan",
        ((p.key, p.plan_hash) for p in plans),
        PINNED_PLAN_HASHES,
    )


def check_plan_report_pins(reports=None) -> None:
    """Verify plan-verification reports against
    :data:`PINNED_PLAN_REPORT_HASHES`.

    With no argument, runs the full symbolic verification sweep first
    (every code at every plan-verify prime) — the expensive but
    authoritative path.
    """
    reports = reports if reports is not None else pinned_plan_reports()
    _check_table(
        "plan report",
        ((r.key, r.report_hash) for r in reports),
        PINNED_PLAN_REPORT_HASHES,
    )


def check_pins(
    certificates=None,
    plans=None,
    plan_reports=None,
) -> None:
    """The single pin-verification entry point.

    Called with no arguments, recomputes and checks *all three*
    canonical sets — smoke certificates, pinned HV plans, and the
    symbolic plan-verification reports.  Called with explicit
    collections, checks exactly the ones given (so cheap callers can
    skip the full symbolic sweep).  Raises
    :class:`~repro.exceptions.CertificationError` on the first missing
    pin or mismatch.
    """
    check_all = certificates is None and plans is None and plan_reports is None
    if check_all:
        from .certify import smoke_certificates

        certificates = smoke_certificates()
        plans = pinned_plans()
        plan_reports = pinned_plan_reports()
    if certificates is not None:
        check_certificate_pins(certificates)
    if plans is not None:
        check_plan_pins(plans)
    if plan_reports is not None:
        check_plan_report_pins(plan_reports)
