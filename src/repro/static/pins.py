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
    "RDP@5": "9f82484e78bc3407d9cd758cf3bd11f21d15ee97f0bf87ec1f0e8848cec24c37",
    "HDP@5": "cad7d8a070b700ebe1ac8e115d78e7cb5fad5a719b54c7db4d630a67927edb73",
    "X-Code@5": "d543cd5e221bb328d47465c4456b18dfbee066b48831e6b171f4378ac4e1f4fe",
    "H-Code@5": "09eef46f2907452be965556ba8c6023f54033fe21fee4204157bc0bffb2e01ca",
    "EVENODD@5": "24faadf9b45dd1c6cb2559c1edf16599c5cb3b97e53c6215b3e43caabfad468e",
    "P-Code@5": "bf171035e900420f345a76ee47d8e73ae4afaede47346123c9f670a8a35388bf",
    "Liberation@5": "7a5748444b5a440092acf0e5bf72e2c25904a4c2bcb01c602cb6924d8f0e3fb9",
    "Cauchy-RS@5": "b86b08eb7a9dc01380da03913aa566f9258b0a84fd93b2edf68d9517e7d484d0",
    "HV@7": "99bbd539bd3913c91db1dc089777245d070c647d620c7600fbc460624fe0b215",
    "RDP@7": "f774d4fc1d84bf9b78e6a84243b5a5154ab30ad18da04b0e9cf0c477507518a7",
    "HDP@7": "3d56230d70444f66cba223eb07861f4b0b6ea4097ddb3f06ca401334a9919eef",
    "X-Code@7": "d4a3121e04a865f5985545cf61ee1546dd8730de73e59a9522bca4d8015cf3a7",
    "H-Code@7": "68fb402be30a17cd3628f0649617d7ef9c31f2a1811cc1de386f22f983432e74",
    "EVENODD@7": "39357ebb0a3d7d71c4cfc299f5b06f007196b2ace4369c07f1e8287883fb3767",
    "P-Code@7": "afb767394849bc5a53f3b4856c50420c6cf34537f4f4597e7d9859f7723d685e",
    "Liberation@7": "1733a1054fdad2e3bf4af668a618c8f6057c2f43ad2d8370eca29cdf520a16a5",
    "Cauchy-RS@7": "808119740beec6660a41f286e7c238fb680152be0e1408b30c1772e59df62483",
    "HV@11": "d5a295d5b2ddf4fda76b31f28f2241ab30cc26b71411554e040ea3e4765d649c",
    "RDP@11": "31bab9842ae5243d94ec99929cff77d8ea7fb8c3e1989acf44497c9b7f9273bb",
    "HDP@11": "21ef3bf43ec6451f99fc1deca61e22741678cdede47479aa7235ac9bbc132700",
    "X-Code@11": "5f82d0ab1c136922a456d1076d2d24c38f62241441d406175956b78d71494305",
    "H-Code@11": "b36adfbae7c3ab3f63acc9e6e359cfe3430de4cedab48d784d0eeb4624b3a84e",
    "EVENODD@11": "3e3f52ed8a381bf8b71f5f7c116e1f4e052f57a23022d97d2a7ad3fd3d1c3a70",
    "P-Code@11": "092f22b9e2908500fef94f1a72f76e1fac1ede9c0fbd8cbbdfeb551d0186fb01",
    "Liberation@11": "09b17dd4c9024fdb7ac5649b8d6c4332df2dd18592b1bde7786e02cd1a115f79",
    "Cauchy-RS@11": "2786bb311a5241cdac62dd94f91405ac0a04af04419c6f5fb19b4d090c8dbcda",
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
