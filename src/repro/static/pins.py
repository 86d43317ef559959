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
#: single-disk recovery of disk 0 — the ``read`` of its whole column
#: that ``FileStore.rebuild(0)`` runs — Algorithm 1 double recovery of
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
    "HV@5:read:e0e4e8e12:w0w4w8w12": "119962b61b675741770731f42051edbbb0693b729e679214a8a1d41fd08ccbba",
    "HV@5:recover-double:d0d1": "85e74921406967f824fd7fcae87825282b0a58bd4f6b02ff7c996236275e8879",
    "HV@5:update:d0d2d4d5": "04c9948e71eaf10bb76c9f782d3d02a4edbc477a1e99e95ab9521007b920c753",
    "HV@7:encode": "3f983722179df1264843a33f24487f9a7693d39f2189cfce15b8ac847f4a0ab3",
    "HV@7:read:e0e6e12e18e24e30:w0w6w12w18w24w30": "1e274f940fcbd2a8ef4ef240d7d75d8200793e6f665a9aae0838fdd2aec93326",
    "HV@7:recover-double:d0d1": "73dcd0e529d42a6ee1540f8fe2076eefb23e318a55f051d36368c91453beab1f",
    "HV@7:update:d0d2d4d5d7d8": "a1cbb0ee15b4c08cf2de509a8cec26924004a276032333a00a5d9b7730b46f46",
    "HV@11:encode": "24c95f05097cb69e485040860a39dc03f4daff3935ce5b6ab83e3ff332a79510",
    "HV@11:read:e0e10e20e30e40e50e60e70e80e90:w0w10w20w30w40w50w60w70w80w90": (
        "32cbc43f606d9d7548319df5d7bd9ea1f461a41b08fe0cd1207de06f994f4c10"
    ),
    "HV@11:recover-double:d0d1": "122494fc2afad8e2f885eddcf7e0d17fdbc801a44683f235e0d935a86fe3d543",
    "HV@11:update:d0d2d4d5d6d7d8d9d10d11": "6bd181ededbca05c3c10ab51f80d90714eb8a96ca23bfc0080c7b6eae5e97b37",
}


#: ``report.key -> sha256`` for the symbolic plan-verification set:
#: every registered code at the plan-verify primes (keys use the
#: *registry parameter*, not ``code.p`` — Cauchy-RS's word size
#: collides across parameters).  Regenerate with
#: ``python -m repro.cli certify --plans`` after a deliberate change.
PINNED_PLAN_REPORT_HASHES: dict[str, str] = {
    "HV@5": "ad9985af360160b95704c3448a2cf94db911ad4a6308e35a13d6262f6b781859",
    "RDP@5": "a5b1bbc68cfdf86dabc5dd3ac9a0b40907a8f3c488a4227271c72ce7b7ea9f6b",
    "HDP@5": "5a2a0b7432c3a787b57f4541861203341c68d14379a3debf0c393c2757ecd718",
    "X-Code@5": "44c6522279f7e9f7336608c53b93b800231a399c0adf5f2bc21b5412555b5662",
    "H-Code@5": "68c58e38da32bc6b2f36c90ba04eb527a1edaca88981fc99b3946e4c57f72801",
    "EVENODD@5": "941d8b16a01fe8fb3e7db4b64cfdc4444ad98c2d6a89c4417c5229995272842f",
    "P-Code@5": "cb9e85b0ad52bf73c39ccd4be7a0fd623edb1509affdcb0eab0bbfe13478fa5b",
    "Liberation@5": "b5e6c4627728a408e00900b9623e793bd458057e2d2260add99c2e22a0c6b4d7",
    "Cauchy-RS@5": "ab01e278471c10368fd219b91ec65224d930970bb9a183dac41766ccd4e72c46",
    "HV@7": "47bf1094048abd840841e9e8a7de93d755b6d7833db17ddf8391b8a638f8daf1",
    "RDP@7": "00efe4cccad1eab4a7d719087ff32baa3536a69bc1035fdfd56843bb3f30880e",
    "HDP@7": "72083b05666578b521c3bc38e50fcf801462e273ab30f8b79f2f3749be80fa0a",
    "X-Code@7": "57d349304a17c33482487e1c8861897d6c38b44bd45d32e559b1d0e7e45a6bc6",
    "H-Code@7": "53513fdaef4f896fed3685015eae81537da780c6f4f1e162760ab5ccd0cb2942",
    "EVENODD@7": "2661d1211ee737bf689ec4ee14d26283174a45691a4e75346c97e0053f7b5644",
    "P-Code@7": "ee55ae1676d7fac7ff105c74b066d9448c4712d8cfc0583167a0e6e0da145951",
    "Liberation@7": "dfe0c0fcbe40f3053e91520f417f6c88a512c97c01c4d345712deef151ce4cc0",
    "Cauchy-RS@7": "3d6704910636ce482786c108e8490c1fae586e7331129573d012dfdd17fa6557",
    "HV@11": "256268e7342fbded5fc0b9786735a4132d71a6aebd9bc7f3bf4fc800c72b1ca5",
    "RDP@11": "701e3eefa7ed6aff98d2e5d076f9d6f3f73b3ec008fe84f09d1565551fe58bdd",
    "HDP@11": "9ab1b6891bcb2262ac2ee4d1e2a58350ddff984e2a3395f3cb1d7724830ea944",
    "X-Code@11": "6bee33e15420a4de190bd3a54e7b7b3cac80bd0e1b7aeb866fb3eb8e94a3da3f",
    "H-Code@11": "3bfe109ac8cc15244b6b8708329dad5bab4fe1dab585044487e9220ba998b2ec",
    "EVENODD@11": "aa86e04abcaacd6b29c8efca44ec3acbaca666d8f4790bb834deb4277b884ddc",
    "P-Code@11": "9cbbc0ef255221612de906e5580e8d03f7310402ad7d92686f01fab500f28d56",
    "Liberation@11": "1ed1ccb703cfc00a0a6b56a0c1adf99c151fcde3ea748800e7c3839f6539398a",
    "Cauchy-RS@11": "313d0edb5f6451307dac64c900ce0cb1e65cb8e9952a21b39a05005ad4663d94",
}


def pinned_plans():
    """Compile every pinned plan fresh; yields :class:`XorPlan` objects.

    Uses a private cache so a poisoned process-wide plan cache cannot
    mask drift.
    """
    from ..codes.registry import get_code
    from ..engine.compile import PlanCache, compile_plan

    cache = PlanCache()
    for p in (5, 7, 11):
        code = get_code("HV", p)
        column = tuple(range(0, code.rows * code.cols, code.cols))
        yield compile_plan(code, "encode", cache=cache)
        yield compile_plan(code, "read", (column, column, ()), cache=cache)
        yield compile_plan(code, "recover-double", (0, 1), cache=cache)
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
