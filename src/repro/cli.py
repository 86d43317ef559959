"""Command-line entry point: regenerate any paper figure or table.

Examples::

    python -m repro.cli table3
    python -m repro.cli fig9a
    python -m repro.cli fig6 --p 13
    python -m repro.cli all --quick
    python -m repro.cli layout --code HV --p 7
"""

from __future__ import annotations

import argparse
import sys
import time

from .codes.registry import available_codes, get_code
from .exceptions import (
    CertificationError,
    InvalidParameterError,
    InvalidSimConfigError,
)
from .experiments.runner import (
    EXPERIMENTS,
    render_results,
    run_all,
    run_experiment,
)
from .version import PAPER, __version__


def build_parser() -> argparse.ArgumentParser:
    from .engine import ENGINE_CHOICES

    parser = argparse.ArgumentParser(
        prog="hvcode-repro",
        description=f"Reproduce: {PAPER}",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name in EXPERIMENTS:
        if name == "reliability":
            continue  # has its own dedicated subcommand below
        exp = sub.add_parser(name, help=f"regenerate {name}")
        exp.add_argument("--quick", action="store_true", help="small CI-sized run")
        _add_output_options(exp)
        if name in (
            "fig6",
            "fig7",
            "table3",
            "rotation",
            "zoo",
            "degraded-writes",
            "lsweep",
        ):
            exp.add_argument("--p", type=int, default=None, help="prime (default 13)")
        if name in ("fig6", "fig7", "rotation", "degraded-writes", "lsweep"):
            exp.add_argument("--seed", type=int, default=None)
            exp.add_argument("--patterns", type=int, default=None)

    everything = sub.add_parser("all", help="regenerate every figure and table")
    everything.add_argument("--quick", action="store_true")
    _add_output_options(everything)

    layout = sub.add_parser("layout", help="print a code's stripe layout")
    layout.add_argument(
        "--code", default="HV", help=f"one of: {', '.join(available_codes())}"
    )
    layout.add_argument("--p", type=int, default=7)

    faults = sub.add_parser(
        "faults", help="seeded fault-injection scenarios (crash + URE + flips)"
    )
    faults.add_argument(
        "--code",
        default=None,
        help="run one code only (default: the full evaluated set)",
    )
    faults.add_argument("--p", type=int, default=7)
    faults.add_argument("--seed", type=int, default=0, help="first scenario seed")
    faults.add_argument(
        "--scenarios", type=int, default=5, help="seeds run per code"
    )
    faults.add_argument("--stripes", type=int, default=4)
    faults.add_argument("--crashes", type=int, default=1)
    faults.add_argument("--latent", type=int, default=1, dest="ures")
    faults.add_argument("--flips", type=int, default=1)
    faults.add_argument(
        "--format", choices=("text", "json"), default="text"
    )
    faults.add_argument("--output", default=None)

    rel = sub.add_parser(
        "reliability",
        help="MTTDL table from measured recovery behaviour (Markov model)",
    )
    rel.add_argument("--p", type=int, default=13, help="prime (default 13)")
    rel.add_argument("--mttf", type=float, default=1.0e6, help="disk MTTF hours")
    rel.add_argument(
        "--sector",
        action="store_true",
        help="include the latent-sector-error (URE) MTTDL extension",
    )
    rel.add_argument(
        "--json", action="store_true", help="machine-readable JSON output"
    )
    rel.add_argument("--output", default=None)

    sim = sub.add_parser(
        "sim",
        help="discrete-event fleet reliability simulation (repro.sim)",
    )
    sim.add_argument(
        "--code",
        default=None,
        help="run one code only (default: the full evaluated set)",
    )
    sim.add_argument("--p", type=int, default=5, help="prime (default 5)")
    sim.add_argument("--fleet", type=int, default=100, help="arrays per code")
    sim.add_argument(
        "--horizon", type=float, default=50_000.0, help="simulated hours"
    )
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument(
        "--lifetime", choices=("exponential", "weibull"), default="exponential"
    )
    sim.add_argument(
        "--mttf",
        type=float,
        default=2_000.0,
        help="mean disk lifetime hours (Weibull: the scale η)",
    )
    sim.add_argument(
        "--shape", type=float, default=1.2, help="Weibull shape (k)"
    )
    sim.add_argument(
        "--capacity-factor",
        type=float,
        default=30.0,
        help="scale the paper's per-disk capacity (stretches rebuilds)",
    )
    sim.add_argument(
        "--latent-rate",
        type=float,
        default=0.0,
        help="latent-sector-error arrivals per disk-hour",
    )
    sim.add_argument(
        "--scrub-interval",
        type=float,
        default=168.0,
        help="hours between checksum scrubs (0 disables)",
    )
    sim.add_argument(
        "--spares", type=int, default=None, help="hot-spare pool size"
    )
    sim.add_argument(
        "--streams",
        type=int,
        default=None,
        help="fleet-wide full-rate rebuild streams (repair bandwidth)",
    )
    sim.add_argument(
        "--smoke",
        action="store_true",
        help="small fixed CI run; prints the deterministic report hash",
    )
    sim.add_argument(
        "--json", action="store_true", help="machine-readable JSON output"
    )
    sim.add_argument("--output", default=None)

    certify = sub.add_parser(
        "certify",
        help="static code certificates: prove MDS/chain/balance claims "
        "from the GF(2) structure alone",
    )
    certify.add_argument(
        "--code",
        default=None,
        help="certify one code only (default: every registered code)",
    )
    certify.add_argument(
        "--p", type=int, default=None, help="one prime (default: 7)"
    )
    certify.add_argument(
        "--all-primes",
        action="store_true",
        help="certify at every paper prime (5..23)",
    )
    certify.add_argument(
        "--smoke",
        action="store_true",
        help="fixed CI set (all codes at p=5,7), verified against the "
        "pinned hashes; prints one hash line per certificate",
    )
    certify.add_argument(
        "--plans",
        action="store_true",
        help="symbolically verify every compiled XOR plan (all codes at "
        "p=5,7,11 unless --code/--p narrow it) and print one report "
        "hash line per (code, p)",
    )
    certify.add_argument(
        "--check-pins",
        action="store_true",
        help="recompute and verify all three pin tables — smoke "
        "certificates, pinned HV plans, and symbolic plan-verification "
        "reports — through the single check_pins() entry point",
    )
    certify.add_argument(
        "--json", action="store_true", help="machine-readable JSON output"
    )
    certify.add_argument("--output", default=None)

    crash = sub.add_parser(
        "crash-bench",
        help="kill-anywhere crash matrix: cut power at every durable-I/O "
        "boundary and verify journal recovery against a write-through oracle",
    )
    crash.add_argument(
        "--code",
        default=None,
        help="run one code only (default: every registered code)",
    )
    crash.add_argument("--p", type=int, default=5, help="prime (default 5)")
    crash.add_argument(
        "--element-size", type=int, default=16, help="bytes per element"
    )
    crash.add_argument(
        "--ops", type=int, default=8, help="writes per crash trace"
    )
    crash.add_argument(
        "--cache", type=int, default=2, help="stripe-cache capacity"
    )
    crash.add_argument("--seed", type=int, default=0, help="trace seed")
    crash.add_argument(
        "--smoke",
        action="store_true",
        help="fixed CI run (HV+RDP at p=5), verified against the pinned "
        "report hash",
    )
    crash.add_argument(
        "--json", action="store_true", help="machine-readable JSON output"
    )
    crash.add_argument("--output", default=None)

    serve = sub.add_parser(
        "serve-bench",
        help="many-client serving benchmark: a seeded Zipf trace through "
        "the sharded concurrent volume service, with a single-threaded "
        "differential oracle and a rebuild-contention phase",
    )
    serve.add_argument(
        "--code",
        default=None,
        help="run one code only (default: every registered code)",
    )
    serve.add_argument("--p", type=int, default=5, help="prime (default 5)")
    serve.add_argument(
        "--ops", type=int, default=50_000, help="trace length per code"
    )
    serve.add_argument(
        "--stripes", type=int, default=64, help="stripes in the volume"
    )
    serve.add_argument(
        "--shards", type=int, default=4, help="shards in the pool"
    )
    serve.add_argument(
        "--workers", type=int, default=4, help="scheduler worker threads"
    )
    serve.add_argument(
        "--policy",
        choices=("range", "hash"),
        default="range",
        help="stripe-to-shard placement policy",
    )
    serve.add_argument(
        "--element-size", type=int, default=1024, help="bytes per element"
    )
    serve.add_argument(
        "--cache", type=int, default=8, help="stripe-cache capacity per shard"
    )
    serve.add_argument("--seed", type=int, default=0, help="trace seed")
    serve.add_argument(
        "--engine",
        choices=ENGINE_CHOICES,
        default="fused",
        help="kernel backend every shard store runs on; its XOR and "
        "kernel counts are hashed, so --smoke pins fused",
    )
    serve.add_argument(
        "--smoke",
        action="store_true",
        help="fixed CI run (HV+RDP, 2 shards), verified against the "
        "pinned report hash",
    )
    serve.add_argument(
        "--json", action="store_true", help="machine-readable JSON output"
    )
    serve.add_argument("--output", default=None)

    lint = sub.add_parser(
        "lint", help="repo lint rules R001-R011 (AST-based, repo-specific)"
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="files or directories (default: the repro package source)",
    )
    lint.add_argument(
        "--rules",
        default=None,
        help="comma-separated rule ids to run, e.g. R001,R004",
    )
    lint.add_argument(
        "--format",
        choices=("text", "json", "github"),
        default="text",
        help="'github' emits ::error workflow annotations so violations "
        "surface inline on pull requests",
    )
    return parser


def _add_output_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        choices=("text", "chart", "json", "csv"),
        default="text",
        help="output format; 'chart' draws paper-style grouped bars",
    )
    parser.add_argument(
        "--output", default=None, help="write results to a file instead of stdout"
    )


def _collect_overrides(args: argparse.Namespace) -> dict:
    overrides = {}
    if getattr(args, "p", None) is not None:
        overrides["p"] = args.p
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "patterns", None) is not None:
        overrides["num_patterns"] = args.patterns
    return overrides


def _run_faults(args: argparse.Namespace) -> int:
    """Run seeded adversity scenarios and summarize per code.

    A fault mix no plan can draw (``--crashes 2`` with sector faults,
    say) is a usage error (see :func:`main`).
    """
    import json

    from .faults.scenarios import compare_codes

    names = (args.code,) if args.code else None
    table = compare_codes(
        range(args.seed, args.seed + args.scenarios),
        p=args.p,
        code_names=names,
        stripes=args.stripes,
        crashes=args.crashes,
        latent=args.ures,
        flips=args.flips,
    )
    if args.format == "json":
        rendered = json.dumps(table, indent=2)
    else:
        lines = [
            f"fault scenarios: p={args.p}, seeds {args.seed}.."
            f"{args.seed + args.scenarios - 1}, "
            f"{args.crashes} crash(es) + {args.ures} URE(s) + "
            f"{args.flips} flip(s) per scenario",
            f"{'code':<10} {'survived':>9} {'rebuild s':>10} {'repair reads':>13}",
        ]
        for name, row in table.items():
            lines.append(
                f"{name:<10} {row['survived']:>4}/{row['scenarios']:<4} "
                f"{row['mean_rebuild_seconds']:>10.4f} "
                f"{row['mean_repair_reads']:>13.1f}"
            )
        rendered = "\n".join(lines)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(rendered + "\n")
        print(f"wrote fault-scenario results to {args.output}")
    else:
        print(rendered)
    return 0


def _emit(rendered: str, output: str | None, what: str) -> None:
    if output:
        with open(output, "w") as fh:
            fh.write(rendered + "\n")
        print(f"wrote {what} to {output}")
    else:
        print(rendered)


def _run_reliability(args: argparse.Namespace) -> int:
    """The Markov MTTDL table, with the optional sector-error extension."""
    import json

    from .analysis.reliability import (
        ReliabilityParameters,
        mttdl_comparison,
        mttdl_with_sector_errors,
    )
    from .codes.registry import evaluated_codes

    params = ReliabilityParameters(disk_mttf_hours=args.mttf)
    codes = evaluated_codes(args.p)
    if args.sector:
        table = {c.name: mttdl_with_sector_errors(c, params) for c in codes}
    else:
        table = mttdl_comparison(codes, params)
    if args.json:
        rendered = json.dumps(
            {
                "p": args.p,
                "disk_mttf_hours": args.mttf,
                "sector_errors": args.sector,
                "codes": table,
            },
            indent=2,
            sort_keys=True,
        )
    else:
        lines = [
            f"MTTDL from measured recovery behaviour: p={args.p}, "
            f"disk MTTF {args.mttf:g} h"
            + (" (with latent-sector-error extension)" if args.sector else ""),
            f"{'code':<10} {'disks':>5} {'1-disk h':>9} {'2-disk h':>9} "
            f"{'MTTDL (1e9 h)':>14}"
            + (f" {'P(URE)':>9} {'penalty':>8}" if args.sector else ""),
        ]
        for name, row in table.items():
            line = (
                f"{name:<10} {int(row['disks']):>5} "
                f"{row['single_rebuild_hours']:>9.3f} "
                f"{row['double_rebuild_hours']:>9.3f} "
                f"{row['mttdl_hours'] / 1e9:>14.3f}"
            )
            if args.sector:
                line += (
                    f" {row['p_ure_double_rebuild']:>9.2e}"
                    f" {row['mttdl_penalty']:>8.2f}"
                )
            lines.append(line)
        rendered = "\n".join(lines)
    _emit(rendered, args.output, "reliability table")
    return 0


#: Fixed parameters of ``repro sim --smoke``: small enough for CI, large
#: enough to exercise every event type, and fully pinned so the report
#: hash is a regression fingerprint.
SIM_SMOKE = dict(
    p=5,
    fleet_size=20,
    horizon_hours=6_000.0,
    seed=0,
    mttf_hours=1_000.0,
    capacity_factor=30.0,
    latent_rate=1.0e-4,
    scrub_interval=168.0,
)


def _run_sim(args: argparse.Namespace) -> int:
    """Fleet reliability simulation across the evaluated codes.

    An unknown code name is a usage error (see :func:`main`).
    """
    import json

    from .codes.registry import EVALUATED_CODE_NAMES
    from .sim import (
        ExponentialLifetime,
        SimConfig,
        WeibullLifetime,
        compare_codes,
    )

    if args.smoke:
        lifetime = ExponentialLifetime(mttf_hours=SIM_SMOKE["mttf_hours"])
        config = SimConfig(
            p=SIM_SMOKE["p"],
            fleet_size=SIM_SMOKE["fleet_size"],
            horizon_hours=SIM_SMOKE["horizon_hours"],
            seed=SIM_SMOKE["seed"],
            lifetime=lifetime,
            disk_capacity_elements=int(
                300 * 1024 // 16 * SIM_SMOKE["capacity_factor"]
            ),
            latent_error_rate_per_hour=SIM_SMOKE["latent_rate"],
            scrub_interval_hours=SIM_SMOKE["scrub_interval"],
        )
    else:
        if args.lifetime == "weibull":
            lifetime = WeibullLifetime(scale_hours=args.mttf, shape=args.shape)
        else:
            lifetime = ExponentialLifetime(mttf_hours=args.mttf)
        config = SimConfig(
            p=args.p,
            fleet_size=args.fleet,
            horizon_hours=args.horizon,
            seed=args.seed,
            lifetime=lifetime,
            disk_capacity_elements=int(300 * 1024 // 16 * args.capacity_factor),
            latent_error_rate_per_hour=args.latent_rate,
            scrub_interval_hours=args.scrub_interval or None,
            spares=args.spares,
            repair_streams=args.streams,
        )
    names = (args.code,) if args.code else EVALUATED_CODE_NAMES
    reports = compare_codes(config, code_names=names)

    if args.json:
        rendered = json.dumps(
            {
                "reports": {n: r.to_dict() for n, r in reports.items()},
                "hashes": {n: r.report_hash for n, r in reports.items()},
            },
            indent=2,
            sort_keys=True,
        )
    else:
        lines = [
            f"fleet simulation: {config.fleet_size} arrays/code, "
            f"{config.horizon_hours:g} h horizon, "
            f"{config.lifetime.to_dict()}, seed {config.seed}",
            f"{'code':<10} {'disks':>5} {'losses':>7} {'P(loss)':>8} "
            f"{'Wilson 95%':>17} {'sim MTTDL h':>12} {'Markov h':>10} {'agree':>6}",
        ]
        for name, report in reports.items():
            wilson = report.loss_fraction_wilson
            sim_mttdl = (
                f"{report.mttdl_hours_simulated:>12.0f}"
                if report.mttdl_hours_simulated is not None
                else f"{'>' + format(report.mttdl_hours_ci[0], '.0f'):>12}"
            )
            lines.append(
                f"{name:<10} {report.num_disks:>5} {report.data_losses:>7} "
                f"{report.loss_fraction:>8.3f} "
                f"[{wilson[0]:>7.3f},{wilson[1]:>7.3f}] "
                f"{sim_mttdl} "
                f"{report.cross_validation['mttdl_hours']:>10.0f} "
                f"{'yes' if report.agrees_with_markov else 'NO':>6}"
            )
        lines.append("")
        for name, report in reports.items():
            lines.append(f"report hash {name}: {report.report_hash}")
        rendered = "\n".join(lines)
    _emit(rendered, args.output, f"{len(reports)} simulation report(s)")
    if args.output and not args.json:
        return 0
    if args.output:
        # Keep the determinism fingerprint on stdout even when the full
        # JSON goes to a file — the CI smoke step pins these lines.
        for name, report in reports.items():
            print(f"report hash {name}: {report.report_hash}")
    return 0


def _run_plan_verify(args: argparse.Namespace) -> int:
    """`certify --plans`: symbolic proof of every compiled plan."""
    import json

    from .static import (
        PLAN_VERIFY_PRIMES,
        check_plan_report_pins,
        plan_verification_reports,
    )

    primes = (args.p,) if args.p else PLAN_VERIFY_PRIMES
    names = (args.code,) if args.code else None
    reports = plan_verification_reports(primes=primes, code_names=names)

    failed: list[str] = []
    for report in reports:
        failed.extend(f"{report.key}:{name}" for name in report.failed_claims())

    if args.json:
        rendered = json.dumps(
            {
                "plan_reports": {r.key: r.to_dict() for r in reports},
                "report_hashes": {r.key: r.report_hash for r in reports},
                "failed_claims": failed,
            },
            indent=2,
            sort_keys=True,
        )
    else:
        lines = [
            f"{'code':<12} {'p':>3} {'grid':>7} {'verified':>9} {'claims':>7}",
        ]
        for r in reports:
            claims = "FAILED" if r.failed_claims() else f"{len(r.claims)} ok"
            lines.append(
                f"{r.code:<12} {r.param:>3} {r.rows:>3}x{r.cols:<3} "
                f"{r.patterns_verified:>9} {claims:>7}"
            )
        if failed:
            lines.append("")
            lines.append(f"FAILED claims: {', '.join(failed)}")
        rendered = "\n".join(lines)
    _emit(rendered, args.output, f"{len(reports)} plan report(s)")
    # Determinism fingerprints on stdout either way — CI diffs these
    # lines, mirroring `certify --smoke`.
    for report in reports:
        print(f"plan report hash {report.key}: {report.report_hash}")
    full_set = not args.code and not args.p
    if full_set:
        check_plan_report_pins(reports)  # raises CertificationError
        print(f"{len(reports)} plan report(s) match the pinned hashes")
    if failed:
        print(f"FAILED claims: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def _run_check_pins(args: argparse.Namespace) -> int:
    """`certify --check-pins`: every pin table through one entry point."""
    from .static import (
        check_pins,
        pinned_plan_reports,
        pinned_plans,
        smoke_certificates,
    )

    certs = smoke_certificates()
    plans = list(pinned_plans())
    reports = list(pinned_plan_reports())
    for cert in certs:
        print(f"certificate hash {cert.key}: {cert.certificate_hash}")
    for plan in plans:
        print(f"plan hash {plan.key}: {plan.plan_hash}")
    for report in reports:
        print(f"plan report hash {report.key}: {report.report_hash}")
    check_pins(certs, plans, reports)  # raises CertificationError
    print(
        f"{len(certs)} certificate(s), {len(plans)} plan(s), "
        f"{len(reports)} plan report(s) match the pinned hashes"
    )
    failed = [
        f"{item.key}:{name}"
        for item in (*certs, *reports)
        for name in item.failed_claims()
    ]
    if failed:
        print(f"FAILED claims: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def _run_certify(args: argparse.Namespace) -> int:
    """Static certificates; exits non-zero on any failed claim or pin."""
    import json

    from .static import (
        certify_registry,
        check_pins,
        pinned_plans,
        smoke_certificates,
    )
    from .utils import EVALUATION_PRIMES

    if args.check_pins:
        return _run_check_pins(args)
    if args.plans:
        return _run_plan_verify(args)
    if args.smoke:
        certs = smoke_certificates()
    else:
        primes = (
            EVALUATION_PRIMES if args.all_primes else (args.p or 7,)
        )
        names = (args.code,) if args.code else None
        certs = certify_registry(primes=primes, code_names=names)

    failed: list[str] = []
    for cert in certs:
        failed.extend(f"{cert.key}:{name}" for name in cert.failed_claims())

    if args.json:
        rendered = json.dumps(
            {
                "certificates": {c.key: c.to_dict() for c in certs},
                "hashes": {c.key: c.certificate_hash for c in certs},
                "failed_claims": failed,
            },
            indent=2,
            sort_keys=True,
        )
    else:
        lines = [
            f"{'code':<12} {'p':>3} {'disks':>5} {'MDS':>4} {'chains':>6} "
            f"{'len':>5} {'load':>9} {'avg upd':>8} {'par':>4} {'Lc':>4}",
        ]
        for c in certs:
            load = (
                "balanced" if c.parity_balanced else "uneven"
            )
            length = (
                str(c.uniform_chain_length)
                if c.uniform_chain_length is not None
                else "mixed"
            )
            par = (
                f"{c.double_failure.min_parallelism}"
                if c.double_failure.fully_peelable
                else "n/a"
            )
            rounds = (
                f"{c.double_failure.max_rounds}"
                if c.double_failure.fully_peelable
                else "n/a"
            )
            lines.append(
                f"{c.code:<12} {c.p:>3} {c.cols:>5} "
                f"{'yes' if c.mds.verdict else 'NO':>4} {c.chain_count:>6} "
                f"{length:>5} {load:>9} {c.update_complexity_mean:>8.3f} "
                f"{par:>4} {rounds:>4}"
            )
        if failed:
            lines.append("")
            lines.append(f"FAILED claims: {', '.join(failed)}")
        rendered = "\n".join(lines)
    _emit(rendered, args.output, f"{len(certs)} certificate(s)")
    if args.smoke or args.output:
        # Keep the determinism fingerprints on stdout — the CI smoke
        # step pins these lines, mirroring `sim --smoke`.
        for cert in certs:
            print(f"certificate hash {cert.key}: {cert.certificate_hash}")
    if args.smoke:
        plans = list(pinned_plans())
        for plan in plans:
            print(f"plan hash {plan.key}: {plan.plan_hash}")
        # One unified entry point for both tables (the plan-report
        # table has its own heavier path: `certify --check-pins`).
        check_pins(certs, plans)  # raises CertificationError on drift
        print(
            f"{len(certs)} certificate(s) and {len(plans)} compiled "
            "plan(s) match the pinned hashes"
        )
    if failed:
        print(f"FAILED claims: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def _run_crash_bench(args: argparse.Namespace) -> int:
    """The crash matrix; exits non-zero on an unrecovered scenario."""
    import json

    from .faults.crash_bench import (
        check_smoke_hash,
        render_report,
        run_crash_bench,
    )

    codes = (args.code,) if args.code else None
    payload = run_crash_bench(
        codes,
        args.p,
        element_size=args.element_size,
        cache_stripes=args.cache,
        ops=args.ops,
        seed=args.seed,
        smoke=args.smoke,
    )
    if args.json:
        rendered = json.dumps(payload, indent=2, sort_keys=True)
    else:
        rendered = render_report(payload)
    _emit(rendered, args.output, "crash-bench report")
    if args.output:
        # Keep the determinism fingerprint on stdout — the CI smoke
        # step pins this line, mirroring `sim --smoke`.
        print(f"report hash: {payload['report_hash']}")
    if args.smoke:
        check_smoke_hash(payload)  # raises CertificationError on drift
        print("crash-bench smoke report matches the pinned hash")
    return 0 if payload["all_ok"] else 1


def _run_serve_bench(args: argparse.Namespace) -> int:
    """The serving benchmark; exits non-zero on an oracle mismatch."""
    import json

    from .service.bench import (
        check_smoke_hash,
        render_serve_report,
        run_serve_bench,
    )

    codes = (args.code,) if args.code else None
    payload = run_serve_bench(
        codes,
        args.p,
        num_stripes=args.stripes,
        num_shards=args.shards,
        workers=args.workers,
        ops=args.ops,
        policy=args.policy,
        element_size=args.element_size,
        cache_stripes=args.cache,
        seed=args.seed,
        smoke=args.smoke,
        engine=args.engine,
    )
    if args.json:
        rendered = json.dumps(payload, indent=2, sort_keys=True)
    else:
        rendered = render_serve_report(payload)
    _emit(rendered, args.output, "serve-bench report")
    if args.output:
        # Keep the determinism fingerprint on stdout — the CI smoke
        # step pins this line, mirroring `crash-bench --smoke`.
        print(f"report hash: {payload['report_hash']}")
    if args.smoke:
        check_smoke_hash(payload)  # raises CertificationError on drift
        print("serve-bench smoke report matches the pinned hash")
    return 0 if payload["all_ok"] else 1


def _run_lint(args: argparse.Namespace) -> int:
    """Run the R001-R011 catalogue; exits 1 when violations remain."""
    import json

    from .static import default_lint_target, lint_paths

    paths = args.paths or [default_lint_target()]
    rule_ids = args.rules.split(",") if args.rules else None
    report = lint_paths(paths, rule_ids=rule_ids)
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    elif args.format == "github":
        # GitHub Actions workflow commands: one ::error annotation per
        # violation, rendered inline on the PR diff.
        for v in report.violations:
            message = v.message.replace("\n", " ")
            print(
                f"::error file={v.path},line={v.line},col={v.col + 1},"
                f"title=repro-lint {v.rule}::{message}"
            )
        print(
            f"{report.files_checked} file(s) linted, "
            f"{len(report.violations)} violation(s)"
        )
    else:
        print(report.render())
    return 0 if report.clean else 1


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand.  Invalid input it hands to the library (a
    non-prime ``--p``, an unknown ``--code``, a count out of range) is a
    usage error: one line on stderr and exit 2, as argparse reports one.
    A pinned hash that drifted is a failed check, not a usage error: the
    same one line, exit 1.
    """
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (InvalidParameterError, InvalidSimConfigError, CertificationError) as exc:
        print(f"hvcode-repro {args.command}: error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, CertificationError) else 2


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "layout":
        code = get_code(args.code, args.p)
        print(f"{code.name} (p={code.p}): {code.rows}x{code.cols} stripe, "
              f"{code.data_elements_per_stripe} data elements")
        print(code.describe_layout())
        return 0

    if args.command == "faults":
        return _run_faults(args)

    if args.command == "reliability":
        return _run_reliability(args)

    if args.command == "sim":
        return _run_sim(args)

    if args.command == "certify":
        return _run_certify(args)

    if args.command == "crash-bench":
        return _run_crash_bench(args)

    if args.command == "serve-bench":
        return _run_serve_bench(args)

    if args.command == "lint":
        return _run_lint(args)

    started = time.perf_counter()
    if args.command == "all":
        results = run_all(quick=args.quick)
    else:
        results = run_experiment(
            args.command, quick=args.quick, **_collect_overrides(args)
        )
    rendered = render_results(results, args.format)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(rendered + "\n")
        print(f"wrote {len(results)} table(s) to {args.output}")
    else:
        print(rendered)
        print()
    elapsed = time.perf_counter() - started
    print(f"[{len(results)} table(s) in {elapsed:.1f}s]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
