"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main

#: ``faults --p 5 --seed 0 --scenarios 3 --stripes 2``, verbatim.
SEEDED_FAULTS_TABLE = """\
fault scenarios: p=5, seeds 0..2, 1 crash(es) + 1 URE(s) + 1 flip(s) per scenario
code        survived  rebuild s  repair reads
RDP           3/3        1.1170          36.7
HDP           2/3        1.1197          20.0
X-Code        3/3        1.3983          31.0
H-Code        3/3        1.1193          35.7
HV            3/3        1.1203          17.7
"""


class TestParser:
    def test_all_experiments_registered(self):
        parser = build_parser()
        for name in ("fig6", "fig7", "fig9a", "fig9b", "table3", "all", "layout"):
            args = parser.parse_args([name] if name != "layout" else ["layout"])
            assert args.command == name

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig42"])


class TestMain:
    def test_table3_quick(self, capsys):
        assert main(["table3", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Table III" in out
        assert "HV" in out

    def test_fig9b_quick(self, capsys):
        assert main(["fig9b", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 9(b)" in out

    def test_layout_hv(self, capsys):
        assert main(["layout", "--code", "HV", "--p", "7"]) == 0
        out = capsys.readouterr().out
        assert "HV (p=7)" in out
        assert "H" in out and "V" in out

    def test_layout_other_code(self, capsys):
        assert main(["layout", "--code", "rdp", "--p", "5"]) == 0
        assert "RDP" in capsys.readouterr().out

    def test_p_override(self, capsys):
        assert main(["table3", "--p", "5"]) == 0
        assert "p=5" in capsys.readouterr().out


class TestReliabilityCommand:
    def test_parser_registered(self):
        args = build_parser().parse_args(["reliability", "--p", "7"])
        assert args.command == "reliability"
        assert args.p == 7
        assert not args.sector

    def test_table(self, capsys):
        assert main(["reliability", "--p", "5"]) == 0
        out = capsys.readouterr().out
        assert "MTTDL from measured recovery behaviour" in out
        for name in ("HV", "RDP", "X-Code"):
            assert name in out

    def test_sector_extension_adds_columns(self, capsys):
        assert main(["reliability", "--p", "5", "--sector"]) == 0
        out = capsys.readouterr().out
        assert "P(URE)" in out
        assert "penalty" in out

    def test_json(self, capsys):
        import json

        assert main(["reliability", "--p", "5", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["p"] == 5
        assert payload["codes"]["HV"]["mttdl_hours"] > 0

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "reliability.txt"
        assert main(
            ["reliability", "--p", "5", "--output", str(target)]
        ) == 0
        assert "wrote reliability table" in capsys.readouterr().out
        assert "HV" in target.read_text()


SIM_QUICK = [
    "sim", "--code", "HV", "--p", "5", "--fleet", "5",
    "--horizon", "2000", "--mttf", "600", "--seed", "1",
]


class TestSimCommand:
    def test_parser_registered(self):
        args = build_parser().parse_args(["sim", "--smoke"])
        assert args.command == "sim"
        assert args.smoke
        assert args.lifetime == "exponential"

    def test_single_code_table(self, capsys):
        assert main(SIM_QUICK) == 0
        out = capsys.readouterr().out
        assert "fleet simulation" in out
        assert "HV" in out
        assert "report hash HV:" in out

    def test_json_payload(self, capsys):
        import json

        assert main(SIM_QUICK + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        report = payload["reports"]["HV"]
        assert report["config"]["seed"] == 1
        sha = payload["hashes"]["HV"]
        assert len(sha) == 64 and set(sha) <= set("0123456789abcdef")

    def test_same_seed_same_hash(self, capsys):
        assert main(SIM_QUICK) == 0
        first = capsys.readouterr().out
        assert main(SIM_QUICK) == 0
        second = capsys.readouterr().out
        line = next(l for l in first.splitlines() if l.startswith("report hash"))
        assert line in second

    def test_weibull_lifetime(self, capsys):
        assert main(SIM_QUICK + ["--lifetime", "weibull", "--shape", "0.8"]) == 0
        assert "weibull" in capsys.readouterr().out

    def test_output_file_still_prints_hashes(self, capsys, tmp_path):
        target = tmp_path / "sim.json"
        assert main(SIM_QUICK + ["--json", "--output", str(target)]) == 0
        out = capsys.readouterr().out
        assert "report hash HV:" in out
        assert target.exists()

    def test_invalid_config_is_a_clean_error(self, capsys):
        assert main(["sim", "--code", "HV", "--p", "4", "--fleet", "1"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("hvcode-repro sim: error: ")

    @pytest.mark.parametrize("code", ["EVENODD", "Liberation", "Cauchy-RS"])
    def test_every_registered_code_is_priced(self, capsys, code):
        # Peeling alone cannot repair some of these codes' disk pairs;
        # the compiler solves them by elimination, so each has a price.
        assert main(["sim", "--code", code, "--p", "5", "--fleet", "1"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert f"report hash {code}: " in captured.out

    @pytest.mark.parametrize("code, reason", [("NOPE", "unknown code 'NOPE'")])
    def test_unpriceable_code_is_a_usage_error(self, capsys, code, reason):
        # No code at all is refused in one line with exit 2, as
        # `faults` does.
        assert main(["sim", "--code", code, "--p", "5", "--fleet", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("hvcode-repro sim: error: ")
        assert reason in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["layout", "--p", "4"],
        ["table3", "--p", "4", "--quick"],
        ["reliability", "--p", "4"],
        ["crash-bench", "--p", "4"],
        ["serve-bench", "--shards", "0"],
        ["certify", "--code", "NOPE"],
        ["faults", "--scenarios", "0"],
        ["faults", "--scenarios", "-1"],
    ],
    ids=" ".join,
)
def test_usage_error_is_one_line_and_exit_2(capsys, argv):
    # Invalid input any subcommand hands to the library is refused the
    # way argparse refuses a bad flag: no traceback, no partial output.
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"hvcode-repro {argv[0]}: error: ")
    assert "Traceback" not in captured.err


class TestFaultsCommand:
    def test_parser_registered(self):
        args = build_parser().parse_args(["faults", "--seed", "9"])
        assert args.command == "faults"
        assert args.seed == 9
        assert args.scenarios == 5

    def test_single_code_text(self, capsys):
        assert main(
            ["faults", "--code", "HV", "--p", "5", "--scenarios", "1",
             "--stripes", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "fault scenarios" in out
        assert "HV" in out
        assert "1/1" in out

    def test_json_format(self, capsys):
        import json

        assert main(
            ["faults", "--code", "HV", "--p", "5", "--scenarios", "1",
             "--stripes", "2", "--format", "json"]
        ) == 0
        table = json.loads(capsys.readouterr().out)
        assert table["HV"]["survival_rate"] == 1.0

    def test_two_crashes_with_sector_faults_is_a_usage_error(self, capsys):
        # The default mix carries a URE and a flip; two crashes on top
        # exceed RAID-6, and the plan's refusal is one line, exit 2.
        assert main(
            ["faults", "--code", "HV", "--p", "5", "--scenarios", "1",
             "--crashes", "2"]
        ) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "2 crashes plus sector faults exceed RAID-6" in captured.err

    def test_two_crashes_alone_run(self, capsys):
        assert main(
            ["faults", "--code", "HV", "--p", "5", "--scenarios", "1",
             "--stripes", "2", "--crashes", "2", "--latent", "0",
             "--flips", "0"]
        ) == 0
        assert "2 crash(es)" in capsys.readouterr().out

    def test_seeded_table_is_pinned(self, capsys):
        # Every column, repair pricing included: a change in what a
        # scrub, degraded read or rebuild reads shows here.
        assert main(
            ["faults", "--p", "5", "--seed", "0", "--scenarios", "3",
             "--stripes", "2"]
        ) == 0
        assert capsys.readouterr().out == SEEDED_FAULTS_TABLE

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "faults.txt"
        assert main(
            ["faults", "--code", "HV", "--p", "5", "--scenarios", "1",
             "--stripes", "2", "--output", str(target)]
        ) == 0
        assert "wrote fault-scenario results" in capsys.readouterr().out
        assert "HV" in target.read_text()


class TestCertifyCommand:
    def test_parser_registered(self):
        args = build_parser().parse_args(["certify", "--p", "7"])
        assert args.command == "certify"
        assert args.p == 7
        assert not args.smoke

    def test_single_code_table(self, capsys):
        assert main(["certify", "--code", "HV", "--p", "5"]) == 0
        out = capsys.readouterr().out
        assert "HV" in out
        assert "yes" in out  # the MDS column

    def test_smoke_matches_pins(self, capsys):
        assert main(["certify", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "certificate hash HV@5:" in out
        assert "match the pinned hashes" in out

    def test_smoke_hashes_are_deterministic(self, capsys):
        assert main(["certify", "--smoke"]) == 0
        first = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("certificate hash")
        ]
        assert main(["certify", "--smoke"]) == 0
        second = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("certificate hash")
        ]
        assert first == second and first

    def test_json_payload(self, capsys):
        import json

        assert main(["certify", "--code", "HV", "--p", "5", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        cert = payload["certificates"]["HV@5"]
        assert cert["claims"]["four_parallel_recovery_chains"] is True
        assert payload["failed_claims"] == []

    def test_output_file_still_prints_hashes(self, capsys, tmp_path):
        target = tmp_path / "certs.json"
        assert main(
            ["certify", "--code", "HV", "--p", "5", "--json",
             "--output", str(target)]
        ) == 0
        out = capsys.readouterr().out
        assert "certificate hash HV@5:" in out
        assert "HV@5" in target.read_text()


class TestLintCommand:
    def test_parser_registered(self):
        args = build_parser().parse_args(["lint"])
        assert args.command == "lint"
        assert args.paths == []

    def test_package_is_clean(self, capsys):
        assert main(["lint"]) == 0
        assert "no violations" in capsys.readouterr().out

    def test_violations_exit_nonzero(self, capsys, tmp_path):
        dirty = tmp_path / "dirty.py"
        dirty.write_text(
            "import numpy as np\n\nrng = np.random.default_rng()\n"
        )
        assert main(["lint", str(dirty)]) == 1
        out = capsys.readouterr().out
        assert "R001" in out

    def test_rule_filter(self, capsys, tmp_path):
        dirty = tmp_path / "dirty.py"
        dirty.write_text(
            "import numpy as np\n\nrng = np.random.default_rng()\n"
        )
        assert main(["lint", str(dirty), "--rules", "R004"]) == 0

    def test_json_format(self, capsys, tmp_path):
        import json

        dirty = tmp_path / "dirty.py"
        dirty.write_text("def f(x=[]):\n    return x\n")
        assert main(["lint", str(dirty), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["violations"][0]["rule"] == "R004"


class TestServeBenchCommand:
    def test_parser_registered(self):
        args = build_parser().parse_args(["serve-bench", "--smoke"])
        assert args.command == "serve-bench"
        assert args.smoke
        assert args.shards == 4
        assert args.workers == 4
        assert args.policy == "range"

    def test_engine_flag_offers_engine_choices(self, capsys):
        """``--engine`` offers ``ENGINE_CHOICES`` itself, not a second
        list, and the removed backend and its flag are usage errors."""
        from repro.engine import ENGINE_CHOICES

        (serve,) = (
            action.choices["serve-bench"]
            for action in build_parser()._actions
            if isinstance(action.choices, dict)
        )
        (engine,) = (a for a in serve._actions if a.dest == "engine")
        assert engine.choices is ENGINE_CHOICES
        for argv in (["--engine", "parallel"], ["--affinity"]):
            with pytest.raises(SystemExit) as excinfo:
                build_parser().parse_args(["serve-bench", *argv])
            assert excinfo.value.code == 2
            capsys.readouterr()

    def test_small_run_json_output(self, capsys, tmp_path):
        import json

        target = tmp_path / "serve.json"
        assert main(
            [
                "serve-bench", "--code", "HV", "--ops", "300",
                "--stripes", "8", "--shards", "2", "--workers", "2",
                "--element-size", "64", "--cache", "2",
                "--json", "--output", str(target),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "report hash:" in out
        payload = json.loads(target.read_text())
        assert payload["all_ok"] is True
        (entry,) = payload["codes"]
        assert entry["deterministic"]["code"] == "HV"
        assert entry["deterministic"]["oracle_match"] is True
        assert entry["deterministic"]["rebuild_matches_healthy"] is True

    def test_smoke_matches_pin(self, capsys):
        from repro.service.bench import SERVE_SMOKE_HASH

        assert main(["serve-bench", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "matches the pinned hash" in out
        assert SERVE_SMOKE_HASH[:16] in out
