"""End-to-end runs of the command line, one per exit-code contract case."""

import json
import subprocess
import sys

import pytest

from inferlab.cli import main
from inferlab.harness import parse_report

_BASE = {
    "learner": "cofinite",
    "targets": [{"language": "cofinite", "params": {"remove": [1]}}],
    "horizon": 10,
    "restrictions": ["bc", "mon", "caut_tar"],
}


def run_cli(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "inferlab.cli", *args],
        capture_output=True, text=True, timeout=120, env=env,
    )


def write_config(tmp_path, **overrides):
    cfg = dict(_BASE)
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_check_exit_zero_when_all_satisfied(tmp_path):
    path = write_config(tmp_path, combinators=["cons_wmon"],
                        restrictions=["cons", "wmon", "bc"])
    proc = run_cli("check", path)
    assert proc.returncode == 0
    assert "outcome: all satisfied" in proc.stdout


def test_check_exit_one_on_violation_and_expect_flips_it(tmp_path):
    proc = run_cli("check", write_config(tmp_path))
    assert proc.returncode == 1
    assert "VIOLATED" in proc.stdout
    flipped = run_cli("check", write_config(tmp_path, expect="witness"))
    assert flipped.returncode == 0


def test_check_exit_two_when_a_bool_stands_for_a_natural(tmp_path):
    path = write_config(tmp_path, targets=[
        {"language": "finite", "params": {"elements": [True]}}])
    proc = run_cli("check", path)
    assert proc.returncode == 2
    assert "config error: targets[0]: elements must be a natural" \
        in proc.stderr
    assert "Traceback" not in proc.stderr


def test_check_exit_two_on_bad_config(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    proc = run_cli("check", str(path))
    assert proc.returncode == 2
    assert "config error" in proc.stderr

    several = write_config(tmp_path, learner="zzz", horizon=0)
    proc = run_cli("check", several)
    assert proc.returncode == 2
    assert proc.stderr.count("config error:") == 2

    missing = run_cli("check", str(tmp_path / "absent.json"))
    assert missing.returncode == 2


def test_check_exit_two_on_a_top_level_seed(tmp_path):
    proc = run_cli("check", write_config(tmp_path, seed=0))
    assert proc.returncode == 2
    assert proc.stderr == "config error: unknown config key 'seed'\n"


def test_check_exit_two_on_undecodable_config(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"learner": "caf\xe9"}')
    proc = run_cli("check", str(path))
    assert proc.returncode == 2
    assert "config error" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_check_exit_two_on_unwritable_output(tmp_path):
    out = tmp_path / "no-such-dir" / "report.json"
    proc = run_cli("check", write_config(tmp_path), "--output", str(out))
    assert proc.returncode == 2
    assert "output error" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("cfg", [
    {**_BASE, "combinators": [["x"]]},
    {**_BASE, "combinators": [{"a": 1}]},
    {"learner": "fin_pos", "horizon": 1,
     "adversaries": [{"id": "caut_tar", "n_search": 1.5}]},
    {"learner": "fin_pos", "horizon": 1,
     "adversaries": [{"id": "caut_tar", "rounds": True}]},
], ids=("list-combinator", "object-combinator", "float-bound", "bool-bound"))
def test_check_exit_two_on_values_of_the_wrong_type(tmp_path, cfg):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    proc = run_cli("check", str(path))
    assert proc.returncode == 2
    assert "config error:" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_check_machine_output_file(tmp_path):
    out = tmp_path / "report.json"
    path = write_config(tmp_path, expect="witness")
    first = run_cli("check", path, "--mode", "machine",
                    "--output", str(out))
    assert first.returncode == 0
    blob = out.read_text()
    report = parse_report(blob)
    assert report.pipeline == ("cofinite",)
    run_cli("check", path, "--mode", "machine", "--output", str(out))
    assert out.read_text() == blob  # byte-identical rerun


def test_adversary_command_exit_codes():
    won = run_cli("adversary", "caut_tar", "--opponent", "cofinite")
    assert won.returncode == 0
    assert "verified" in won.stdout
    assert won.stdout.startswith("caut_tar vs cofinite: restriction-violation")

    unexpected = run_cli("adversary", "caut_tar", "--opponent", "cofinite",
                         "--expect", "exhausted")
    assert unexpected.returncode == 1

    empty = run_cli("adversary", "caut_tar", "--opponent", "fin_pos",
                    "--expect", "exhausted")
    assert empty.returncode == 0
    assert "exhausted" in empty.stdout

    wrong_mode = run_cli("adversary", "mindchange", "--opponent", "segment")
    assert wrong_mode.returncode == 2
    assert "config error" in wrong_mode.stderr

    unknown = run_cli("adversary", "sideways", "--opponent", "cofinite")
    assert unknown.returncode == 2


@pytest.mark.parametrize("flag", ["--n-search", "--t-bound", "--rounds"])
def test_adversary_bounds_are_ascii_decimal_digits(flag, capsys):
    """The game's bounds follow the rule `algebra member` applies: ASCII
    decimal digits, so a sign, a space, an underscore or another script's
    digits exit 2 with argparse's message and no traceback."""
    game = ["adversary", "caut_tar", "--opponent", "cofinite", flag]
    assert main([*game, "10"]) == 0
    capsys.readouterr()
    for text in (" 10", "+10", "1_0", "\u0661\u0660"):
        with pytest.raises(SystemExit) as exit_:
            main([*game, text])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith(f"error: argument {flag}: invalid natural"
                            f" value: {text!r}\n")
        assert "Traceback" not in err


def test_adversary_refuses_a_wrong_mode_opponent():
    """The CLI checks the opponent's mode before the game, by the rule a
    config's adversaries are checked with, and says so as a config error."""
    proc = run_cli("adversary", "mindchange", "--opponent", "segment")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == ("config error: mindchange needs a set-driven"
                           " opponent; the pipeline is G\n")


def test_algebra_command():
    assert run_cli("algebra", "relate", "|10", "|1").stdout.strip() == \
        "proper_subset"
    assert run_cli("algebra", "union", "10|1", "1|0").stdout.strip() == "10|1"
    assert run_cli("algebra", "complement", "|10").stdout.strip() == "|01"
    assert run_cli("algebra", "member", "|10", "4").stdout.strip() == "yes"
    bad = run_cli("algebra", "relate", "1|", "|1")
    assert bad.returncode == 2
    assert "algebra error" in bad.stderr
    for args, message in (
            (("relate", "|1"), "relate takes 2 operands, got 1"),
            (("complement", "|1", "|0"), "complement takes 1 operand, got 2"),
            (("member", "|1"), "member takes 2 operands, got 1"),
            *((("member", "|10", text),
               f"member takes a natural in decimal digits, got {text!r}")
              for text in ("4_0", "+4", " 4", "\u0664", "-0", "0x4"))):
        proc = run_cli("algebra", *args)
        assert proc.returncode == 2
        assert proc.stderr == f"algebra error: {message}\n"


def test_demo_command():
    proc = run_cli("demo")
    assert proc.returncode == 0
    assert "12/12 scenarios hold" in proc.stdout


def test_report_depends_on_its_config_alone(tmp_path):
    """Neither the retired INFERLAB_SEED nor the hash seed changes a byte."""
    import os
    path = write_config(tmp_path, expect="witness",
                        targets=[{"family": "*", "count": 2}],
                        schedules=[{"order": "shuffled", "seed": 3}],
                        adversaries=[{"id": "caut_tar"}])
    plain = run_cli("check", path, "--mode", "machine")
    others = [run_cli("check", path, "--mode", "machine",
                      env=dict(os.environ, **extra))
              for extra in ({"INFERLAB_SEED": "9"}, {"PYTHONHASHSEED": "0"},
                            {"PYTHONHASHSEED": "12345"})]
    assert plain.returncode == 0
    assert [(p.returncode, p.stdout) for p in others] == \
        [(0, plain.stdout)] * 3
    report = parse_report(plain.stdout)
    assert report.fingerprint.schedule_seeds == (3,)
    assert len({r.language for r in report.rows}) > 2 and report.adversaries
