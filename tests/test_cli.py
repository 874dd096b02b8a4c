"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_run_broker_timelock(capsys):
    assert main(["run", "--workload", "broker", "--protocol", "timelock"]) == 0
    out = capsys.readouterr().out
    assert "all committed" in out
    assert "safety (P1)     : True" in out
    assert "Gas by phase" in out


def test_run_ring_cbc(capsys):
    assert main(["run", "--workload", "ring", "--n", "3", "--protocol", "cbc"]) == 0
    out = capsys.readouterr().out
    assert "all committed" in out


def test_run_auction(capsys):
    assert main(["run", "--workload", "auction"]) == 0


def test_run_pow(capsys):
    assert main(["run", "--workload", "broker", "--protocol", "cbc-pow"]) == 0


def test_run_batch_votes(capsys):
    assert main(["run", "--workload", "ring", "--n", "4", "--batch-votes"]) == 0


def test_run_random_workload(capsys):
    assert main(["run", "--workload", "random", "--n", "3", "--seed", "5"]) == 0


def test_gauntlet_small(capsys):
    assert main(["gauntlet", "--deals", "1"]) == 0
    out = capsys.readouterr().out
    # 2 protocols x 1 deal x 3 deviator roles x 10 strategies.
    assert "60 adversarial cases, 0 violations" in out


def test_attack_sweep(capsys):
    assert main(["attack", "--alpha", "0.2", "--depths", "0", "2", "--trials", "50"]) == 0
    out = capsys.readouterr().out
    assert "success rate" in out


def test_parser_rejects_unknown_workload():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "--workload", "nonsense"])


def test_parser_requires_command():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args([])
