"""Chaos-campaign skeleton: shared torture phase and its torn-read gate."""

import json

import pytest

from repro.cli import main
from repro.evaluation import chaos
from repro.evaluation.chaos import crash_write_torture
from repro.store import ArtifactStore


@pytest.mark.timeout(20)
def test_crash_write_torture_clamps_to_distinct_offsets(tmp_path):
    # A 2-byte payload has only 4 distinct kill offsets (0..3); asking
    # for 16 must run those 4 plus the final clean write, not spin.
    assert crash_write_torture(ArtifactStore(tmp_path), "y", b"ab",
                               16) == (5, 0)


#: One small passing run per campaign (the CLI gates of the test suite).
CAMPAIGNS = {
    "fleet": ["fleet-chaos", "--small", "--jobs", "8", "--nodes", "3",
              "--trials", "1", "--seed", "5", "--crash-trials", "4"],
    "serve": ["serve-chaos", "--small", "--seed", "5", "--trials", "1",
              "--streams", "2", "--ticks", "100", "--crash-trials", "2"],
    "soak": ["soak", "--small", "--breakpoints", "4", "--kernels", "1",
             "--crash-trials", "2"],
}


@pytest.mark.timeout(300)
@pytest.mark.parametrize("campaign", sorted(CAMPAIGNS))
def test_torn_reads_fail_every_campaign(campaign, monkeypatch, tmp_path,
                                        capsys):
    monkeypatch.setattr(chaos, "crash_write_torture",
                        lambda store, name, payload, trials, seed=0:
                        (trials + 1, 2))
    export = tmp_path / "result.json"
    argv = CAMPAIGNS[campaign] + ["--store", str(tmp_path / "store"),
                                  "--export", str(export)]
    if campaign == "soak":
        argv += ["--cache", str(tmp_path / "cache")]
    assert main(argv) == 1
    payload = json.loads(export.read_text())
    assert payload["passed"] is False
    assert payload["crash_torn_reads"] == 2
    assert payload["violations"] == [
        f"crash-write torture observed 2 torn reads in "
        f"{payload['crash_trials']} kills"]
    assert "INVARIANT VIOLATIONS" in capsys.readouterr().out
