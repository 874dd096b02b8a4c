"""Cross-commit byte identity of the market's reports.

CI's ``cmp`` legs compare two runs of the *same* commit (serial vs
``--jobs 2``, a flag off vs absent), so they cannot see a refactor
that moves every run the same way.  These digests were recorded at
PR 15's commit, before the unanimity engine moved behind
``DealDriver`` and the coordinator→shard payloads were folded; any
change to envelope order, event labels, heap order or report layout
shows up here as a mismatch against that commit.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.market import MarketConfig, open_market
from repro.sim.chaos import ChaosPlan
from repro.workloads.market import MarketProfile, MarketWorkload

# name -> (profile, MarketConfig kwargs, fingerprint, sha256(render())).
GOLDEN = {
    "smoke": (
        MarketProfile.smoke(), {},
        "57fe17e01708977251f4913fc981b70c",
        "c3a73a0f16ff39d15c0a165eb77cc90db77468eb11cbe1471a9c0bf3620c4f72",
    ),
    "mixed_smoke": (
        MarketProfile.mixed_smoke(), {},
        "941339cec9450183ea71cbcdc5fab2db",
        "75ea9a9bad03acd717ddea6c1bf5f006114aa98c8e2426fdab4cbf840989760c",
    ),
    "sharded_smoke": (
        MarketProfile.sharded_smoke(shards=2), {},
        "1a7bf835a6514a5f93083059d7303c11",
        "e36c1f43e9e6a69aa7397354be491d4e1125991bac583ffa60ac6cd70c79ebae",
    ),
    "congested_base_fee": (
        MarketProfile.congested_smoke(), {"seal_policy": "base_fee"},
        "b4fae2dd0e48914cf359abe5a4f92c90",
        "8ab1aa16ee50996401eed7260f7096dc4d9fbf3fad48f78c37f3413666771e97",
    ),
    "sharded_replicated_chaos": (
        MarketProfile.sharded_smoke(shards=2),
        {"replication_factor": 3, "chaos": ChaosPlan.at(0.05)},
        "b7e93cd7ba898c9589a064f273a9fd58",
        "a2c9cd587871cebd39b0936598c4fb8b2b67cb551544f92d82855534ad160b9c",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_bytes_match_the_recorded_commit(name):
    profile, config, fingerprint, render_sha256 = GOLDEN[name]
    report = open_market(MarketWorkload(profile), MarketConfig(**config)).run()
    assert report.fingerprint() == fingerprint
    assert hashlib.sha256(report.render().encode()).hexdigest() == render_sha256
