"""Golden digests of byte-stable reports.

Every campaign family at a small size, and two stats payloads, pinned by the
SHA-256 of its serialized form.  A change to any realization, aggregation or
serialization shows up here as a digest mismatch, so a refactor or speedup
that passes this file has left every report unchanged.
"""

import hashlib
import json

import pytest

from arrowwalk import (
    FAMILIES,
    CampaignConfig,
    CookieEnvironment,
    cookie_env,
    run_campaign,
    speed_and_recurrence_stats,
)

CAMPAIGN_DIGESTS = {
    "shared-uniform": "b01f506c7e480b497552d528831698805d7d9816514e1bbe3a11261f2798e72f",
    "block-family": "9eb875bd724b7db220d44755383213a425e5aa85db37adec567fe9481b6b1520",
    "swap-chain": "ecc52fd0d9699ec0baf02152321c8d153ba0e2776d6cc5e2d5b83acda8c2d9e0",
    "envelope": "67720a31e3c90b03003b01e0799f542ba893446d8f6146e7e44509dede5c4c4d",
    "ce1": "ac6a1ac1441461bccab08fab04d78abcfa97822cec1a912a9ba44cf3f6b7e538",
    "ce2": "f97664ba146b3045c3826400ef16bc77be1e9776dcc0f2a3ff92ec9116f4f562",
    "independent-control": "6d6cb2e7f86ccc7a7048424b0e1cbb870538474189372d8dc3ef20b240e85168",
}

STATS_DIGEST = "a99080e940628e43e9a588d4d90ed46b56543930d8fc99b154bdb576bb4af210"

# Listed sites on both sides of the origin, a default and a tail: the stats
# walk reads `env.prob` per step here, not the homogeneous shortcut.
LISTED_STATS_DIGEST = "59806fcee25f98d8f12a9750a6ddc82da987d8e1fc3e15ee4d197361292f97ed"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_every_family_is_pinned():
    assert set(CAMPAIGN_DIGESTS) == set(FAMILIES)


@pytest.mark.parametrize("family", FAMILIES)
def test_campaign_report_digest(family):
    config = CampaignConfig(family, trials=3, horizon=1000, seed=7, include_timestamp=False)
    assert sha256(run_campaign(config).to_json()) == CAMPAIGN_DIGESTS[family]


def test_stats_payload_digest():
    payload = speed_and_recurrence_stats(cookie_env((0.9, 0.9)), trials=3, horizon=2000, seed=7, after=100)
    assert sha256(json.dumps(payload, sort_keys=True, indent=2) + "\n") == STATS_DIGEST


def test_listed_site_stats_payload_digest():
    env = CookieEnvironment({-3: (0.2, 0.9), 5: (0.1,)}, (0.55,), 0.5)
    payload = speed_and_recurrence_stats(env, trials=2, horizon=3000, seed=7, after=100)
    assert sha256(json.dumps(payload, sort_keys=True, indent=2) + "\n") == LISTED_STATS_DIGEST
