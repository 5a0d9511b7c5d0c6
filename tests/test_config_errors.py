"""Every message `validate_config` can emit, pinned in text and order.

Each row is one bad config and the exact `ConfigError.errors` list it
yields. A row changes only when the wording or the order of a config
error is changed on purpose.
"""

import json

import pytest

from inferlab import (
    ADVERSARY_IDS,
    COMBINATORS,
    FAMILY_IDS,
    LANGUAGE_IDS,
    LEARNER_IDS,
    RESTRICTION_IDS,
)
from inferlab.evidence import ORDERS
from inferlab.harness import ConfigError, validate_config

_BASE = {"learner": "cofinite", "horizon": 10}

_LEARNERS = "known: " + ", ".join(LEARNER_IDS)
_COMBINATORS = "known: " + ", ".join(sorted(COMBINATORS))
_LANGUAGES = "known: " + ", ".join(LANGUAGE_IDS)
_FAMILIES = "known: " + ", ".join(FAMILY_IDS) + " or '*'"
_ORDERS = "known: " + ", ".join(ORDERS)
_ADVERSARIES = "known: " + ", ".join(ADVERSARY_IDS)
_RESTRICTIONS = "known: " + ", ".join(RESTRICTION_IDS)

ROWS = [
    ("not-json", "learner: cofinite",
     ["config is not valid JSON: Expecting value: line 1 column 1 (char 0)"]),
    ("not-object", "[1]", ["config must be a JSON object"]),
    ("unknown-keys", {**_BASE, "zeta": 1, "horizons": 3},
     ["unknown config key 'horizons'", "unknown config key 'zeta'"]),
    ("missing-learner", {"horizon": 10}, ["missing required key 'learner'"]),
    ("learner-string", {**_BASE, "learner": "zzz"},
     [f"unknown learner 'zzz'; {_LEARNERS}"]),
    ("learner-list", {**_BASE, "learner": ["cofinite"]},
     [f"unknown learner ['cofinite']; {_LEARNERS}"]),
    ("learner-object", {**_BASE, "learner": {"id": "cofinite"}},
     [f"unknown learner {{'id': 'cofinite'}}; {_LEARNERS}"]),
    # a combinators value that is not a list still leaves the bare learner
    # to compose, and the mindchange check sees it
    ("combinators-not-list",
     {**_BASE, "learner": "segment", "combinators": "to_sd",
      "adversaries": [{"id": "mindchange"}]},
     ["combinators must be a list",
      "adversaries[0]: mindchange needs a set-driven opponent; "
      "the pipeline is G"]),
    ("combinators-unknown", {**_BASE, "combinators": ["cons_wmon", "zzz"]},
     [f"unknown combinator 'zzz'; {_COMBINATORS}"]),
    ("combinators-unhashable", {**_BASE, "combinators": [["x"], {"a": 1}]},
     [f"unknown combinator ['x']; {_COMBINATORS}",
      f"unknown combinator {{'a': 1}}; {_COMBINATORS}"]),
    # no pipeline, so no mindchange check either
    ("pipeline-not-compose",
     {**_BASE, "learner": "segment", "combinators": ["dual_wmon_poison"],
      "adversaries": [{"id": "mindchange"}]},
     ["pipeline does not compose: poisoning is defined for set-driven "
      "learners"]),
    ("targets-not-list", {**_BASE, "targets": {"upset": "1|0"}},
     ["targets must be a list"]),
    ("targets-entries",
     {**_BASE, "targets": [5, {"langauge": "finite"}, {},
                           {"language": "finite", "upset": "1|0"},
                           {"upset": "1|"}, {"upset": "1|2"}]},
     ["targets[0]: must be an object",
      "targets[1]: unknown keys ['langauge']",
      "targets[2]: needs exactly one of language/family/upset",
      "targets[3]: needs exactly one of language/family/upset",
      "targets[4]: bad set notation '1|': period must be nonempty",
      "targets[5]: bad set notation '1|2': bit strings over 0/1 expected, "
      "got '1'|'2'"]),
    ("targets-upset-not-string", {**_BASE, "targets": [{"upset": 5}]},
     ["targets[0]: bad set notation 5: P|Q notation must be a string"]),
    ("targets-language",
     {**_BASE, "targets": [{"language": 3},
                           {"language": "finite", "params": []},
                           {"language": "finite",
                            "sweep": {"elements": []}},
                           {"language": "zzz"},
                           {"language": "finite", "params": {"zzz": 1}},
                           {"language": "streamZ",
                            "sweep": {"n": [3], "m": [1]}}]},
     ["targets[0]: language id must be a string",
      "targets[1]: params and sweep must be objects",
      "targets[2]: sweep value for 'elements' must be a non-empty list",
      f"targets[3]: unknown language 'zzz'; {_LANGUAGES}",
      "targets[4]: bad parameters for 'finite': {'zzz': 1}",
      "targets[5]: need n < m, got n=3, m=1"]),
    ("targets-language-fixed-and-swept",
     {**_BASE, "targets": [{"language": "segment", "params": {"n": 2},
                            "sweep": {"n": [3]}}]},
     ["targets[0]: parameter 'n' is both fixed and swept"]),
    ("targets-family",
     {**_BASE, "targets": [{"family": "finite", "count": 0},
                           {"family": "finite", "count": True},
                           {"family": "zzz"}]},
     ["targets[0]: count must be a positive integer",
      "targets[1]: count must be a positive integer",
      f"targets[2]: unknown family 'zzz'; {_FAMILIES}"]),
    # a key that only another kind of target takes
    ("targets-upset-count",
     {**_BASE, "targets": [{"upset": "|1", "count": 3}]},
     ["targets[0]: key 'count' belongs to family targets, not upset"]),
    ("targets-family-params",
     {**_BASE, "targets": [{"family": "finite", "params": {"x": 1}}]},
     ["targets[0]: key 'params' belongs to language targets, not family"]),
    ("targets-upset-sweep",
     {**_BASE, "targets": [{"upset": "|1", "sweep": {"n": [1]}}]},
     ["targets[0]: key 'sweep' belongs to language targets, not upset"]),
    ("targets-language-count",
     {**_BASE, "targets": [{"language": "segment", "params": {"n": 2},
                            "count": 5}]},
     ["targets[0]: key 'count' belongs to family targets, not language"]),
    ("schedules-not-list", {**_BASE, "schedules": "canonical"},
     ["schedules must be a list"]),
    ("schedules-entries",
     {**_BASE, "schedules": [3, {"ordr": "canonical"}, {"order": "x"},
                             {"order": "shuffled"},
                             {"order": "shuffled", "seed": True},
                             {"order": "canonical", "seed": 1},
                             {"plan": [-1]}, {"plan": 3}]},
     ["schedules[0]: must be an object",
      "schedules[1]: unknown keys ['ordr']",
      f"schedules[2]: unknown order 'x'; {_ORDERS}",
      "schedules[3]: shuffled order requires an explicit integer seed",
      "schedules[4]: shuffled order requires an explicit integer seed",
      "schedules[5]: seed is only meaningful for shuffled order",
      "schedules[6]: plan must be a list of naturals",
      "schedules[7]: plan must be a list of naturals"]),
    ("adversaries-not-list", {**_BASE, "adversaries": {"id": "caut_tar"}},
     ["adversaries must be a list"]),
    ("adversaries-entries",
     {**_BASE, "learner": "segment",
      "adversaries": [5, {"id": "caut_tar", "round": 3}, {"rounds": 1},
                      {"id": "zzz"}, {"id": "caut_tar", "n_search": 0},
                      {"id": "caut_tar", "t_bound": 1.5},
                      {"id": "mindchange"}]},
     ["adversaries[0]: must be an object",
      "adversaries[1]: unknown keys ['round']",
      f"adversaries[2]: unknown adversary None; {_ADVERSARIES}",
      f"adversaries[3]: unknown adversary 'zzz'; {_ADVERSARIES}",
      "adversaries[4]: n_search must be a positive integer, got 0",
      "adversaries[5]: t_bound must be a positive integer, got 1.5",
      "adversaries[6]: mindchange needs a set-driven opponent; "
      "the pipeline is G"]),
    ("horizon-missing", {"learner": "cofinite"},
     ["horizon must be an integer >= 1"]),
    ("horizon-zero", {**_BASE, "horizon": 0},
     ["horizon must be an integer >= 1"]),
    ("horizon-bool", {**_BASE, "horizon": True},
     ["horizon must be an integer >= 1"]),
    ("restrictions-not-list", {**_BASE, "restrictions": "bc"},
     ["restrictions must be a list"]),
    ("restrictions-unknown",
     {**_BASE, "restrictions": ["bc", "sideways", "bc", ["x"]]},
     [f"unknown restriction 'sideways'; {_RESTRICTIONS}",
      f"unknown restriction ['x']; {_RESTRICTIONS}"]),
    ("expect", {**_BASE, "expect": "maybe"},
     ["expect must be one of satisfied/witness"]),
    ("output", {**_BASE, "output": 5}, ["output must be a path string"]),
    ("seed", {**_BASE, "seed": "x"}, ["unknown config key 'seed'"]),
    # one error from each key, in the order the keys are resolved
    ("several",
     {"zeta": 1, "learner": "zzz", "combinators": 5,
      "targets": [{"upset": "1|"}], "schedules": [{"order": "shuffled"}],
      "horizon": 0, "restrictions": ["sideways"],
      "adversaries": [{"id": "zzz"}], "expect": "maybe", "output": []},
     ["unknown config key 'zeta'",
      f"unknown learner 'zzz'; {_LEARNERS}",
      "combinators must be a list",
      "targets[0]: bad set notation '1|': period must be nonempty",
      "schedules[0]: shuffled order requires an explicit integer seed",
      "horizon must be an integer >= 1",
      f"unknown restriction 'sideways'; {_RESTRICTIONS}",
      f"adversaries[0]: unknown adversary 'zzz'; {_ADVERSARIES}",
      "expect must be one of satisfied/witness",
      "output must be a path string"]),
]


@pytest.mark.parametrize("config, errors", [row[1:] for row in ROWS],
                         ids=[row[0] for row in ROWS])
def test_config_errors_are_pinned(config, errors):
    text = config if isinstance(config, str) else json.dumps(config)
    with pytest.raises(ConfigError) as info:
        validate_config(text)
    assert info.value.errors == errors
