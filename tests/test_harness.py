"""Config validation, experiment runs, report rendering and round-trips."""

import json
import typing
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inferlab.harness import (
    _SCHEMA,
    _json_text,
    AdversaryRow,
    CheckRow,
    ConfigError,
    Fingerprint,
    Report,
    Schedule,
    demo_scenarios,
    exit_code,
    parse_report,
    render_report,
    report_to_dict,
    run_experiment,
    validate_config,
    witness_found,
)
from inferlab.upset import parse


def _config(**overrides) -> str:
    base = {
        "learner": "cofinite",
        "targets": [{"language": "cofinite", "params": {"remove": [1]}}],
        "horizon": 10,
        "restrictions": ["bc", "mon", "caut_tar"],
    }
    base.update(overrides)
    return json.dumps(base)


def test_minimal_config_is_valid():
    cfg = validate_config(_config())
    assert cfg.learner_id == "cofinite"
    assert cfg.combinator_ids == ()
    assert [t.upset for t in cfg.targets] == [parse("10|1")]
    assert cfg.schedules == (Schedule("canonical"),)
    assert cfg.restrictions == ("bc", "mon", "caut_tar")
    assert cfg.expect == "satisfied"


def test_readme_config_example_validates_and_uses_every_key():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Config format", 1)[1]
    example = section.split("```json\n", 1)[1].split("```", 1)[0]
    validate_config(example)
    assert json.loads(example).keys() == _SCHEMA.keys()


def test_unknown_learner_named_in_error():
    with pytest.raises(ConfigError, match="unknown learner 'zzz'"):
        validate_config(_config(learner="zzz"))


def test_empty_period_notation_rejected():
    with pytest.raises(ConfigError, match="period must be nonempty"):
        validate_config(_config(targets=[{"upset": "1|"}]))


def test_all_errors_collected():
    bad = json.dumps({
        "learner": "zzz",
        "targets": [{"upset": "1|"}],
        "schedules": [{"order": "shuffled"}],
        "horizon": 0,
        "restrictions": ["bc", "sideways"],
        "horizons": 3,
    })
    with pytest.raises(ConfigError) as info:
        validate_config(bad)
    text = "\n".join(info.value.errors)
    assert len(info.value.errors) == 6
    for fragment in ("unknown learner", "period must be nonempty",
                     "explicit integer seed", "horizon must be",
                     "unknown restriction 'sideways'",
                     "unknown config key 'horizons'"):
        assert fragment in text


def test_list_entries_with_unknown_keys_name_them():
    for key, entry in (("targets", {"langauge": "finite"}),
                       ("schedules", {"order": "canonical", "sed": 3}),
                       ("adversaries", {"id": "caut_tar", "round": 3})):
        with pytest.raises(ConfigError, match=f"{key}\\[0\\]: unknown keys"):
            validate_config(_config(**{key: [entry]}))


def test_config_is_not_json():
    with pytest.raises(ConfigError, match="not valid JSON"):
        validate_config("learner: cofinite")


def test_pipeline_composition_checked():
    # poisoning demands a set-driven base; segment reads whole sequences
    with pytest.raises(ConfigError, match="pipeline does not compose"):
        validate_config(_config(learner="segment",
                                combinators=["dual_wmon_poison"]))
    cfg = validate_config(_config(learner="segment",
                                  combinators=["to_sd", "dual_wmon_poison"]))
    assert cfg.pipeline().name == "segment[sd][dual-poison]"


def test_mindchange_needs_set_driven_pipeline():
    with pytest.raises(ConfigError, match="set-driven opponent"):
        validate_config(_config(learner="segment",
                                adversaries=[{"id": "mindchange"}]))


def test_parameter_sweep_materializes_instances():
    cfg = validate_config(_config(
        targets=[{"language": "segment", "sweep": {"n": [0, 1, 2]}}]))
    assert [t.upset for t in cfg.targets] == \
        [parse("1|0"), parse("11|0"), parse("111|0")]
    # crossing an invalid corner (n >= m) is skipped, not fatal
    cfg = validate_config(_config(
        targets=[{"language": "streamZ",
                  "sweep": {"n": [0, 1], "m": [1, 2]}}]))
    assert len(cfg.targets) == 3
    with pytest.raises(ConfigError, match="targets\\[0\\]"):
        validate_config(_config(
            targets=[{"language": "streamZ", "sweep": {"n": [3], "m": [1]}}]))


def test_global_sample_scope():
    cfg = validate_config(_config(targets=[{"family": "*", "count": 2}]))
    assert all(t.scope == "global (sampled)" for t in cfg.targets)
    assert len(cfg.targets) >= 6
    fam = validate_config(_config(targets=[{"family": "finite", "count": 3}]))
    assert [t.upset for t in fam.targets] == \
        [parse("|0"), parse("1|0"), parse("01|0")]
    assert all(t.scope == "family" for t in fam.targets)


def test_schedule_seed_rules():
    cfg = validate_config(_config(
        schedules=[{"order": "canonical"},
                   {"order": "shuffled", "seed": 3, "plan": [5, 0]}]))
    assert cfg.schedules[1].label() == "shuffled[seed=3; plan=5,0]"
    with pytest.raises(ConfigError, match="only meaningful for shuffled"):
        validate_config(_config(schedules=[{"order": "canonical", "seed": 1}]))


# ---------------------------------------------------------------------------
# runs

def test_cofinite_run_matches_known_outcome():
    report = run_experiment(validate_config(_config()))
    by_restriction = {r.restriction: r for r in report.rows}
    assert len(report.rows) == 3
    bc = by_restriction["bc"]
    assert bc.satisfied and bc.detail == "correct from 2"
    assert by_restriction["mon"].satisfied
    tar = by_restriction["caut_tar"]
    assert not tar.satisfied
    assert tar.indices == (0,)
    assert tar.element == 1
    assert tar.extensions == ("|1",)
    assert tar.verified
    assert witness_found(report)
    assert exit_code(report, "satisfied") == 1
    assert exit_code(report, "witness") == 0


def test_wrapped_cofinite_all_satisfied():
    report = run_experiment(validate_config(_config(
        combinators=["cons_wmon"],
        restrictions=["cons", "wmon", "bc"])))
    assert report.pipeline == ("cofinite", "cons_wmon")
    assert all(r.satisfied for r in report.rows)
    assert not witness_found(report)
    assert exit_code(report, "satisfied") == 0
    assert exit_code(report, "witness") == 1


def test_mindchange_adversary_in_config():
    report = run_experiment(validate_config(_config(
        learner="fresh_label",
        targets=[],
        restrictions=[],
        adversaries=[{"id": "mindchange", "rounds": 5}])))
    (row,) = report.adversaries
    assert row.kind == "mindchange-transcript"
    assert row.rounds == 5
    assert row.verified
    assert witness_found(report)


def test_shuffled_schedule_rows():
    report = run_experiment(validate_config(_config(
        schedules=[{"order": "canonical"}, {"order": "shuffled", "seed": 3}],
        restrictions=["bc", "mon"])))
    labels = {r.informant for r in report.rows}
    assert labels == {"canonical", "shuffled[seed=3]"}
    assert all(r.satisfied for r in report.rows)
    assert report.fingerprint.schedule_seeds == (3,)


def test_equal_schedules_give_one_row_each():
    cfg = validate_config(_config(
        schedules=[{"order": "canonical"}, {"order": "shuffled", "seed": 3},
                   {}, {"order": "canonical", "plan": []},
                   {"order": "shuffled", "seed": 3}],
        restrictions=["cons"]))
    assert cfg.schedules == (Schedule("canonical"), Schedule("shuffled", 3))
    report = run_experiment(cfg)
    assert [r.informant for r in report.rows] == [
        "canonical", "shuffled[seed=3]"]
    assert report.fingerprint.schedule_seeds == (3,)


def test_machine_report_round_trips_and_is_stable():
    cfg_text = _config(schedules=[{"order": "shuffled", "seed": 7}],
                       adversaries=[{"id": "caut_tar"}])
    a = run_experiment(validate_config(cfg_text))
    b = run_experiment(validate_config(cfg_text))
    assert a == b
    doc_a = render_report(a, "machine")
    doc_b = render_report(b, "machine")
    assert doc_a == doc_b
    assert parse_report(doc_a) == a
    with pytest.raises(ValueError, match="not a report document"):
        parse_report("{}")
    with pytest.raises(ValueError, match="render mode"):
        render_report(a, "pdf")


# The substitutes each mutation tries.
_SUBSTITUTES = (7, "x", [0], {"k": 0}, {"k": "x"}, None)


def _must_reject(cls, key, value) -> bool:
    """Mutations no reader of the format may accept: null outside a
    `| None` field, and a value whose JSON type is not the field's."""
    if key in ("rows", "adversaries", "fingerprint"):
        return True  # no substitute is a list of rows or a fingerprint
    if key == "params":  # an object of ints
        return not isinstance(value, dict) or any(
            type(v) is not int for v in value.values())
    hint = typing.get_type_hints(cls)[key]
    args = typing.get_args(hint)
    if value is None:
        return type(None) not in args
    if type(None) in args:
        hint = args[0]
    json_type = list if typing.get_origin(hint) is tuple else hint
    return type(value) is not json_type


def test_parse_report_refuses_mutated_documents_with_value_error():
    report = run_experiment(validate_config(_config(
        schedules=[{"order": "shuffled", "seed": 7}],
        adversaries=[{"id": "caut_tar"}])))
    doc = report_to_dict(report)
    assert report.rows and doc["adversaries"][0]["params"]
    parts = ((Report, doc), (CheckRow, doc["rows"][0]),
             (AdversaryRow, doc["adversaries"][0]),
             (Fingerprint, doc["fingerprint"]))
    for cls, part in parts:
        for key in list(part):
            value = part.pop(key)
            with pytest.raises(ValueError, match="not a report document"):
                parse_report(json.dumps(doc))
            for bad in _SUBSTITUTES:
                part[key] = bad
                try:
                    parsed = parse_report(json.dumps(doc))
                except ValueError:
                    parsed = None
                assert parsed is None or isinstance(parsed, Report), key
                if _must_reject(cls, key, bad):
                    assert parsed is None, (key, bad)
            part[key] = value
    assert parse_report(json.dumps(doc)) == report


def test_parse_report_takes_a_split_of_exactly_two_values():
    report = run_experiment(validate_config(json.dumps({
        "learner": "constant_empty", "horizon": 3,
        "adversaries": [{"id": "mindchange"}]})))
    doc = report_to_dict(report)
    split = doc["adversaries"][0]["split"]
    assert doc["adversaries"][0]["kind"] == "split-pair" and len(split) == 2
    assert parse_report(json.dumps(doc)) == report
    for bad in (split[:1], [*split, split[0]]):
        doc["adversaries"][0]["split"] = bad
        with pytest.raises(ValueError, match="not a report document"):
            parse_report(json.dumps(doc))


# A machine report written before the config `seed` left the fingerprint.
_OLDER_CONFIG = {"learner": "cofinite", "targets": [{"upset": "10|1"}],
                 "schedules": [{"order": "shuffled", "seed": 3}],
                 "horizon": 4, "restrictions": ["bc", "caut_tar"],
                 "adversaries": [{"id": "caut_tar", "t_bound": 5}]}
_OLDER_REPORT = """\
{
  "adversaries": [
    {
      "adversary": "caut_tar",
      "element": 1,
      "indices": [
        0
      ],
      "kind": "restriction-violation",
      "note": "committed to the naturals at 0, then dropped 1",
      "opponent": "cofinite",
      "params": {
        "n0": 0
      },
      "restriction": "caut_tar",
      "rounds": 0,
      "split": null,
      "target": "10|1",
      "verified": true
    }
  ],
  "fingerprint": {
    "schedule_seeds": [
      3
    ],
    "seed": 0,
    "version": "0.1.0"
  },
  "horizon": 4,
  "pipeline": [
    "cofinite"
  ],
  "rows": [
    {
      "detail": "extension at 0 strictly covers the target (1 extra)",
      "element": 1,
      "extensions": [
        "|1"
      ],
      "indices": [
        0
      ],
      "informant": "shuffled[seed=3]",
      "language": "10|1",
      "restriction": "caut_tar",
      "satisfied": false,
      "scope": "family",
      "verified": true
    },
    {
      "detail": "correct from 4",
      "element": null,
      "extensions": [],
      "indices": [],
      "informant": "shuffled[seed=3]",
      "language": "10|1",
      "restriction": "bc",
      "satisfied": true,
      "scope": "family",
      "verified": true
    }
  ]
}
"""


def test_older_report_with_a_seed_parses_and_rerenders_without_it():
    report = parse_report(_OLDER_REPORT)
    assert report.fingerprint == Fingerprint("0.1.0", (3,))
    without_seed = _OLDER_REPORT.replace('    "seed": 0,\n', "")
    assert without_seed != _OLDER_REPORT
    assert render_report(report, "machine") == without_seed
    rerun = run_experiment(validate_config(json.dumps(_OLDER_CONFIG)))
    assert (rerun.rows, rerun.adversaries) == (report.rows, report.adversaries)


def test_empty_report_renders_header_and_zero_rows():
    report = Report(pipeline=("cofinite",), horizon=1,
                    fingerprint=Fingerprint("0.1.0"))
    text = render_report(report, "text")
    assert "checks: 0 (0 violated)" in text
    assert "language" in text  # column header survives with no rows
    assert "outcome: all satisfied" in text
    assert parse_report(render_report(report, "machine")) == report


def test_violation_rendering_shows_extension():
    text = render_report(run_experiment(validate_config(_config())))
    assert "VIOLATED at (0,); element 1; extensions |1" in text
    assert "outcome: witness found" in text


def test_demo_scenarios_all_hold():
    for name, thunk in demo_scenarios():
        holds, summary = thunk()
        assert holds, f"{name}: {summary}"


# Characters json escapes, or writes as \uXXXX: quotes, backslashes,
# control, non-ASCII and astral characters and lone surrogates.
_chars = (st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u2028\xe9\U0001f600')
          | st.characters(categories=None))
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.integers(-2 ** 300, 2 ** 300) | st.text(_chars, max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(_chars, max_size=6), inner, max_size=4),
    max_leaves=20)


@settings(max_examples=200, deadline=None)
@given(_json_values)
def test_the_machine_writer_is_indented_sorted_json(value):
    """The writer `render_report` uses in machine mode gives the bytes of
    `json.dumps(..., indent=2, sort_keys=True)`, nested and empty dicts
    and lists included."""
    assert _json_text(value) == json.dumps(value, indent=2, sort_keys=True)


@given(_json_values, st.floats() | st.tuples(st.integers())
       | st.frozensets(st.integers()) | st.binary())
def test_the_machine_writer_refuses_what_a_report_never_holds(value, bad):
    """A float, a tuple, a set or bytes anywhere raises TypeError, and so
    does a key that is not a string."""
    for doc in (bad, [value, bad], {"k": [bad]}, {1: value}):
        with pytest.raises(TypeError):
            _json_text(doc)
