"""ScenarioSpec parsing: round-trips, strictness, and actionable errors."""

import json

import pytest

from repro.scenarios import (
    ChurnSpec,
    CrashSpec,
    DemandSpec,
    FlashCrowdSpec,
    OutageSpec,
    ProviderSpec,
    ScenarioError,
    ScenarioSpec,
    SiteSpec,
    WanLinkSpec,
    example_scenario,
)


def minimal_dict(**overrides):
    """The smallest valid scenario document, as plain data."""
    doc = {
        "name": "tiny",
        "duration_hours": 2.0,
        "sites": [{
            "name": "solo",
            "providers": [{"name": "ws1", "gpus": ["rtx3090"]}],
        }],
    }
    doc.update(overrides)
    return doc


# -- round-trips -------------------------------------------------------------

def test_dict_round_trip_is_identity():
    spec = example_scenario()
    assert ScenarioSpec.from_dict(spec.to_dict()) == spec


def test_json_round_trip_is_identity():
    spec = example_scenario()
    again = ScenarioSpec.from_json(spec.to_json())
    assert again == spec
    # and the JSON itself is stable
    assert again.to_json() == spec.to_json()


def test_to_dict_is_plain_json_data():
    document = example_scenario().to_dict()
    assert json.loads(json.dumps(document)) == document


def test_minimal_document_defaults():
    spec = ScenarioSpec.from_dict(minimal_dict())
    assert spec.name == "tiny"
    assert spec.links == () and spec.outages == () and spec.crashes == ()
    assert spec.max_forward_hops == 2
    assert spec.trace is True
    assert spec.sites[0].demand == DemandSpec()
    assert spec.total_gpus == 1
    assert spec.site("solo").gpu_count == 1


# -- strictness --------------------------------------------------------------

def test_unknown_key_is_rejected_with_expected_list():
    with pytest.raises(ScenarioError) as err:
        ScenarioSpec.from_dict(minimal_dict(duraton_hours=3.0))
    message = str(err.value)
    assert "unknown key(s) 'duraton_hours'" in message
    assert "duration_hours" in message  # the fix is in the message


def test_nested_unknown_key_carries_path():
    doc = minimal_dict()
    doc["sites"][0]["providers"][0]["gpu"] = ["rtx3090"]
    with pytest.raises(ScenarioError) as err:
        ScenarioSpec.from_dict(doc)
    assert "scenario.sites[0].providers[0]" in str(err.value)
    assert "'gpu'" in str(err.value)


def test_wrong_type_is_rejected_with_path():
    doc = minimal_dict(duration_hours="eight")
    with pytest.raises(ScenarioError) as err:
        ScenarioSpec.from_dict(doc)
    assert "scenario.duration_hours" in str(err.value)
    assert "expected a number" in str(err.value)


def test_bool_is_not_a_number():
    with pytest.raises(ScenarioError) as err:
        ScenarioSpec.from_dict(minimal_dict(duration_hours=True))
    assert "expected a number" in str(err.value)


def test_non_mapping_site_is_rejected():
    with pytest.raises(ScenarioError) as err:
        ScenarioSpec.from_dict(minimal_dict(sites=["north"]))
    assert "scenario.sites[0]" in str(err.value)
    assert "expected a mapping" in str(err.value)


def test_unknown_gpu_lists_catalog():
    doc = minimal_dict()
    doc["sites"][0]["providers"][0]["gpus"] = ["rtx9999"]
    with pytest.raises(ScenarioError) as err:
        ScenarioSpec.from_dict(doc)
    message = str(err.value)
    assert "rtx9999" in message
    assert "rtx4090" in message  # catalog is listed for the user


def test_unknown_model_in_job_mix_lists_catalog():
    doc = minimal_dict()
    doc["sites"][0]["demand"] = {"jobs_per_day": 4.0,
                                 "job_mix": [["gpt9", 1.0]]}
    with pytest.raises(ScenarioError) as err:
        ScenarioSpec.from_dict(doc)
    assert "gpt9" in str(err.value)
    assert "resnet50-cifar" in str(err.value)


def test_invalid_json_is_a_scenario_error():
    with pytest.raises(ScenarioError) as err:
        ScenarioSpec.from_json("{not json")
    assert "invalid JSON" in str(err.value)


# -- cross-field validation --------------------------------------------------

def site(name):
    return SiteSpec(name=name, providers=(
        ProviderSpec(name=f"{name}-ws", gpus=("rtx3090",)),))


def test_duplicate_site_names_rejected():
    with pytest.raises(ValueError, match="duplicate site names"):
        ScenarioSpec(name="x", duration_hours=1.0,
                     sites=(site("a"), site("a")))


def test_link_to_unknown_site_rejected():
    with pytest.raises(ValueError, match="unknown site 'c'"):
        ScenarioSpec(name="x", duration_hours=1.0,
                     sites=(site("a"), site("b")),
                     links=(WanLinkSpec("a", "c"),))


def test_duplicate_link_rejected_regardless_of_direction():
    with pytest.raises(ValueError, match="duplicate link a<->b"):
        ScenarioSpec(name="x", duration_hours=1.0,
                     sites=(site("a"), site("b")),
                     links=(WanLinkSpec("a", "b"), WanLinkSpec("b", "a")))


def test_outage_on_undeclared_link_rejected():
    with pytest.raises(ValueError, match="not a declared link"):
        ScenarioSpec(name="x", duration_hours=1.0,
                     sites=(site("a"), site("b")),
                     outages=(OutageSpec("a", "b", 0.5, 10.0),))


def test_outage_to_unknown_site_names_the_site():
    with pytest.raises(ValueError, match="outage references unknown site 'c'"):
        ScenarioSpec(name="x", duration_hours=1.0,
                     sites=(site("a"), site("b")),
                     links=(WanLinkSpec("a", "b"),),
                     outages=(OutageSpec("a", "c", 0.5, 10.0),))


def test_flash_crowd_past_horizon_rejected():
    with pytest.raises(ValueError, match="after the scenario ends"):
        ScenarioSpec(name="x", duration_hours=1.0, sites=(site("a"),),
                     flash_crowds=(FlashCrowdSpec("a", 2.0, 5),))


def test_outage_past_horizon_rejected():
    with pytest.raises(ValueError, match="outage at hour 1 starts after"):
        ScenarioSpec(name="x", duration_hours=1.0,
                     sites=(site("a"), site("b")),
                     links=(WanLinkSpec("a", "b"),),
                     outages=(OutageSpec("a", "b", 1.0, 10.0),))


def test_crash_past_horizon_rejected():
    with pytest.raises(ValueError, match="crash at hour 3 starts after"):
        ScenarioSpec(name="x", duration_hours=1.0, sites=(site("a"),),
                     crashes=(CrashSpec("a", "gateway", 3.0, 5.0),))


def test_fault_window_errors_carry_their_path():
    doc = minimal_dict(crashes=[{"site": "solo", "component": "gateway",
                                 "start_hour": 1.0,
                                 "downtime_minutes": 0.0}])
    with pytest.raises(ScenarioError) as err:
        ScenarioSpec.from_dict(doc)
    assert "scenario.crashes[0]" in str(err.value)
    assert "duration must be positive" in str(err.value)


def test_lab_demand_round_trips_and_errors_carry_its_path():
    doc = minimal_dict()
    doc["sites"][0]["labs"] = [
        {"lab": "vision", "demand": {"jobs_per_day": 2.0}},
        {"lab": "", "demand": {"sessions_per_day": 1.0}},
    ]
    spec = ScenarioSpec.from_dict(doc)
    assert [lab.tag for lab in spec.sites[0].labs] == [
        "vision", "unaffiliated"]
    assert ScenarioSpec.from_json(spec.to_json()) == spec
    doc["sites"][0]["labs"][1]["demand"]["jobs"] = 1.0
    with pytest.raises(ScenarioError,
                       match=r"scenario\.sites\[0\]\.labs\[1\]\.demand"):
        ScenarioSpec.from_dict(doc)


def test_unaffiliated_lab_cannot_collide_with_a_named_one():
    # Both would plan ids as "sc-<site>/unaffiliated-...".
    doc = minimal_dict()
    doc["sites"][0]["labs"] = [{"lab": "", "demand": {}},
                               {"lab": "unaffiliated", "demand": {}}]
    with pytest.raises(ScenarioError, match="duplicate labs"):
        ScenarioSpec.from_dict(doc)


def test_site_name_cannot_look_like_a_lab_qualified_one():
    # Site "campus/vision" would plan the ids of lab "vision" at "campus".
    with pytest.raises(ValueError, match="must not contain '/'"):
        site("campus/vision")


def test_access_gbps_must_be_positive():
    with pytest.raises(ValueError, match="access_gbps"):
        ProviderSpec(name="ws", gpus=("rtx3090",), access_gbps=0.0)


def test_churn_probabilities_must_sum_to_one():
    with pytest.raises(ValueError, match="sum to 1"):
        ChurnSpec(p_scheduled=0.5, p_emergency=0.5, p_temporary=0.5)


def test_example_scenario_is_valid_and_interesting():
    spec = example_scenario()
    assert len(spec.sites) == 2
    assert spec.flash_crowds and spec.outages and spec.links
    assert any(p.churn is not None
               for s in spec.sites for p in s.providers)
    # heterogeneous generations across the federation
    generations = {gpu for s in spec.sites
                   for p in s.providers for gpu in p.gpus}
    assert len(generations) >= 3
    # multi-timezone: at least two distinct diurnal phases
    offsets = {s.demand.timezone_offset_hours for s in spec.sites}
    assert len(offsets) >= 2
