"""The CLI's JSON writer must write exactly what the stdlib's indent mode writes."""

import json
import math
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from attenattack import cli
from attenattack.attenuators import AttenuatorClass
from attenattack.campaign import CampaignConfig, monte_carlo
from attenattack.cli import _json, _trial_renderer


def stdlib(obj):
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)


# Non-ASCII, surrogate-free and control characters, quotes and backslashes
TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([0.0, -0.0, 1e-320, 1.7976931348623157e308, 5e-324])
    | TEXT
)
TREES = st.recursive(
    SCALARS,
    lambda children: st.lists(children, max_size=5)
    | st.tuples(children, children)
    | st.dictionaries(TEXT, children, max_size=5),
    max_leaves=40,
)


@given(TREES)
@settings(max_examples=400, deadline=None)
def test_matches_stdlib_indent_mode(obj):
    assert _json(obj) == stdlib(obj)


@given(st.dictionaries(TEXT, TREES, max_size=4), st.integers(min_value=0, max_value=4))
@settings(max_examples=100, deadline=None)
def test_nested_level_matches_stdlib(obj, level):
    # written `level` deep, a document is what the stdlib writes for it
    # inside `level` single-key wrappers, less the wrappers' own text
    wrapped = obj
    for _ in range(level):
        wrapped = {"k": wrapped}
    lines = stdlib(wrapped).split("\n")
    inner = "\n".join(lines[level:len(lines) - level])
    prefix = "  " * level + '"k": ' if level else ""
    assert inner.startswith(prefix)
    assert _json(obj, level) == inner[len(prefix):]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "wrap",
    [
        lambda x: x,
        lambda x: [1, x],
        lambda x: {"a": 1.0, "b": x},
        lambda x: {"a": [x], "b": {}},
        lambda x: {"a": {"b": [0.5, {"c": x}]}},
    ],
)
def test_non_finite_float_raises_like_stdlib(bad, wrap):
    with pytest.raises(ValueError):
        stdlib(wrap(bad))
    with pytest.raises(ValueError):
        _json(wrap(bad))


def test_unserialisable_value_raises_type_error():
    for obj in ({"a": object()}, [[object()]]):
        with pytest.raises(TypeError):
            _json(obj)


CONFIG = CampaignConfig(connectorized_output=True, fuse_threshold_w=4.0)


def mems_trials():
    """Six MEMS trials, some stopped before the last rung, which trips the fuse."""
    trials = []
    monte_carlo(CONFIG, AttenuatorClass.MEMS_VOA, None, 30.0, 6, 1, on_trial=trials.append)
    assert any(len(trial.events) < len(trial.power_dbm_set) for trial in trials)
    return trials


def render(trial):
    return _trial_renderer(CONFIG, AttenuatorClass.MEMS_VOA, 30.0)(trial)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["attenuation_after_db", "attenuation_immediate_db"])
@pytest.mark.parametrize("step", [0, -1])  # -1: the last step, whose after no later step reads
def test_trial_renderer_rejects_non_finite_step_value(bad, field, step):
    trial = max(mems_trials(), key=lambda trial: len(trial.events))
    assert len(trial.events) > 1
    values = getattr(trial, field).copy()
    values[step] = bad
    with pytest.raises(ValueError, match="not JSON compliant"):
        render(trial._replace(**{field: values}))


@pytest.mark.parametrize("field", ["baseline_db", "final_delta_db"])
def test_trial_renderer_rejects_non_finite_trial_value(field):
    trial = mems_trials()[0]
    with pytest.raises(ValueError, match="not JSON compliant"):
        render(trial._replace(**{field: math.inf}))


def test_trial_renderer_builds_one_step_template_per_rung():
    trials = []
    monte_carlo(CONFIG, AttenuatorClass.MEMS_VOA, None, 30.0, 60, 1, on_trial=trials.append)
    events = {}  # by rung: the events its steps log, over every trial
    for trial in trials:
        for rung, event in enumerate(trial.events):
            events.setdefault(rung, set()).add(event)
    assert max(map(len, events.values())) > 1
    with patch.object(cli, "_template", wraps=cli._template) as template:
        render = _trial_renderer(CONFIG, AttenuatorClass.MEMS_VOA, 30.0)
        for trial in trials:
            render(trial)
    # the trial template, then at most one step template per rung
    assert template.call_count <= 1 + len(events)
