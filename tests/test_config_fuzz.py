"""Property tests: configuration parsing either validates or raises ConfigError, and the
convergence command exits 0, 1 or 2 on any typed configuration without raising."""

import json
import warnings

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from circspec import ConfigError, ExperimentConfig  # noqa: E402
from circspec.cli import main_convergence  # noqa: E402
from circspec.harness import _DEFAULTS, EXPERIMENTS  # noqa: E402

# json.load returns Python ints of any size, so include some beyond the float range
numbers = st.integers() | st.integers(min_value=10 ** 300, max_value=10 ** 400) | st.floats()
json_values = st.recursive(
    st.none() | st.booleans() | numbers | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=10,
)
# plausible values for each field, so that most draws get past the earlier checks
fields = {name: numbers | json_values for name in ("alpha", "epsilon", "s", "lambda_cap", "g_scale")}
fields.update(
    N_list=st.lists(numbers, max_size=5) | json_values,
    N_ref=numbers | json_values,
    mode=st.sampled_from(["finite_section", "collocation"]) | json_values,
    output_path=st.text(max_size=8) | json_values,
)
raw_configs = (
    st.fixed_dictionaries({"experiment": st.sampled_from(EXPERIMENTS)}, optional=fields)
    | st.dictionaries(st.sampled_from(["experiment", *fields, "bogus"]), json_values, max_size=4)
    | json_values
)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(raw_configs)
def test_from_dict_validates_or_raises_config_error(raw):
    try:
        cfg = ExperimentConfig.from_dict(raw)
    except ConfigError:
        return
    assert isinstance(cfg, ExperimentConfig)


# finite values at the ends of the float range and near the bounds the configuration checks
extreme = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.5, 0.5000001, 1e-300, -1e-300, 1e-8, 1e8, 1e300, -1e300, 400.0, -400.0])


@st.composite
def typed_configs(draw):
    """A config of one experiment with only keys it reads, each of the right type: N_list
    ascending in 1..129 and N_ref above it up to 130, so that most draws are valid."""
    experiment = draw(st.sampled_from(EXPERIMENTS))
    n_list = sorted(draw(st.sets(st.integers(1, 129), min_size=1, max_size=5)))
    raw = {"experiment": experiment, "N_list": n_list, "N_ref": draw(st.integers(n_list[-1] + 1, 130))}
    for name in ("alpha", "epsilon", "s", "lambda_cap", "g_scale"):
        if name in _DEFAULTS[experiment] and draw(st.booleans()):
            raw[name] = draw(extreme)
    if "mode" in _DEFAULTS[experiment]:
        raw["mode"] = draw(st.sampled_from(["finite_section", "collocation"]))
    return raw


@hypothesis.settings(max_examples=500, deadline=None,
                     suppress_health_check=[hypothesis.HealthCheck.function_scoped_fixture])
@hypothesis.given(typed_configs())
def test_convergence_exits_0_1_or_2(tmp_path, raw):
    # any config runs end to end to a CSV, a solver failure or a config error; no exception
    # and no numpy warning escapes
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main_convergence(["--config", str(cfg), "--output", str(tmp_path / "o.csv")]) in (0, 1, 2)
