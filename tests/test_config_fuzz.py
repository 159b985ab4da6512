"""Property test: configuration parsing either validates or raises ConfigError."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from circspec import ConfigError, ExperimentConfig  # noqa: E402
from circspec.harness import EXPERIMENTS  # noqa: E402

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
