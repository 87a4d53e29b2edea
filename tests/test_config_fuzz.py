"""Fuzzing of the config classes with hypothesis: whatever JSON value a config
file puts in whatever field, `from_dict` returns a config or raises
`ParameterError`, never another exception. Also the bound on model sizes, which
keeps every accepted `ModelConfig` buildable.

The runs are derandomized and bounded, so they repeat exactly and stay fast.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freqvfx.config import AdaptConfig, ModelConfig, SampleConfig, TrainConfig, from_dict
from freqvfx.errors import ParameterError

FUZZ = settings(max_examples=100, derandomize=True, deadline=None, database=None)

# what json.load can return: ints of any size (beyond a float's range too),
# floats including NaN and the infinities, strings, and nested arrays and objects
scalars = st.one_of(st.none(), st.booleans(), st.integers(),
                    st.integers(-10 ** 400, 10 ** 400), st.floats(), st.text(max_size=8))
json_values = st.recursive(
    scalars, lambda inner: st.one_of(st.lists(inner, max_size=5),
                                     st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=8)


@pytest.mark.parametrize("cls", [ModelConfig, TrainConfig, SampleConfig, AdaptConfig])
def test_any_json_values_build_or_raise_parameter_error(cls):
    names = [f.name for f in dataclasses.fields(cls)]

    @FUZZ
    @given(st.dictionaries(st.sampled_from(names + ["unknown"]), json_values, max_size=4))
    def check(section):
        try:
            cfg = from_dict(cls, section)
        except ParameterError:
            return
        assert isinstance(cfg, cls)

    check()


@pytest.mark.parametrize("field, value", [
    ("width", 10 ** 30), ("n_blocks", 10 ** 12), ("num_steps", 10 ** 10),
    ("latent_shape", (8, 4, 2 ** 20, 2 ** 20)), ("total_rank", 10 ** 9),
    ("router_hidden", 10 ** 10), ("n_text_tokens", 10 ** 9)])
def test_model_size_is_bounded(field, value):
    """A model too large to allocate is refused before anything is built, and the
    error names the field."""
    with pytest.raises(ParameterError, match=field):
        ModelConfig(**{field: value})


def test_model_size_bound_sits_far_above_the_default():
    import freqvfx.config

    assert freqvfx.config.MAX_MODEL_ELEMENTS >= 2 ** 30
    ModelConfig(latent_shape=(16, 4, 32, 32), width=256, n_blocks=8, num_steps=4000,
                total_rank=64, n_experts=8, router_hidden=64, n_text_tokens=16)
