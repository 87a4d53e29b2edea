"""Fuzzing of the config classes with hypothesis: whatever JSON value a config
file puts in whatever field, `from_dict` returns a config or raises
`ParameterError`, never another exception.

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
