"""Synthetic data generators: determinism, band orderings, dataset contracts."""

import numpy as np
import pytest

from freqvfx import synthgen as sg
from freqvfx.config import ModelConfig
from freqvfx.container import read_container, write_container
from freqvfx.errors import ParameterError, ShapeError
from freqvfx.spectral import SIGMA1_DEFAULT, SIGMA2_DEFAULT, joint_descriptor_detached

import oracles
from oracles import joint_descriptor_scalar

SHAPE = (1, 8, 4, 8, 8)
MODEL = ModelConfig()


def oracle_descriptor(video: np.ndarray) -> np.ndarray:
    return joint_descriptor_scalar(video.astype(np.float64), SIGMA1_DEFAULT,
                                   SIGMA2_DEFAULT, 1e-8)


@pytest.mark.parametrize("gen", [sg.gen_lowfreq_field, sg.gen_highfreq_particles,
                                 sg.gen_bandpass_texture])
def test_fixed_seed_bit_identical(gen):
    a = gen(123, (2, 8, 4, 8, 8))
    b = gen(123, (2, 8, 4, 8, 8))
    assert a.dtype == np.float32
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("gen", [sg.gen_lowfreq_field, sg.gen_highfreq_particles,
                                 sg.gen_bandpass_texture])
def test_seed_changes_output(gen):
    a = gen(1, SHAPE)
    b = gen(2, SHAPE)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("gen", [sg.gen_lowfreq_field, sg.gen_highfreq_particles,
                                 sg.gen_bandpass_texture])
def test_batch_entries_are_independent_streams(gen):
    batch = gen(7, (3, 8, 4, 8, 8))
    solo = gen(7, (1, 8, 4, 8, 8))
    # sample index keys the stream, so entry 0 matches the 1-sample call
    assert np.array_equal(batch[0], solo[0])
    assert not np.array_equal(batch[0], batch[1])


@pytest.mark.parametrize("gen,kwargs", [
    (sg.gen_lowfreq_field, {}),
    (sg.gen_highfreq_particles, {}),
    (sg.gen_bandpass_texture, {}),
])
def test_unit_rms(gen, kwargs):
    z = gen(5, SHAPE, **kwargs)
    rms = np.sqrt((z.astype(np.float64) ** 2).mean())
    assert abs(rms - 1.0) < 1e-5


# (B, T, C, H, W): square and non-square frames, H or W below 3, frames with
# no room for a spark (k = 0) and with more sites asked for than fit (5 x 5:
# two sites 3 apart in a 3 x 3 interior, so every try is spent), T of 1 and 2,
# and C and B of 1 and more
REFERENCE_SHAPES = [(2, 8, 4, 8, 8), (1, 3, 1, 5, 9), (2, 2, 3, 9, 6), (1, 1, 2, 5, 5),
                    (2, 4, 2, 2, 12), (1, 5, 2, 11, 2), (2, 3, 2, 2, 3), (1, 2, 1, 1, 1),
                    (1, 2, 3, 16, 13)]


@pytest.mark.parametrize("loop", [oracles.gen_lowfreq_field, oracles.gen_highfreq_particles,
                                  oracles.gen_bandpass_texture], ids=lambda f: f.__name__)
def test_generators_match_loop_references_bytes(loop):
    for seed in (0, 1, 7):
        for shape in REFERENCE_SHAPES:
            ours, ref = getattr(sg, loop.__name__)(seed, shape), loop(seed, shape)
            assert (ours.dtype, ours.shape) == (ref.dtype, ref.shape), (seed, shape)
            assert ours.tobytes() == ref.tobytes(), (seed, shape)


@pytest.mark.parametrize("k, h, w", [(4, 8, 8), (9, 8, 8), (2, 2, 12), (3, 11, 1), (1, 1, 1),
                                     (0, 8, 8)])
def test_spark_sites_match_scalar_draws_and_leave_the_stream_alike(k, h, w):
    """The same sites, and the stream where the scalar draws leave it, also after
    an odd number of 32-bit draws and when the tries run out (k = 9)."""
    for seed in (0, 1, 7):
        for skew in (0, 1):
            ours, ref = (sg._stream(seed, 1, 0) for _ in range(2))
            for rng in (ours, ref):
                rng.integers(0, 5, size=skew)
            assert sg._spark_sites(ours, k, h, w) == oracles._spark_sites(ref, k, h, w)
            assert ours.random(3).tobytes() == ref.random(3).tobytes()
            assert ours.integers(0, 9, size=5).tobytes() == ref.integers(0, 9, size=5).tobytes()


def test_bad_shape_and_seed():
    with pytest.raises(ShapeError):
        sg.gen_lowfreq_field(0, (8, 4, 8))
    with pytest.raises(ShapeError):
        sg.gen_lowfreq_field(0, (1, 0, 4, 8, 8))
    with pytest.raises(ParameterError):
        sg.gen_lowfreq_field(-3, SHAPE)


def test_low_coarse_dominates_detail_oracle():
    for seed in range(8):
        z = sg.gen_lowfreq_field(seed, SHAPE)
        d = oracle_descriptor(z)[0]
        assert d[0] > d[2], f"seed {seed}: coarse {d[0]} vs detail {d[2]}"
        assert d[0] == max(d[:3])


def test_low_coarse_dominant_many_seeds_pipeline():
    z = sg.gen_lowfreq_field(11, (64, 8, 4, 8, 8))
    d = joint_descriptor_detached(z)
    assert np.all(d[:, 0] > d[:, 1])
    assert np.all(d[:, 0] > d[:, 2])


def test_high_detail_exceeds_coarse_both_proxies_oracle():
    for seed in range(8):
        z = sg.gen_highfreq_particles(seed, SHAPE)
        d = oracle_descriptor(z)[0]
        assert d[2] > d[0], f"seed {seed}: appearance {d[:3]}"
        assert d[5] > d[3], f"seed {seed}: motion {d[3:]}"


def test_high_detail_dominant_many_seeds_pipeline():
    z = sg.gen_highfreq_particles(29, (64, 8, 4, 8, 8))
    d = joint_descriptor_detached(z)
    assert np.all(d[:, 2] > d[:, 0])
    assert np.all(d[:, 2] > d[:, 1])
    assert np.all(d[:, 5] > d[:, 3])


def test_high_frame_without_spark_room_gives_zero_video():
    # one spark site per 16 pixels: a 2x2 frame rounds to none
    z = sg.gen_highfreq_particles(3, (1, 8, 4, 2, 2))
    assert not z.any()
    d = joint_descriptor_detached(z)[0]
    assert np.all(d == 0.0)


def test_band_share_largest_appearance_oracle():
    for seed in range(8):
        z = sg.gen_bandpass_texture(seed, SHAPE)
        d = oracle_descriptor(z)[0]
        assert d[1] > d[0] and d[1] > d[2], f"seed {seed}: appearance {d[:3]}"


def test_band_dominant_many_seeds_pipeline():
    z = sg.gen_bandpass_texture(17, (64, 8, 4, 8, 8))
    d = joint_descriptor_detached(z)
    assert np.all(d[:, 1] > d[:, 0])
    assert np.all(d[:, 1] > d[:, 2])


def test_build_dataset_deterministic_bytes():
    spec = [("lowfreq_field", 3), ("highfreq_particles", 2), ("bandpass_texture", 2)]
    a = sg.build_dataset(spec, 42, MODEL)
    b = sg.build_dataset(spec, 42, MODEL)
    assert len(a["videos"]) == 7
    assert list(a) == list(b)
    for name in a:
        assert a[name].dtype == b[name].dtype
        assert a[name].tobytes() == b[name].tobytes(), name


def test_build_dataset_total_and_order():
    ds = sg.build_dataset([("highfreq_particles", 2), ("lowfreq_field", 3)], 0, MODEL)
    assert list(ds) == ["videos", "class_ids", "text.highfreq_particles", "text.lowfreq_field"]
    assert ds["class_ids"].dtype == np.float64
    assert ds["class_ids"].tolist() == [1, 1, 0, 0, 0]
    assert ds["videos"].shape == (5, 8, 4, 8, 8)
    assert ds["videos"].dtype == np.float32


def test_build_dataset_errors():
    with pytest.raises(ParameterError):
        sg.build_dataset([("mystery_class", 1)], 0, MODEL)
    with pytest.raises(ParameterError):
        sg.build_dataset([("lowfreq_field", 0)], 0, MODEL)
    with pytest.raises(ParameterError):
        sg.build_dataset([], 0, MODEL)
    with pytest.raises(ParameterError):
        sg.build_dataset([(3.14, 1)], 0, MODEL)
    with pytest.raises(ParameterError, match="dataset spec count"):
        sg.build_dataset([("lowfreq_field", 10 ** 30)], 0, MODEL)
    # a repeated class would restart its streams and copy its first rows
    with pytest.raises(ParameterError, match="'lowfreq_field' is named twice"):
        sg.build_dataset([("lowfreq_field", 2), ("highfreq_particles", 1),
                          ("lowfreq_field", 3)], 4, MODEL)


def test_text_tokens_frozen_per_class():
    ds = sg.build_dataset([("lowfreq_field", 2), ("highfreq_particles", 1)], 5, MODEL)
    _, ids, text = sg.read_dataset(ds, "dataset")
    assert ids.tolist() == [0, 0, 1]
    assert np.array_equal(text[0], text[1])
    assert not np.array_equal(text[0], text[2])
    assert text.shape == (3, 2, 64)
    assert text.dtype == np.float32


def test_dataset_round_trips_through_a_container():
    spec = [("bandpass_texture", 2), ("lowfreq_field", 1), ("highfreq_particles", 1)]
    ds = sg.build_dataset(spec, 9, MODEL)
    videos, ids, text = sg.read_dataset(read_container(write_container(ds)), "dataset")
    assert videos.tobytes() == ds["videos"].tobytes()
    assert ids.tolist() == [2, 2, 0, 1]
    for row, cid in enumerate(ids):
        stored = ds[f"text.{sg.CLASS_NAMES[cid]}"]
        assert text[row].tobytes() == stored.tobytes()


def test_class_separation_low_vs_high():
    ds = sg.build_dataset([("lowfreq_field", 64), ("highfreq_particles", 64)], 1234, MODEL)
    d = joint_descriptor_detached(ds["videos"])
    mean_low, mean_high = d[:64].mean(axis=0), d[64:].mean(axis=0)
    l1 = float(np.abs(mean_low - mean_high).sum())
    assert l1 >= 0.2, f"class separation {l1} below 0.2"


# appearance band (coarse, band-pass, detail) that dominates each class
DOMINANT_BAND = {"lowfreq_field": 0, "bandpass_texture": 1, "highfreq_particles": 2}


def test_label_correctness_every_sample():
    ds = sg.build_dataset([("lowfreq_field", 16), ("highfreq_particles", 16),
                           ("bandpass_texture", 16)], 77, MODEL)
    d = joint_descriptor_detached(ds["videos"])
    for k, cid in enumerate(ds["class_ids"]):
        name = sg.CLASS_NAMES[int(cid)]
        got = int(np.argmax(d[k, :3]))
        assert got == DOMINANT_BAND[name], f"sample {k} ({name}): appearance bands {d[k, :3]}"
