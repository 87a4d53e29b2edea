"""Deterministic synthetic latent videos with controlled spectral signatures.

Three effect classes cover the corners of the joint descriptor space:

* ``lowfreq_field``: heavily blurred patterns drifting slowly, so the coarse
  band dominates the appearance indicator.
* ``highfreq_particles``: a static checkerboard-carrier sparkle plus a few
  isolated spark sites whose amplitudes flip sign every frame. Detail energy
  beats coarse energy on both the appearance and the motion proxy.
* ``bandpass_texture``: difference-of-gaussians texture with amplitude
  flicker; the band-pass share is the largest appearance component.

All randomness comes from counter-based Philox streams keyed by
``(seed, class_id, sample_index)``, so any sample can be regenerated
bit-exactly on any platform. Videos are rescaled to unit RMS; class identity
lives in the spectrum and dynamics, not in energy scale.

Design note: sparks keep fixed positions inside one sample and re-sample
their amplitude each frame. Re-sampling positions per frame spreads squared
frame differences over many sites, and a nonnegative field supported on many
sites is provably coarse-heavy under the analysis blurs (the margin ceiling
for detail-over-coarse is about +0.06, reached by a few well separated
spikes). Fixed, well separated sites keep the motion energy field inside
that narrow feasible region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import ModelConfig
from .errors import ParameterError, ShapeError
from .tensor import gaussian_kernel_1d

SPATIAL_PROFILES = ("low", "band", "high")
TEMPORAL_PROFILES = ("static", "drift", "flicker")

_TEXT_STREAM_TAG = 9000  # stream namespace for per-class conditioning tokens


@dataclass(frozen=True)
class EffectClass:
    """A synthetic effect family: identity plus spectral/temporal profile."""

    class_id: int
    name: str
    spatial_profile: str
    temporal_profile: str

    def __post_init__(self):
        if self.spatial_profile not in SPATIAL_PROFILES:
            raise ParameterError(
                f"spatial profile must be one of {SPATIAL_PROFILES}, got {self.spatial_profile!r}")
        if self.temporal_profile not in TEMPORAL_PROFILES:
            raise ParameterError(
                f"temporal profile must be one of {TEMPORAL_PROFILES}, got {self.temporal_profile!r}")


LOWFREQ_FIELD = EffectClass(0, "lowfreq_field", "low", "drift")
HIGHFREQ_PARTICLES = EffectClass(1, "highfreq_particles", "high", "flicker")
BANDPASS_TEXTURE = EffectClass(2, "bandpass_texture", "band", "flicker")

CLASS_REGISTRY = {
    c.name: c for c in (LOWFREQ_FIELD, HIGHFREQ_PARTICLES, BANDPASS_TEXTURE)
}

# appearance-indicator index that should dominate for each spatial profile
PROFILE_BAND_INDEX = {"low": 0, "band": 1, "high": 2}


def _check_shape(shape) -> tuple[int, int, int, int, int]:
    shape = tuple(int(s) for s in shape)
    if len(shape) != 5:
        raise ShapeError(f"latent video shape must be (B, T, C, H, W), got {shape}")
    if any(s < 1 for s in shape):
        raise ShapeError(f"all dims must be >= 1, got {shape}")
    return shape


def _check_seed(seed) -> int:
    seed = int(seed)
    if seed < 0:
        raise ParameterError(f"seed must be a nonnegative integer, got {seed}")
    return seed


def _stream(seed: int, class_id: int, index: int) -> np.random.Generator:
    """Philox stream for one sample; documented key is (seed, class_id, index)."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, class_id, index))))


def _blur2d(x: np.ndarray, sigma: float) -> np.ndarray:
    """Separable clamp-to-edge gaussian blur over the trailing two axes."""
    taps = gaussian_kernel_1d(sigma)
    r = (len(taps) - 1) // 2
    offs = np.arange(-r, r + 1)

    def along(a, axis):
        n = a.shape[axis]
        idx = np.clip(np.arange(n)[:, None] + offs[None, :], 0, n - 1)
        moved = np.moveaxis(a, axis, -1)
        out = (moved[..., idx] * taps).sum(-1)
        return np.moveaxis(out, -1, axis)

    return along(along(x, -1), -2)


def _unit_rms(z: np.ndarray) -> np.ndarray:
    rms = math.sqrt(float((z ** 2).mean()))
    return z / rms if rms > 0 else z


def gen_lowfreq_field(seed, shape, *, drift: float = 0.35,
                      pattern_sigma: float = 2.0) -> np.ndarray:
    """Smooth blurred patterns rotating slowly between two phases.

    ``drift`` counts rotation cycles across the clip; 0 gives a static video
    (every frame bit-identical), which in turn zeroes the motion descriptor.
    """
    seed = _check_seed(seed)
    b, t, c, h, w = _check_shape(shape)
    out = np.empty((b, t, c, h, w), dtype=np.float64)
    for bi in range(b):
        rng = _stream(seed, LOWFREQ_FIELD.class_id, bi)
        p1 = _blur2d(rng.standard_normal((c, h, w)), pattern_sigma)
        p2 = _blur2d(rng.standard_normal((c, h, w)), pattern_sigma)
        phi0 = rng.uniform(0.0, 2.0 * math.pi)
        for ti in range(t):
            theta = phi0 + 2.0 * math.pi * drift * (ti / t)
            out[bi, ti] = math.cos(theta) * p1 + math.sin(theta) * p2
        out[bi] = _unit_rms(out[bi])
    return out.astype(np.float32)


def _spark_sites(rng: np.random.Generator, k: int, h: int, w: int,
                 min_sep: int = 3, tries: int = 400) -> list[tuple[int, int]]:
    """Up to k interior sites with pairwise Chebyshev distance >= min_sep."""
    lo_i, hi_i = (1, h - 2) if h >= 3 else (0, h - 1)
    lo_j, hi_j = (1, w - 2) if w >= 3 else (0, w - 1)
    sites: list[tuple[int, int]] = []
    for _ in range(tries):
        if len(sites) == k:
            break
        i = int(rng.integers(lo_i, hi_i + 1))
        j = int(rng.integers(lo_j, hi_j + 1))
        if all(max(abs(i - a), abs(j - b)) >= min_sep for a, b in sites):
            sites.append((i, j))
    return sites


def gen_highfreq_particles(seed, shape, *, density: float = 1.0 / 16.0,
                           spark_gain: float = 0.8,
                           envelope_wiggle: float = 0.2) -> np.ndarray:
    """Checkerboard sparkle plus isolated sign-flipping spark sites.

    ``density`` scales the spark count (sites per frame area); 0 turns the
    whole class off and returns an all-zero video.
    """
    seed = _check_seed(seed)
    if density < 0:
        raise ParameterError(f"density must be >= 0, got {density}")
    b, t, c, h, w = _check_shape(shape)
    k = int(round(density * h * w))
    out = np.zeros((b, t, c, h, w), dtype=np.float64)
    if density == 0.0 or k == 0:
        return out.astype(np.float32)
    ii, jj = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    carrier = (-1.0) ** (ii + jj)
    for bi in range(b):
        rng = _stream(seed, HIGHFREQ_PARTICLES.class_id, bi)
        env = 1.0 + envelope_wiggle * _blur2d(rng.standard_normal((c, h, w)), 1.5)
        sparkle = _unit_rms(env * carrier)
        sparks = np.zeros((t, c, h, w))
        for ci in range(c):
            for (i, j) in _spark_sites(rng, k, h, w):
                s0 = -1.0 if rng.random() < 0.5 else 1.0
                for ti in range(t):
                    sparks[ti, ci, i, j] = s0 * ((-1.0) ** ti) * rng.uniform(0.9, 1.1)
        srms = math.sqrt(float((sparks ** 2).mean()))
        if srms > 0:
            sparks /= srms
        out[bi] = _unit_rms(sparkle[None] + spark_gain * sparks)
    return out.astype(np.float32)


def gen_bandpass_texture(seed, shape, *, amplitude: float = 1.0,
                         flicker: float = 0.5,
                         dog_sigmas: tuple[float, float] = (0.5, 1.2)) -> np.ndarray:
    """Difference-of-gaussians texture whose brightness flickers per frame.

    The output RMS equals ``amplitude``; 0 gives an all-zero video.
    """
    seed = _check_seed(seed)
    if amplitude < 0:
        raise ParameterError(f"amplitude must be >= 0, got {amplitude}")
    sa, sb = dog_sigmas
    if not 0 < sa < sb:
        raise ParameterError(f"need 0 < sigma_a < sigma_b, got {dog_sigmas}")
    b, t, c, h, w = _check_shape(shape)
    out = np.zeros((b, t, c, h, w), dtype=np.float64)
    if amplitude == 0.0:
        return out.astype(np.float32)
    for bi in range(b):
        rng = _stream(seed, BANDPASS_TEXTURE.class_id, bi)
        noise = rng.standard_normal((c, h, w))
        pattern = _blur2d(noise, sa) - _blur2d(noise, sb)
        mod = 1.0 + flicker * rng.uniform(-1.0, 1.0, size=t)
        for ti in range(t):
            out[bi, ti] = mod[ti] * pattern
        out[bi] = amplitude * _unit_rms(out[bi])
    return out.astype(np.float32)


_GENERATORS = {
    LOWFREQ_FIELD.name: gen_lowfreq_field,
    HIGHFREQ_PARTICLES.name: gen_highfreq_particles,
    BANDPASS_TEXTURE.name: gen_bandpass_texture,
}


@dataclass
class Sample:
    """One labeled synthetic clip plus its class conditioning tokens."""

    video: np.ndarray        # (T, C, H, W) float32
    effect: EffectClass
    class_id: int
    text_tokens: np.ndarray  # (n_text_tokens, width) float32


@dataclass
class SynthDataset:
    """Samples in spec order; regenerable bit-exactly from (spec, seed)."""

    samples: list[Sample]
    seed: int
    spec: tuple[tuple[str, int], ...] = field(default_factory=tuple)

    def __len__(self) -> int:
        return len(self.samples)


def _resolve_class(entry) -> EffectClass:
    if isinstance(entry, EffectClass):
        if CLASS_REGISTRY.get(entry.name) != entry:
            raise ParameterError(f"unknown effect class {entry.name!r}")
        return entry
    if isinstance(entry, str):
        if entry not in CLASS_REGISTRY:
            raise ParameterError(
                f"unknown effect class {entry!r}; known: {sorted(CLASS_REGISTRY)}")
        return CLASS_REGISTRY[entry]
    raise ParameterError(f"effect class must be a name or EffectClass, got {type(entry).__name__}")


def class_text_tokens(seed: int, effect: EffectClass, *, n_tokens: int,
                      width: int) -> np.ndarray:
    """Frozen per-class conditioning tokens, stream (seed, 9000 + class_id)."""
    rng = _stream(seed, _TEXT_STREAM_TAG + effect.class_id, 0)
    return (0.5 * rng.standard_normal((n_tokens, width))).astype(np.float32)


def build_dataset(spec, seed, model: ModelConfig) -> SynthDataset:
    """Generate a labeled dataset of `model`'s latent shape, with its width and
    text-token count; same (spec, seed) gives identical bytes."""
    seed = _check_seed(seed)
    if not spec:
        raise ParameterError("dataset spec must list at least one (class, count) pair")
    norm_spec: list[tuple[str, int]] = []
    samples: list[Sample] = []
    for entry, count in spec:
        effect = _resolve_class(entry)
        count = int(count)
        if count < 1:
            raise ParameterError(f"count for class {effect.name!r} must be >= 1, got {count}")
        norm_spec.append((effect.name, count))
        tokens = class_text_tokens(seed, effect, n_tokens=model.n_text_tokens,
                                   width=model.width)
        videos = _GENERATORS[effect.name](seed, (count,) + tuple(model.latent_shape))
        for bi in range(count):
            samples.append(Sample(video=videos[bi], effect=effect,
                                  class_id=effect.class_id, text_tokens=tokens))
    return SynthDataset(samples=samples, seed=seed, spec=tuple(norm_spec))


def mean_joint_descriptor(dataset: SynthDataset, class_id: int) -> np.ndarray:
    """Mean (6,) descriptor over the clean latents of one class."""
    from .spectral import joint_descriptor_detached

    vids = [s.video for s in dataset.samples if s.class_id == class_id]
    if not vids:
        raise ParameterError(f"dataset has no samples with class_id {class_id}")
    batch = np.stack(vids, axis=0)
    return joint_descriptor_detached(batch).mean(axis=0)
