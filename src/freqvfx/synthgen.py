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
``(seed, class_id, sample_index)``; those draws are the same on every
platform. The bytes of a video also depend on numpy's float64 ``exp`` (the
gaussian taps), on the C library's ``cos`` and ``sin`` (the lowfreq phases)
and on the order in which each blur sums its taps, so the same seed and shape
give the same bytes from run to run on one machine, and
`tests/test_synthgen.py` checks them there against the per-frame loops kept in
`tests/oracles.py`. Videos are rescaled to unit RMS; class identity lives in
the spectrum and dynamics, not in energy scale.

A dataset exists only as the entries of one ``.fvl1`` container:
`build_dataset` makes them and `read_dataset` checks them and returns the
arrays that training reads by row.

Design note: sparks keep fixed positions inside one sample and re-sample
their amplitude each frame. Re-sampling positions per frame spreads squared
frame differences over many sites, and a nonnegative field supported on many
sites is provably coarse-heavy under the analysis blurs (the margin ceiling
for detail-over-coarse is about +0.06, reached by a few well separated
spikes). Fixed, well separated sites keep the motion energy field inside
that narrow feasible region.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .config import ModelConfig, check_elements
from .container import check_entries, checked_entry
from .errors import ContainerError, ParameterError, ShapeError
from .spectral import gaussian_kernel_1d

_TEXT_STREAM_TAG = 9000  # stream namespace for per-class conditioning tokens

# the effect classes; a class's id, which a dataset stores, is its index here
CLASS_NAMES = ("lowfreq_field", "highfreq_particles", "bandpass_texture")


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


@functools.lru_cache(maxsize=64)
def _clamp_taps(n: int, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """The (n, 2r+1) clamp-to-edge sample index and the gaussian taps of a blur
    along an axis of length n, read-only and shared."""
    taps = gaussian_kernel_1d(sigma)
    r = (len(taps) - 1) // 2
    idx = np.clip(np.arange(n)[:, None] + np.arange(-r, r + 1)[None, :], 0, n - 1)
    idx.setflags(write=False)
    taps.setflags(write=False)
    return idx, taps


def _blur_last(a: np.ndarray, sigma: float) -> np.ndarray:
    idx, taps = _clamp_taps(a.shape[-1], sigma)
    return (a[..., idx] * taps).sum(-1)


def _blur2d(x: np.ndarray, sigma: float) -> np.ndarray:
    """Separable clamp-to-edge gaussian blur over the trailing two axes, rows
    first; each output sums its taps in tap order."""
    return _blur_last(_blur_last(x, sigma).swapaxes(-1, -2), sigma).swapaxes(-1, -2)


def _unit_rms(z: np.ndarray) -> np.ndarray:
    """z over its root mean square; the mean sums in z's memory order, so the
    bytes also depend on z's layout."""
    rms = math.sqrt(float((z ** 2).mean()))
    return z / rms if rms > 0 else z


def gen_lowfreq_field(seed, shape) -> np.ndarray:
    """Smooth blurred patterns rotating slowly between two phases."""
    seed = _check_seed(seed)
    b, t, c, h, w = _check_shape(shape)
    out = np.empty((b, t, c, h, w), dtype=np.float64)
    for bi in range(b):
        rng = _stream(seed, 0, bi)
        p1 = _blur2d(rng.standard_normal((c, h, w)), 2.0)
        p2 = _blur2d(rng.standard_normal((c, h, w)), 2.0)
        phi0 = rng.uniform(0.0, 2.0 * math.pi)
        theta = [phi0 + 2.0 * math.pi * 0.35 * (ti / t) for ti in range(t)]  # 0.35 cycles per clip
        cos = np.array([math.cos(x) for x in theta]).reshape(t, 1, 1, 1)
        sin = np.array([math.sin(x) for x in theta]).reshape(t, 1, 1, 1)
        out[bi] = cos * p1 + sin * p2  # rescaled in out's C order, as the frame loop did
        out[bi] = _unit_rms(out[bi])
    return out.astype(np.float32)


def _spark_sites(rng: np.random.Generator, k: int, h: int, w: int,
                 min_sep: int = 3, tries: int = 400) -> list[tuple[int, int]]:
    """Up to k interior sites with pairwise Chebyshev distance >= min_sep; each
    try draws a row, then a column."""
    lo_i, hi_i = (1, h - 2) if h >= 3 else (0, h - 1)
    lo_j, hi_j = (1, w - 2) if w >= 3 else (0, w - 1)
    sites: list[tuple[int, int]] = []
    for _ in range(tries):
        if len(sites) == k:
            break
        i = int(rng.integers(lo_i, hi_i + 1))
        j = int(rng.integers(lo_j, hi_j + 1))
        for a, b in sites:
            if abs(i - a) < min_sep and abs(j - b) < min_sep:
                break
        else:
            sites.append((i, j))
    return sites


def gen_highfreq_particles(seed, shape) -> np.ndarray:
    """Checkerboard sparkle plus isolated sign-flipping spark sites, one site per
    16 pixels of frame area; a frame too small for one site gives an all-zero
    video."""
    seed = _check_seed(seed)
    b, t, c, h, w = _check_shape(shape)
    k = int(round(h * w / 16.0))
    out = np.zeros((b, t, c, h, w), dtype=np.float64)
    if k == 0:
        return out.astype(np.float32)
    ii, jj = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    carrier = (-1.0) ** (ii + jj)
    flips = (-1.0) ** np.arange(t)  # a spark's sign flips every frame
    for bi in range(b):
        rng = _stream(seed, 1, bi)
        env = 1.0 + 0.2 * _blur2d(rng.standard_normal((c, h, w)), 1.5)
        sparkle = _unit_rms(env * carrier)
        sparks = np.zeros((t, c, h, w))
        for ci in range(c):
            for (i, j) in _spark_sites(rng, k, h, w):
                s0 = -1.0 if rng.random() < 0.5 else 1.0
                sparks[:, ci, i, j] = s0 * flips * rng.uniform(0.9, 1.1, size=t)
        srms = math.sqrt(float((sparks ** 2).mean()))
        if srms > 0:
            sparks /= srms
        out[bi] = _unit_rms(sparkle[None] + 0.8 * sparks)
    return out.astype(np.float32)


def gen_bandpass_texture(seed, shape) -> np.ndarray:
    """Difference-of-gaussians texture whose brightness flickers per frame."""
    seed = _check_seed(seed)
    b, t, c, h, w = _check_shape(shape)
    out = np.empty((b, t, c, h, w), dtype=np.float64)
    for bi in range(b):
        rng = _stream(seed, 2, bi)
        noise = rng.standard_normal((c, h, w))
        pattern = _blur2d(noise, 0.5) - _blur2d(noise, 1.2)
        mod = 1.0 + 0.5 * rng.uniform(-1.0, 1.0, size=t)
        out[bi] = mod.reshape(t, 1, 1, 1) * pattern  # rescaled in out's C order
        out[bi] = _unit_rms(out[bi])
    return out.astype(np.float32)


_GENERATORS = (gen_lowfreq_field, gen_highfreq_particles, gen_bandpass_texture)  # by class id


def class_text_tokens(seed: int, class_id: int, *, n_tokens: int, width: int) -> np.ndarray:
    """Frozen per-class conditioning tokens, stream (seed, 9000 + class_id)."""
    rng = _stream(seed, _TEXT_STREAM_TAG + class_id, 0)
    return (0.5 * rng.standard_normal((n_tokens, width))).astype(np.float32)


def build_dataset(spec, seed, model: ModelConfig) -> dict[str, np.ndarray]:
    """The container entries of a labeled dataset of `model`'s latent shape.

    `spec` lists (class name, count) pairs, each class at most once. The
    entries are `videos` in spec order, float64 `class_ids` (one per video), and
    one `text.<class>` of `model`'s text-token count and width per class in
    spec order. The same (spec, seed, model) gives identical bytes.
    """
    seed = _check_seed(seed)
    if not spec:
        raise ParameterError("dataset spec must list at least one (class, count) pair")
    counts: dict[int, int] = {}
    for name, count in spec:
        if name not in CLASS_NAMES:
            raise ParameterError(f"unknown effect class {name!r}; known: {sorted(CLASS_NAMES)}")
        if int(count) < 1:
            raise ParameterError(f"count for class {name!r} must be >= 1, got {count}")
        cid = CLASS_NAMES.index(name)
        # each entry restarts its class's streams at index 0, so a repeat would copy rows
        if cid in counts:
            raise ParameterError(f"class {name!r} is named twice in the dataset spec")
        counts[cid] = int(count)
    shape = tuple(model.latent_shape)
    check_elements("dataset spec count", sum(counts.values()), math.prod(shape))
    entries = {
        "videos": np.concatenate([_GENERATORS[cid](seed, (n,) + shape)
                                  for cid, n in counts.items()]),
        "class_ids": np.repeat([float(cid) for cid in counts], list(counts.values())),
    }
    for cid in counts:
        entries[f"text.{CLASS_NAMES[cid]}"] = class_text_tokens(
            seed, cid, n_tokens=model.n_text_tokens, width=model.width)
    return entries


def read_dataset(entries: dict[str, np.ndarray],
                 source: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (videos, int class ids, per-row text tokens) of a dataset container.

    Its entries must fit the dataset table (`container.check_entries`), give
    one class id per video, each naming an effect class, and hold the text
    entry of every id, all of one shape; anything else is a ContainerError
    naming the entry.
    """
    check_entries("dataset", entries, None, source)
    videos, class_ids = entries["videos"], entries["class_ids"]
    if class_ids.shape != videos.shape[:1]:
        raise ContainerError(f"{source}: 'class_ids' {class_ids.shape} does not give one "
                             f"id per video of 'videos' {videos.shape}")
    known = np.isin(class_ids, np.arange(len(CLASS_NAMES)))
    if not known.all():
        raise ContainerError(f"{source}: 'class_ids' holds {float(class_ids[~known][0])}, which "
                             f"names no effect class; known ids: 0..{len(CLASS_NAMES) - 1}")
    ids, rows = np.unique(class_ids.astype(np.int64), return_inverse=True)
    table = []
    for cid in ids:
        shape = table[0].shape if table else (None, None)
        table.append(checked_entry(entries, f"text.{CLASS_NAMES[cid]}", shape, None, source))
    return videos, ids[rows], np.stack(table)[rows]
