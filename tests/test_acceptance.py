"""Acceptance gate: ten behavioral criteria covering the whole package.

Each criterion gets one test that measures the quantity it is about, prints a
single PASS/FAIL line with the measured value and its tolerance, and then
asserts. The lines are echoed again in an "acceptance criteria" section at the
end of the pytest run (see conftest.py), so `pytest tests/test_acceptance.py`
always ends with a readable verdict table.

The 2000-step desk training run is executed once, through the actual CLI, and
shared by the two desk-run criteria. Criterion 8 is expected to fail: the
motion proxy's log1p compression is deliberately not homogeneous in the input
scale, so the loss cannot meet the 1e-4 bound under latent rescaling (the
appearance half alone does; see test_spectral). The test states the bound
faithfully and stays red rather than papering over it.
"""

import time
from types import SimpleNamespace

import numpy as np
import pytest

import freqvfx.sampling
import freqvfx.tensor as fx
from freqvfx import cli
from freqvfx.adapt import VfxEmbedding, adapt, freq_constraint_loss
from freqvfx.config import AdaptConfig, ModelConfig, SampleConfig, TrainConfig, from_dict
from freqvfx.container import (manifest_path_for, read_container, read_container_file,
                               read_manifest, restore_state, write_container)
from freqvfx.denoiser import (build_adapter_stack, build_conditioning,
                              build_denoiser, build_model, denoise_step)
from freqvfx.errors import ChecksumError, ContainerError
from freqvfx.moe import MoeAdapter, RouterParams, route, split_rank_budget
from freqvfx.sampling import sample
from freqvfx.schedule import NoiseSchedule, forward_noise, sampling_grid
from freqvfx.spectral import (EPS_DEFAULT, SIGMA1_DEFAULT, SIGMA2_DEFAULT,
                              appearance_proxy, band_energies, decompose,
                              joint_descriptor, joint_descriptor_detached,
                              normalize_energies, vfx_proxy)
from freqvfx.synthgen import build_dataset, read_dataset
from freqvfx.tensor import Tensor
from freqvfx.train import AdamW, diffusion_loss, smoothed_endpoints, train_stage1

import oracles

RESULTS: list[str] = []


def record(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:2d} {'PASS' if ok else 'FAIL'}  {detail}"
    RESULTS.append(line)
    print(line)


def _maxerr(got, want) -> float:
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    return float(np.max(np.abs(got - want))) if got.size else 0.0


# ---------------------------------------------------------------------------
# 1. spectral pipeline vs independent oracles


def test_criterion_01_spectral_pipeline_matches_oracles():
    """Every stage (proxies, band split, energies, normalization, joint
    descriptor) agrees with scalar-loop / extended-precision references."""
    tol = 1e-6
    t0 = time.time()
    rng = np.random.default_rng(101)
    k1 = np.outer(*([oracles.gaussian_taps_scalar(SIGMA1_DEFAULT)] * 2))
    k2 = np.outer(*([oracles.gaussian_taps_scalar(SIGMA2_DEFAULT)] * 2))
    worst = 0.0
    for _ in range(100):
        b, t = int(rng.integers(1, 3)), int(rng.integers(2, 5))
        c = int(rng.integers(1, 3))
        h, w = int(rng.integers(5, 8)), int(rng.integers(5, 8))
        scale = 10.0 ** rng.uniform(-1.0, 1.0)
        z = (rng.standard_normal((b, t, c, h, w)) * scale).astype(np.float32)

        halves = []
        for proxy_fn, proxy_ref in ((appearance_proxy, oracles.appearance_scalar(z)),
                                    (vfx_proxy, oracles.vfx_scalar(z))):
            proxy = proxy_fn(z)
            worst = max(worst, _maxerr(proxy, proxy_ref))

            b1 = np.stack([[oracles.conv2d_replicate_scalar(proxy_ref[i, j], k1)
                            for j in range(c)] for i in range(b)])
            b2 = np.stack([[oracles.conv2d_replicate_scalar(proxy_ref[i, j], k2)
                            for j in range(c)] for i in range(b)])
            coarse_ref, band_ref, detail_ref = b2, b1 - b2, proxy_ref - b1
            parts = decompose(proxy)
            coarse, band, detail = parts
            worst = max(worst, _maxerr(coarse, coarse_ref),
                        _maxerr(band, band_ref),
                        _maxerr(detail, detail_ref))

            e_ref = np.stack([oracles.energy_scalar(part)
                              for part in (coarse_ref, band_ref, detail_ref)], axis=1)
            worst = max(worst, _maxerr(band_energies(parts), e_ref))

            n_ref = np.stack([oracles.normalize_mp(row, EPS_DEFAULT) for row in e_ref])
            worst = max(worst, _maxerr(normalize_energies(e_ref), n_ref))
            halves.append(n_ref)

        worst = max(worst, _maxerr(joint_descriptor_detached(z),
                                   np.concatenate(halves, axis=1)))
    dt = time.time() - t0
    ok = worst <= tol and dt < 60.0
    record(1, ok, f"spectral pipeline vs scalar/mpmath oracles on 100 f32 inputs: "
                  f"max err {worst:.2e} (tol 1e-6), {dt:.1f}s < 60s")
    assert ok


# ---------------------------------------------------------------------------
# 2. telescoping identity of the band split


def test_criterion_02_telescoping_identity():
    tol = 1e-6
    t0 = time.time()
    rng = np.random.default_rng(202)
    pairs = [(SIGMA1_DEFAULT, SIGMA2_DEFAULT)]
    while len(pairs) < 100:
        s1 = float(rng.uniform(0.15, 2.5))
        pairs.append((s1, s1 * float(rng.uniform(1.05, 3.0))))
    worst = 0.0
    for s1, s2 in pairs:
        shape = (int(rng.integers(1, 3)), int(rng.integers(1, 3)),
                 int(rng.integers(4, 9)), int(rng.integers(4, 9)))
        x = (rng.standard_normal(shape) * 10.0 ** rng.uniform(-1.0, 1.0)).astype(np.float32)
        coarse, band, detail = decompose(x, s1, s2)
        rebuilt = coarse + band + detail
        worst = max(worst, _maxerr(rebuilt, x.astype(np.float64)))
    dt = time.time() - t0
    ok = worst <= tol and dt < 60.0
    record(2, ok, f"coarse+band+detail rebuilds the input for 100 random "
                  f"(input, sigma1<sigma2) pairs incl. ({SIGMA1_DEFAULT}, {SIGMA2_DEFAULT}): "
                  f"max residual {worst:.2e} (tol 1e-6), {dt:.1f}s < 60s")
    assert ok


# ---------------------------------------------------------------------------
# 3. analytic gradients vs central finite differences (f64)


def test_criterion_03_gradients_match_finite_differences():
    rtol, atol = 1e-5, 1e-9
    floor = atol / rtol
    t0 = time.time()
    rng = np.random.default_rng(303)
    m = ModelConfig(latent_shape=(2, 2, 4, 4), width=16, num_steps=10, total_rank=8)
    params = build_denoiser(rng, latent_shape=m.latent_shape, width=m.width,
                            n_blocks=m.n_blocks, patch=m.patch, num_steps=m.num_steps,
                            diag_bias=m.diag_bias, cross_gain=m.cross_gain, dtype=np.float64)
    stack = build_adapter_stack(rng, params, m, dtype=np.float64)
    sched = NoiseSchedule.cosine(10)
    for p in stack.parameters().values():
        # move router and experts off their degenerate init (zeros give
        # vacuous gradient checks)
        p.data[...] = rng.normal(0.0, 0.1, size=p.data.shape)
    ds = build_dataset((("lowfreq_field", 2), ("highfreq_particles", 2)), 5, m)
    z0 = ds["videos"].astype(np.float64)
    cond = build_conditioning(params, z0, ds["text.lowfreq_field"].astype(np.float64))

    def train_value(*_):
        return float(diffusion_loss(z0, cond, params, stack, sched,
                                    np.random.default_rng(77))[0].data)

    with fx.Tape(stack.parameters().values()) as tape:
        loss, _ = diffusion_loss(z0, cond, params, stack, sched, np.random.default_rng(77))
    grads = fx.backward(tape, loss)

    worst = 0.0
    checked = 0
    named = stack.parameters()
    picks = [k for k in named if k.startswith("router.")]
    adapter_keys = sorted(k for k in named if k.startswith("adapter."))
    picks += [adapter_keys[int(i)] for i in rng.choice(len(adapter_keys), size=6,
                                                       replace=False)]
    for key in picks:
        p = named[key]
        coords = [int(j) for j in rng.choice(p.data.size,
                                             size=min(6, p.data.size), replace=False)]
        num = oracles.fd_grad(train_value, [p.data], wrt=0, step=1e-5, coords=coords)
        assert p in grads, key
        got = grads[p].data
        for j in coords:
            av, nv = float(got.ravel()[j]), float(num.ravel()[j])
            worst = max(worst, abs(av - nv) / (floor + max(abs(av), abs(nv))))
            checked += 1

    emb = VfxEmbedding.init(rng, length=4, width=16, std=AdaptConfig().embed_std,
                            dtype=np.float64)
    t_fix = 5
    eps_fix = rng.standard_normal(z0.shape)
    z_ref = forward_noise(Tensor(z0), t_fix, Tensor(eps_fix), sched).data

    # single-step unroll: routing weights come from the constant init noise,
    # so the deliberately non-differentiated routing path contributes nothing
    # and finite differences probe exactly what the tape differentiates
    def adapt_value(*_):
        gen0 = sample(params, stack, sched, cond.with_vfx(emb.tokens),
                      steps=1, cfg_scale=2.0, seed=0).video
        z_gen = forward_noise(gen0, t_fix, Tensor(eps_fix), sched)
        return float(freq_constraint_loss(z_gen, Tensor(z_ref)).data)

    with fx.Tape([emb.tokens]) as tape:
        gen0 = sample(params, stack, sched, cond.with_vfx(emb.tokens),
                      steps=1, cfg_scale=2.0, seed=0).video
        loss2 = freq_constraint_loss(forward_noise(gen0, t_fix, Tensor(eps_fix), sched),
                                     Tensor(z_ref))
    g_emb = fx.backward(tape, loss2)[emb.tokens].data
    coords = [int(j) for j in rng.choice(emb.tokens.data.size, size=12, replace=False)]
    num = oracles.fd_grad(adapt_value, [emb.tokens.data], wrt=0, step=1e-5, coords=coords)
    for j in coords:
        av, nv = float(g_emb.ravel()[j]), float(num.ravel()[j])
        worst = max(worst, abs(av - nv) / (floor + max(abs(av), abs(nv))))
        checked += 1

    dt = time.time() - t0
    ok = worst <= rtol and dt < 120.0
    record(3, ok, f"train loss grads (router+experts) and adaptation loss grads "
                  f"(embedding) vs central differences, {checked} coords: max rel "
                  f"err {worst:.2e} (tol 1e-5, abs floor {atol:g}), {dt:.1f}s < 120s")
    assert ok


# ---------------------------------------------------------------------------
# 4. routing contracts and the rank budget


def test_criterion_04_routing_contracts_and_param_count():
    t0 = time.time()
    rng = np.random.default_rng(404)
    router = RouterParams.init(rng, n_experts=4, hidden=16, tau=1.5)
    router.w2.data[...] = rng.normal(0.0, 0.4, size=router.w2.shape)
    router.b2.data[...] = rng.normal(0.0, 0.2, size=router.b2.shape)
    desc = np.abs(rng.standard_normal((64, 6)))
    desc /= desc.sum(axis=1, keepdims=True)
    pi = route(desc, router, top_k=3).data
    sum_err = float(np.max(np.abs(pi.sum(axis=1) - 1.0)))
    ok = bool(np.all(pi >= 0)) and sum_err <= 1e-6
    ok = ok and bool(np.all((pi > 0).sum(axis=1) <= 3))

    base_arg = np.argmax(pi, axis=1)
    for c in (0.25, 4.0, 50.0):
        scaled = RouterParams(w1=router.w1, b1=router.b1,
                              w2=fx.tensor(router.w2.data * c),
                              b2=fx.tensor(router.b2.data * c), tau=router.tau)
        arg = np.argmax(route(desc, scaled, top_k=3).data, axis=1)
        ok = ok and bool(np.array_equal(arg, base_arg))

    r, d_in, d_out = 16, 24, 40
    counts = []
    for m in (1, 2, 4, 8):
        ranks = split_rank_budget(r, m)
        assert sum(ranks) == r
        ad = MoeAdapter.init(np.random.default_rng(m), d_in=d_in, d_out=d_out, ranks=ranks)
        counts.append(oracles.adapter_param_count(ad))
    budget_ok = all(n == r * (d_in + d_out) for n in counts)
    dt = time.time() - t0
    ok = ok and budget_ok and dt < 10.0
    record(4, ok, f"weights nonneg, rows sum to 1 (err {sum_err:.1e} <= 1e-6), "
                  f"<= top_k nonzero, argmax stable under logit scaling; param "
                  f"count == 16*(24+40) for M in (1,2,4,8): {counts}, {dt:.1f}s < 10s")
    assert ok


# ---------------------------------------------------------------------------
# 5. freeze contracts


def test_criterion_05_freeze_contracts():
    t0 = time.time()
    rng = np.random.default_rng(505)
    m = ModelConfig(latent_shape=(2, 2, 4, 4), width=16, num_steps=10, total_rank=8)
    params, stack = build_model(m, rng)
    sched = NoiseSchedule.cosine(10)
    ds = build_dataset((("lowfreq_field", 4), ("highfreq_particles", 4)), 3, m)

    backbone_before = {k: t.data.copy() for k, t in params.named_arrays().items()}
    adapter_before = {k: t.data.copy() for k, t in stack.parameters().items()}
    train_stage1(*read_dataset(ds, "dataset"), TrainConfig(steps=30, batch_size=2, lr=1e-3, seed=0),
                 params, stack, sched)
    backbone_ok = all(np.array_equal(t.data, backbone_before[k])
                      for k, t in params.named_arrays().items())
    trained = any(not np.array_equal(t.data, adapter_before[k])
                  for k, t in stack.parameters().items())

    ref = ds["videos"][:2]
    cond = build_conditioning(params, ref, ds["text.lowfreq_field"])
    full_before = {k: t.data.copy()
                   for k, t in {**params.named_arrays(), **stack.parameters()}.items()}
    emb = VfxEmbedding.init(np.random.default_rng(0), length=4, width=16,
                            std=AdaptConfig().embed_std)
    emb_before = emb.tokens.data.copy()
    adapt(ref, cond, AdaptConfig(steps=5, lr=0.05, sample_steps=2, embed_tokens=4),
          params, stack, sched, embedding=emb)
    stage2_ok = all(np.array_equal(t.data, full_before[k])
                    for k, t in {**params.named_arrays(), **stack.parameters()}.items())
    emb_moved = not np.array_equal(emb.tokens.data, emb_before)

    dt = time.time() - t0
    ok = backbone_ok and trained and stage2_ok and emb_moved and dt < 60.0
    record(5, ok, f"training left {len(backbone_before)} backbone arrays "
                  f"bit-identical (adapters moved: {trained}); adaptation left "
                  f"backbone+router+experts bit-identical (embedding moved: "
                  f"{emb_moved}), {dt:.1f}s < 60s")
    assert ok


# ---------------------------------------------------------------------------
# 6 + 7. the shared desk-scale run


@pytest.fixture(scope="module")
def stage1_run(tmp_path_factory):
    """Dataset generation plus the 2000-step training run, through the CLI."""
    root = tmp_path_factory.mktemp("desk")
    t0 = time.time()
    assert cli.main(["gen", "--classes", "lowfreq_field:64,highfreq_particles:64",
                     "--seed", "2024", "--out", str(root / "data")]) == 0
    assert cli.main(["train", "--input", str(root / "data" / "dataset.fvl1"),
                     "--out", str(root / "run")]) == 0
    train_time = time.time() - t0

    ckpt = str(root / "run" / "checkpoint.fvl1")
    manifest = read_manifest(manifest_path_for(ckpt))
    entries = read_container_file(ckpt)
    params, stack = restore_state(entries, from_dict(ModelConfig, manifest.config["model"]))
    schedule = NoiseSchedule(alphas=entries["schedule.alphas"],
                             sigmas=entries["schedule.sigmas"])
    return SimpleNamespace(params=params, stack=stack, schedule=schedule,
                           manifest=manifest, train_time=train_time)


def test_criterion_06_stage1_desk_run(stage1_run):
    ex = stage1_run.manifest.extra
    ratio_thresh = ex["loss_ratio_threshold"]
    sep_thresh = ex["routing_separation_threshold"]
    ok = (ratio_thresh == 0.5 and sep_thresh == 0.1
          and ex["smoothed_final_loss"] <= ratio_thresh * ex["smoothed_initial_loss"]
          and ex["routing_separation_l1"] >= sep_thresh
          and stage1_run.train_time < 900.0)
    record(6, ok, f"2000 steps on 64 low-freq + 64 high-freq videos: smoothed loss "
                  f"{ex['smoothed_initial_loss']:.4f} -> {ex['smoothed_final_loss']:.4f} "
                  f"(ratio {ex['loss_ratio']:.4f} <= {ratio_thresh}), per-class routing "
                  f"gap {ex['routing_separation_l1']:.4f} >= {sep_thresh} L1, thresholds "
                  f"recorded in the run manifest, {stage1_run.train_time:.0f}s < 900s")
    assert ok


def test_criterion_07_stage2_desk_run(stage1_run):
    params, stack, sched = stage1_run.params, stage1_run.stack, stage1_run.schedule
    t0 = time.time()
    high = build_dataset((("highfreq_particles", 4),), 7, ModelConfig())
    low = build_dataset((("lowfreq_field", 4),), 11, ModelConfig())
    ref_high = high["videos"]
    cond = build_conditioning(params, ref_high, high["text.highfreq_particles"])

    # Deterministic warm-up that drags the fresh embedding toward the
    # low-frequency look, so adaptation starts from a genuinely mismatched
    # operating point instead of near-neutral noise.
    target = Tensor(joint_descriptor_detached(
        low["videos"]).mean(axis=0, keepdims=True))
    acfg = AdaptConfig()
    emb = VfxEmbedding.init(np.random.default_rng(0), length=acfg.embed_tokens,
                            width=params.width, std=acfg.embed_std)
    opt = AdamW([emb.tokens], lr=0.01, betas=acfg.betas, eps=acfg.adam_eps,
                weight_decay=acfg.weight_decay)
    bias_first = bias_last = 0.0
    for i in range(150):
        with fx.Tape(opt.params) as tape:
            gen = sample(params, stack, sched, cond.with_vfx(emb.tokens),
                         steps=8, cfg_scale=3.0, seed=0).video
            jd = joint_descriptor(gen)
            diff = oracles.sub(jd, target)
            loss = oracles.reduce_mean(oracles.reduce_sum(oracles.absolute(diff), axes=(1,)))
        bias_last = float(loss.data)
        if i == 0:
            bias_first = bias_last
        opt.step(fx.backward(tape, loss))
    assert bias_last < bias_first, "warm-up failed to bias the embedding"

    frozen_before = {k: t.data.copy()
                     for k, t in {**params.named_arrays(), **stack.parameters()}.items()}
    emb_before = emb.tokens.data.copy()
    cfg = AdaptConfig(steps=100, sample_cfg=3.0, n_draws=4)
    result = adapt(ref_high, cond, cfg, params, stack, sched, embedding=emb)
    first, last = smoothed_endpoints(result.losses, window=50)
    drop = 1.0 - last / first
    frozen_ok = all(np.array_equal(t.data, frozen_before[k])
                    for k, t in {**params.named_arrays(), **stack.parameters()}.items())
    emb_moved = not np.array_equal(emb.tokens.data, emb_before)

    # Self-reference fixpoint: the reference is the model's own sample under
    # the run's seed policy, so the loss must start at zero and stay there.
    emb2 = VfxEmbedding.init(np.random.default_rng(cfg.seed), length=cfg.embed_tokens,
                             width=params.width, std=cfg.embed_std)
    own = sample(params, stack, sched, cond.with_vfx(emb2.tokens),
                 steps=cfg.sample_steps, cfg_scale=cfg.sample_cfg,
                 seed=cfg.sample_seed).video.data
    fix = adapt(own, cond, AdaptConfig(steps=10, sample_cfg=3.0, n_draws=4),
                params, stack, sched, embedding=emb2)
    fix_max = float(np.max(np.abs(fix.losses)))

    dt = time.time() - t0
    ok = (drop >= 0.30 and frozen_ok and emb_moved and fix_max <= 1e-3
          and dt < 300.0)
    record(7, ok, f"100 adaptation steps vs a high-frequency reference from a "
                  f"low-frequency-biased start: smoothed loss {first:.4f} -> "
                  f"{last:.4f} (drop {drop:.1%} >= 30%), non-embedding arrays "
                  f"bit-identical: {frozen_ok}, fixpoint max loss {fix_max:.1e} "
                  f"<= 1e-3, {dt:.0f}s < 300s")
    assert ok


# ---------------------------------------------------------------------------
# 8. scale near-invariance of the frequency loss (known red)


def test_criterion_08_scale_near_invariance():
    """Stated bound: L_f(s*z, z) <= 1e-4 for s in {0.1, 0.5, 2, 10}.

    This fails by design of the motion proxy: log(1 + mean sq frame diff) is
    not homogeneous, so rescaling the latent shifts the normalized motion
    band shares by O(1e-2..1e-1). The appearance half alone meets the bound
    (covered in test_spectral); the joint loss cannot. Kept faithful and red.
    """
    tol = 1e-4
    t0 = time.time()
    rng = np.random.default_rng(808)
    z = rng.standard_normal((20, 8, 4, 8, 8)).astype(np.float32)
    per_scale = {}
    for s in (0.1, 0.5, 2.0, 10.0):
        vals = [float(freq_constraint_loss((s * z[i:i + 1]).astype(np.float32),
                                           z[i:i + 1]).data)
                for i in range(z.shape[0])]
        per_scale[s] = max(vals)
    worst = max(per_scale.values())
    dt = time.time() - t0
    ok = worst <= tol and dt < 10.0
    detail = ", ".join(f"s={s:g}: {v:.4f}" for s, v in per_scale.items())
    record(8, ok, f"loss under latent rescaling on 20 latents: max {worst:.4f} "
                  f"(tol 1e-4) [{detail}], {dt:.1f}s < 10s")
    assert ok, ("known red: the log1p motion proxy is not scale-invariant "
                f"(max {worst:.4f} > {tol}); the appearance half alone meets "
                "the bound")


# ---------------------------------------------------------------------------
# 9. sampling contracts


def test_criterion_09_sampling_contracts(monkeypatch):
    t0 = time.time()
    rng = np.random.default_rng(909)
    params, stack = build_model(ModelConfig(), rng)
    sched = NoiseSchedule.cosine(1000)
    ds = build_dataset((("highfreq_particles", 2),), 1, ModelConfig())
    z0 = ds["videos"]
    cond = build_conditioning(params, z0, ds["text.highfreq_particles"])
    scfg = SampleConfig()  # 30 steps, guidance 7.5

    a = sample(params, stack, sched, cond, steps=scfg.steps,
               cfg_scale=scfg.cfg_scale, seed=123)
    b = sample(params, stack, sched, cond, steps=scfg.steps,
               cfg_scale=scfg.cfg_scale, seed=123)
    deterministic = (np.array_equal(a.video.data, b.video.data)
                     and np.array_equal(a.descriptors, b.descriptors)
                     and np.array_equal(a.pi_cond, b.pi_cond))

    # cfg 1 must equal a conditional-only rollout, rebuilt here step by step
    init = np.random.default_rng(321).standard_normal(
        (2,) + params.latent_shape).astype(np.float32)
    got = sample(params, stack, sched, cond, steps=scfg.steps, cfg_scale=1.0,
                 init_noise=init)
    grid = sampling_grid(sched.num_steps, scfg.steps)
    z = Tensor(init.copy())
    for k in range(scfg.steps):
        t, t_next = int(grid[k]), int(grid[k + 1])
        pi = route(joint_descriptor_detached(z), stack.router, stack.top_k)
        eps_c = denoise_step(z, t, cond, params, stack, pi=pi)
        a_t, s_t = sched.alphas[t], sched.sigmas[t]
        a_n, s_n = sched.alphas[t_next], sched.sigmas[t_next]
        ratio = a_n / a_t
        c = float(s_n - ratio * s_t)
        z = oracles.add(oracles.mul(float(ratio), z), oracles.mul(c, eps_c))
    cond_only_ok = np.array_equal(got.video.data, z.data)

    # both guidance branches must be fed the very same routing object: per
    # cfg-7.5 step, one denoise_guided call whose `pi` reaches a conditional and
    # then an unconditional head
    calls, heads = [], []
    real_guided = freqvfx.sampling.denoise_guided
    real_step = freqvfx.sampling.denoise_step
    real_head = freqvfx.denoiser._head

    def spy_guided(z_t, t, c, p, s, *, pi=None):
        calls.append(("guided", int(t), c, pi))
        return real_guided(z_t, t, c, p, s, pi=pi)

    def spy_step(z_t, t, c, p, s, *, pi=None):
        calls.append(("uncond" if c is None else "cond", pi is not None))
        return real_step(z_t, t, c, p, s, pi=pi)

    def spy_head(x, c, p, s, pi):
        heads.append((c, pi))
        return real_head(x, c, p, s, pi)

    monkeypatch.setattr(freqvfx.sampling, "denoise_guided", spy_guided)
    monkeypatch.setattr(freqvfx.sampling, "denoise_step", spy_step)
    monkeypatch.setattr(freqvfx.denoiser, "_head", spy_head)
    sample(params, stack, sched, cond, steps=scfg.steps,
           cfg_scale=scfg.cfg_scale, seed=5)
    shared = len(calls) == scfg.steps and len(heads) == 2 * scfg.steps
    for k in range(scfg.steps if shared else 0):
        kind, t_k, c, pi = calls[k]
        (c_c, pi_c), (c_u, pi_u) = heads[2 * k], heads[2 * k + 1]
        shared = (shared and kind == "guided" and t_k == int(grid[k])
                  and c is cond and pi is not None
                  and c_c is cond and c_u is None and pi_c is pi and pi_u is pi)
    calls.clear()
    sample(params, stack, sched, cond, steps=scfg.steps, cfg_scale=1.0, seed=5)
    uncond_skipped = calls == [("cond", True)] * scfg.steps

    dt = time.time() - t0
    ok = deterministic and cond_only_ok and shared and uncond_skipped and dt < 120.0
    record(9, ok, f"30-step cfg-7.5 runs bit-identical across seeds reruns: "
                  f"{deterministic}; cfg=1 equals the conditional-only rollout "
                  f"bit for bit: {cond_only_ok}; branches share one routing "
                  f"object per step: {shared} (uncond skipped at cfg=1: "
                  f"{uncond_skipped}), {dt:.1f}s < 120s")
    assert ok


# ---------------------------------------------------------------------------
# 10. container format and the CLI selfcheck


def test_criterion_10_container_and_selfcheck():
    t0 = time.time()
    rng = np.random.default_rng(1010)
    pool = ["alpha", "b.weights", "videos", "λ-tokens", "deep/nested.name",
            "x" * 40]
    roundtrip_ok = True
    for i in range(50):
        entries = {}
        for j in rng.choice(len(pool), size=int(rng.integers(0, 6)), replace=False):
            rank = int(rng.integers(0, 5))
            shape = tuple(int(d) for d in rng.integers(0, 5, size=rank))
            dtype = np.float32 if rng.random() < 0.5 else np.float64
            arr = rng.standard_normal(shape).astype(dtype)
            if arr.size and rng.random() < 0.15:
                arr.flat[0] = np.nan
                arr.flat[-1] = np.inf
            entries[f"{pool[int(j)]}.{i}"] = arr
        back = read_container(write_container(entries))
        roundtrip_ok = roundtrip_ok and set(back) == set(entries)
        for name, arr in entries.items():
            out = back[name]
            roundtrip_ok = (roundtrip_ok and out.dtype == arr.dtype
                            and out.shape == arr.shape
                            and out.tobytes() == arr.tobytes())

    golden = bytes.fromhex(
        "46564c31010001000c00676f6c64656e5f656e747279010202000000020000"
        "000000803f0000004000004040000080406cc02df6")
    made = write_container({"golden_entry": np.array([[1, 2], [3, 4]],
                                                     dtype=np.float32)})
    golden_ok = made == golden

    corrupt_ok = True
    big = write_container({"a": rng.standard_normal((3, 4)).astype(np.float32),
                           "b": rng.standard_normal(7).astype(np.float64)})
    for blob in (golden, big):
        for pos in range(len(blob)):
            bad = bytearray(blob)
            bad[pos] ^= 0x40
            try:
                read_container(bytes(bad))
                corrupt_ok = False
            except ContainerError:
                pass
    bad = bytearray(golden)
    bad[40] ^= 0x01  # inside the payload region: must surface as a CRC failure
    with pytest.raises(ChecksumError):
        read_container(bytes(bad))

    rc = cli.main(["selfcheck"])
    dt = time.time() - t0
    ok = roundtrip_ok and golden_ok and corrupt_ok and rc == 0 and dt < 30.0
    record(10, ok, f"50 random containers round-trip bit-exactly: {roundtrip_ok}; "
                   f"52-byte golden file matches: {golden_ok}; every single-byte "
                   f"corruption rejected: {corrupt_ok}; selfcheck exit code {rc}, "
                   f"{dt:.1f}s < 30s")
    assert ok
