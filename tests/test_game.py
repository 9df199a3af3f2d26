import hashlib
import itertools
import math
import re

import numpy as np
import pytest

from eclab.agents import MissingPriorError
from eclab.diffengine import Tensor, tensor
from eclab.game import (
    BaselineState,
    GameConfig,
    GameError,
    NonFiniteLossError,
    RewoState,
    baseline_update,
    build_agents,
    joint_parameters,
    kl_estimate,
    load_parameters,
    play_batch,
    rewo_update,
    run_filter,
)
from eclab.meanings import enumerate_attr_val
from eclab.runner import RunConfig, RunnerError, build_space, resolve_preset


def tiny_config(**kw):
    base = dict(
        strategy="learned",
        beta_mode="off",
        entropy_coef=0.5,
        batch_size=6,
        hidden=8,
        embedding=4,
        vocab=3,
        max_len=4,
        lr=1e-3,
        l2=1e-4,
    )
    base.update(kw)
    return GameConfig(**base)


def tiny_game(config, seed=0, dtype=np.float64):
    space = enumerate_attr_val(2, 3)
    sender, receiver = build_agents(space, config, np.random.default_rng(seed), dtype=dtype)
    return space, sender, receiver


# ---------------------------------------------------------------------------
# scalar state updates


def test_baseline_first_batch_sets_mean():
    st = baseline_update(BaselineState(decay=0.95), np.array([1.0, 3.0]))
    assert st.value == 2.0
    st2 = baseline_update(st, np.array([4.0, 4.0]))
    assert st2.value == pytest.approx(0.95 * 2.0 + 0.05 * 4.0)
    assert st.value == 2.0  # states are immutable snapshots


def test_rewo_beta_sits_at_floor_under_high_loss():
    st = RewoState(beta=1e-3, beta0=1e-3, kappa=0.1, nu=0.01, ema_decay=0.99)
    for _ in range(50):
        st = rewo_update(st, 5.0)
    assert st.beta == pytest.approx(1e-3)
    assert st.loss_ema > 0.1


def test_rewo_beta_grows_once_loss_beats_target():
    st = RewoState(beta=1e-3, beta0=1e-3, kappa=0.1, nu=0.01, ema_decay=0.0)
    # ema_decay 0 makes the EMA equal the latest loss; growth factor is then
    # exp(nu * (kappa - loss)) exactly
    st = rewo_update(st, 0.05)
    assert st.beta == pytest.approx(1e-3 * math.exp(0.01 * 0.05))
    prev = st.beta
    for _ in range(10):
        st = rewo_update(st, 0.01)
        assert st.beta > prev
        prev = st.beta


def test_rewo_beta_caps_at_one():
    st = RewoState(beta=0.999999, beta0=1e-3, kappa=0.5, nu=10.0, ema_decay=0.0)
    st = rewo_update(st, 0.0)
    assert st.beta == 1.0
    with pytest.raises(NonFiniteLossError):
        rewo_update(st, float("nan"))


def test_rewo_ema_matches_hand_arithmetic():
    st = RewoState(beta=1e-3, ema_decay=0.9)
    st = rewo_update(st, 1.0)
    assert st.loss_ema == 1.0  # first sample seeds the EMA
    st = rewo_update(st, 0.0)
    assert st.loss_ema == pytest.approx(0.9)


def test_run_filter_threshold():
    assert run_filter(0.96)
    assert run_filter(0.95)
    assert not run_filter(0.949)
    assert not run_filter(1e-3)


def test_kl_estimate():
    assert kl_estimate([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert kl_estimate([0.0, -1.0], [-2.0, -2.0]) == pytest.approx(1.5)
    with pytest.raises(GameError):
        kl_estimate([0.0], [0.0, 1.0])


def test_config_validation():
    with pytest.raises(GameError):
        tiny_config(beta_mode="annealed")
    with pytest.raises(Exception):
        tiny_config(strategy="bogus")


@pytest.mark.parametrize(
    "field,bad,least",
    [
        ("batch_size", 0, 1),
        ("batch_size", -3, 1),
        ("hidden", 0, 1),
        ("embedding", 0, 1),
        ("max_len", 0, 1),
        ("vocab", 1, 2),
        ("iterations", 0, 1),
        ("eval_draws", 0, 1),
    ],
)
def test_config_rejects_impossible_sizes(field, bad, least):
    # a run's schedule is RunConfig's to check, the game's sizes GameConfig's
    run_field = field in ("iterations", "eval_draws")
    make, error = (RunConfig, RunnerError) if run_field else (tiny_config, GameError)
    with pytest.raises(error, match=f"{field} must be >= {least}, got {bad}"):
        make(**{field: bad})
    assert getattr(make(**{field: least}), field) == least


@pytest.mark.parametrize(
    "field,bad,rule,edge",
    [
        ("lr", -1.0, "> 0", math.ulp(0.0)),
        ("lr", 0.0, "> 0", math.ulp(0.0)),
        ("lr", math.nan, "> 0", math.ulp(0.0)),
        ("l2", -5.0, ">= 0", 0.0),
        ("baseline_decay", 2.0, "in [0, 1]", 1.0),
        ("baseline_decay", -0.5, "in [0, 1]", 0.0),
        ("rewo_ema_decay", 3.0, "in [0, 1]", 1.0),
        ("rewo_ema_decay", -0.5, "in [0, 1]", 0.0),
        ("beta0", 0.0, "in (0, 1]", math.ulp(0.0)),
        ("beta0", 1.5, "in (0, 1]", 1.0),
        ("k_u", 0.0, "> 0", math.ulp(0.0)),
        ("k_d", 0.0, "> 0", math.ulp(0.0)),
        ("k_r", 0.0, "> 0", math.ulp(0.0)),
        ("random_resample", "bogus", "per_step or per_message", "per_message"),
    ],
)
def test_config_rejects_out_of_range_settings(field, bad, rule, edge):
    # ``edge`` is the valid value nearest the bound that ``bad`` crosses
    with pytest.raises(GameError, match=re.escape(f"{field} must be {rule}, got {bad}")):
        tiny_config(**{field: bad})
    assert getattr(tiny_config(**{field: edge}), field) == edge


def test_initial_parameters_keep_their_pinned_hash():
    # a sha256 over every initial parameter, pinned when the agents still took
    # their sizes, caps and prior flag as keyword arguments: building them from
    # the config draws the same values in the same order
    digest = hashlib.sha256()
    for preset, strategy, beta_mode, dtype in itertools.product(
        ("smoke-attrval", "smoke-dyck", "exp2-attrval-4x8"),
        ("learned", "random"),
        ("off", "rewo"),
        (np.float32, np.float64),
    ):
        sizes = {"hidden": 16} if preset == "exp2-attrval-4x8" else {}
        config = resolve_preset(preset, strategy=strategy, beta_mode=beta_mode, **sizes)
        agents = build_agents(build_space(config), config, np.random.default_rng(7), dtype)
        params = joint_parameters(*agents)
        for name in sorted(params):
            digest.update(name.encode())
            digest.update(params[name].data.tobytes())
    assert digest.hexdigest() == (
        "3df2a55553c206914ceca878e9fb622abb66bd8cd78b73c7092c21ef286b3be8"
    )


# ---------------------------------------------------------------------------
# play_batch


def test_play_batch_returns_grads_for_every_parameter():
    config = tiny_config()
    space, sender, receiver = tiny_game(config)
    meanings = space.meanings[:6]
    stats, grads, baseline = play_batch(
        sender, receiver, meanings, config,
        rng=np.random.default_rng(1), baseline=BaselineState(decay=config.baseline_decay),
    )
    params = joint_parameters(sender, receiver)
    assert set(grads) == set(params)
    for name, g in grads.items():
        assert g.shape == params[name].shape, name
        assert np.all(np.isfinite(g)), name
    assert np.isfinite(stats.loss)
    assert stats.recon_loss > 0.0
    assert stats.entropy >= 0.0
    assert 1.0 <= stats.mean_length <= config.max_len
    assert stats.kl == 0.0 and stats.beta == 0.0 and stats.mean_log_prior is None
    assert baseline.value == pytest.approx(stats.baseline)
    # beta off: reward is exactly the reconstruction log-likelihood
    assert stats.reward_mean == pytest.approx(-stats.recon_loss, rel=1e-9)


def test_play_batch_is_deterministic_given_streams():
    config = tiny_config()

    def run():
        space, sender, receiver = tiny_game(config, seed=3)
        return play_batch(
            sender, receiver, space.meanings[:6], config,
            rng=np.random.default_rng(7), baseline=BaselineState(),
        )

    s1, g1, _ = run()
    s2, g2, _ = run()
    assert s1 == s2
    assert all(np.array_equal(g1[k], g2[k]) for k in g1)


def test_baseline_shift_touches_only_sender_grads():
    config = tiny_config()
    space, sender, receiver = tiny_game(config)
    meanings = space.meanings[:6]

    def grads_with_baseline(value):
        # decay=1.0 keeps the forced value through the update
        _, grads, _ = play_batch(
            sender, receiver, meanings, config,
            rng=np.random.default_rng(11),
            baseline=BaselineState(value=value, decay=1.0),
        )
        return grads

    g_low = grads_with_baseline(-5.0)
    g_high = grads_with_baseline(5.0)
    for name in g_low:
        same = np.array_equal(g_low[name], g_high[name])
        if name.startswith("receiver."):
            assert same, name  # reward is a constant wrt the receiver
        if name.startswith("sender.encoder.") or name.startswith("sender.out."):
            assert not same, name


def test_beta_zero_with_prior_matches_prior_free_game():
    space = enumerate_attr_val(2, 3)
    meanings = space.meanings[:6]
    cfg_off = tiny_config(beta_mode="off")
    cfg_vae = tiny_config(beta_mode="rewo")
    s_off, r_off = build_agents(space, cfg_off, np.random.default_rng(5), dtype=np.float64)
    s_vae, r_vae = build_agents(space, cfg_vae, np.random.default_rng(5), dtype=np.float64)
    _, g_off, _ = play_batch(
        s_off, r_off, meanings, cfg_off,
        rng=np.random.default_rng(13), baseline=BaselineState(),
    )
    stats, g_vae, _ = play_batch(
        s_vae, r_vae, meanings, cfg_vae,
        rng=np.random.default_rng(13), baseline=BaselineState(), beta=0.0,
    )
    assert stats.mean_log_prior is not None and stats.kl != 0.0
    for name in g_off:
        assert np.array_equal(g_off[name], g_vae[name]), name
    only_vae = set(g_vae) - set(g_off)
    assert only_vae == {"receiver.prior_out.W", "receiver.prior_out.b"}
    for name in only_vae:
        assert np.all(g_vae[name] == 0.0), name  # beta=0 silences the prior


def test_rewo_mode_requires_prior_head():
    config = tiny_config(beta_mode="off")
    space, sender, receiver = tiny_game(config)
    bad = tiny_config(beta_mode="rewo")
    with pytest.raises(GameError, match="prior"):
        play_batch(
            sender, receiver, space.meanings[:4], bad,
            rng=np.random.default_rng(0), baseline=BaselineState(),
        )


def test_nonfinite_parameters_raise_with_diagnostics():
    config = tiny_config()
    space, sender, receiver = tiny_game(config)
    bad = {"out.W": tensor(np.full(sender.out.W.shape, np.nan), dtype=np.float64)}
    sender.set_parameters(bad)
    with pytest.raises(NonFiniteLossError) as exc:
        play_batch(
            sender, receiver, space.meanings[:4], config,
            rng=np.random.default_rng(0), baseline=BaselineState(),
        )
    assert exc.value.details["bad_log_r"] > 0 or exc.value.details["bad_log_s"] > 0


def test_random_branching_game_needs_branch_rng():
    config = tiny_config(strategy="random")
    space, sender, receiver = tiny_game(config)
    with pytest.raises(Exception, match="rng"):
        play_batch(
            sender, receiver, space.meanings[:4], config,
            rng=np.random.default_rng(0), baseline=BaselineState(),
        )
    # and succeeds with one
    stats, _, _ = play_batch(
        sender, receiver, space.meanings[:4], config,
        rng=np.random.default_rng(0), baseline=BaselineState(),
        branch_rng=np.random.default_rng(1),
    )
    assert np.isfinite(stats.loss)


def test_load_parameters_roundtrip():
    config = tiny_config()
    space, sender, receiver = tiny_game(config)
    params = joint_parameters(sender, receiver)
    doubled = {k: Tensor._wrap(2.0 * t.data) for k, t in params.items()}
    load_parameters(sender, receiver, doubled)
    after = joint_parameters(sender, receiver)
    for k, t in after.items():
        assert np.array_equal(t.data, doubled[k].data), k
