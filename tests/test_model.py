import dataclasses
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import config_json

from rtgrowth.errors import ConfigError, StableRegime
from rtgrowth.model import (
    FluidConfig,
    theta_critical,
    upper_bound_m,
    validate_config,
    wang_tice_bound,
)

positive = st.floats(min_value=0.05, max_value=50.0, allow_nan=False)


def config_strategy():
    return st.builds(
        lambda rm, jump, mp, mm, g, th, l1, l2, hp, hm: FluidConfig(
            rho_plus=rm + jump,
            rho_minus=rm,
            mu_plus=mp,
            mu_minus=mm,
            g=g,
            theta=th,
            L1=l1,
            L2=l2,
            h_plus=hp,
            h_minus=hm,
        ),
        positive,
        positive,
        positive,
        positive,
        positive,
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        positive,
        positive,
        positive,
        positive,
    )


def test_reference_accepted(reference_config):
    assert validate_config(reference_config) is reference_config


def test_equal_densities_rejected(reference_config):
    cfg = dataclasses.replace(reference_config, rho_plus=1.0, rho_minus=1.0)
    with pytest.raises(ConfigError, match="rho_plus = 1.0 must exceed rho_minus = 1.0"):
        validate_config(cfg)


def test_zero_viscosity_names_field(reference_config):
    cfg = dataclasses.replace(reference_config, mu_minus=0.0)
    with pytest.raises(ConfigError, match="parameter 'mu_minus' must be > 0"):
        validate_config(cfg)


def test_nan_parameter_rejected(reference_config):
    cfg = dataclasses.replace(reference_config, g=float("nan"))
    with pytest.raises(ConfigError, match="parameter 'g' must be > 0"):
        validate_config(cfg)


def test_negative_surface_tension(reference_config):
    cfg = dataclasses.replace(reference_config, theta=-0.1)
    with pytest.raises(ConfigError, match="theta = -0.1 < 0"):
        validate_config(cfg)


def test_theta_critical_reference(reference_config):
    assert theta_critical(reference_config) == pytest.approx(9.8, abs=0.0)


def test_theta_critical_uses_larger_period():
    cfg = FluidConfig(
        rho_plus=2.0, rho_minus=1.0, mu_plus=0.1, mu_minus=0.1,
        g=1.0, theta=0.0, L1=2.0, L2=1.0, h_plus=1.0, h_minus=1.0,
    )
    assert theta_critical(cfg) == pytest.approx(4.0, rel=1e-15)


@given(cfg=config_strategy(), factor=st.floats(min_value=1.1, max_value=5.0))
@settings(max_examples=50, deadline=None)
def test_theta_critical_linear_in_density_jump(cfg, factor):
    scaled = dataclasses.replace(
        cfg, rho_plus=cfg.rho_minus + factor * cfg.density_jump
    )
    assert theta_critical(scaled) == pytest.approx(
        factor * theta_critical(cfg), rel=1e-12
    )


def test_upper_bound_reference(reference_config):
    # hand evaluation: branch1 = 9.8/4 * 10 = 24.5,
    # branch2 = (4 * (9.8 * 9.8)^2 / (9.8^2 * 0.2))^(1/3) = 1920.8^(1/3)
    m = upper_bound_m(reference_config)
    assert m == pytest.approx(min(24.5, 1920.8 ** (1.0 / 3.0)), rel=1e-14)
    assert m <= wang_tice_bound(reference_config) == pytest.approx(24.5)


def test_upper_bound_vanishes_at_threshold(reference_config):
    theta_c = theta_critical(reference_config)
    for eps in (1e-3, 1e-6, 1e-9):
        m = upper_bound_m(reference_config.with_theta((1.0 - eps) * theta_c))
        assert 0.0 < m < eps * 30.0


def test_upper_bound_strictly_decreasing(reference_config):
    theta_c = theta_critical(reference_config)
    ms = [
        upper_bound_m(reference_config.with_theta(f * theta_c))
        for f in (0.0, 0.2, 0.4, 0.6, 0.8, 0.99)
    ]
    assert all(a > b for a, b in zip(ms, ms[1:]))


@given(cfg=config_strategy())
@settings(max_examples=80, deadline=None)
def test_upper_bound_below_wang_tice(cfg):
    # first branch <= theta_c/(4 max L^2) * h-/mu- = g [rho] h- / (4 mu-),
    # for arbitrary h_plus, so m never exceeds the older bound
    if cfg.theta >= theta_critical(cfg):
        with pytest.raises(StableRegime):
            upper_bound_m(cfg)
        return
    assert upper_bound_m(cfg) <= wang_tice_bound(cfg) * (1.0 + 1e-12)


def test_stable_regime_raised(reference_config):
    theta_c = theta_critical(reference_config)
    for theta in (theta_c, 1.5 * theta_c):
        with pytest.raises(StableRegime):
            upper_bound_m(reference_config.with_theta(theta))


def test_json_round_trip(reference_config):
    text = config_json(reference_config)
    data = json.loads(text)
    assert set(data) == {
        "rho_plus", "rho_minus", "mu_plus", "mu_minus", "g",
        "theta", "L1", "L2", "h_plus", "h_minus",
    }
    assert FluidConfig.from_json(text) == reference_config


def test_with_theta_matches_a_field_copy(reference_config):
    for theta in (0.0, 1.5, 7.25):
        copy = FluidConfig(**{**dataclasses.asdict(reference_config), "theta": theta})
        assert reference_config.with_theta(theta) == copy
        assert reference_config.with_theta(theta).theta == theta
    assert reference_config.theta == 0.0


def test_json_rejects_unknown_and_missing_fields(reference_config):
    data = json.loads(config_json(reference_config))
    data["extra"] = 1.0
    with pytest.raises(ValueError, match="unknown"):
        FluidConfig.from_json(json.dumps(data))
    del data["extra"], data["g"]
    with pytest.raises(ValueError, match="missing"):
        FluidConfig.from_json(json.dumps(data))


def test_json_accepts_only_finite_numbers(reference_config):
    text = config_json(reference_config)
    assert FluidConfig.from_json(text.replace("0.0", "0")).theta == 0.0
    for raw in ('"1.5"', "true", "null", "NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400):
        with pytest.raises(ConfigError, match="parameter 'theta' must be a finite number"):
            FluidConfig.from_json(text.replace('"theta": 0.0', f'"theta": {raw}'))


def test_non_finite_parameter_rejected(reference_config):
    for name, value in (("rho_plus", math.inf), ("theta", math.nan), ("theta", math.inf)):
        with pytest.raises(ConfigError, match=f"parameter '{name}' must be a finite number"):
            validate_config(dataclasses.replace(reference_config, **{name: value}))

