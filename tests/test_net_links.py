"""Unit tests for link delay models and their per-link draws."""

from __future__ import annotations

import random

import pytest

from repro.errors import ConfigurationError
from repro.net.links import (AsymmetricDelay, FixedDelay,
                             HeterogeneousDelay, JitteredDelay, UniformDelay)


RNG = random.Random(99)


def draw(model, sender, recipient, rng=RNG):
    """One delay of the link ``sender -> recipient``."""
    return model.link_draw(sender, recipient, rng)()


def draws(model, sender, recipient, rng, k):
    link = model.link_draw(sender, recipient, rng)
    return [link() for _ in range(k)]


def test_delta_must_be_positive():
    with pytest.raises(ConfigurationError):
        FixedDelay(delta=0.0)


class TestFixedDelay:
    def test_default_is_half_delta(self):
        model = FixedDelay(delta=0.01)
        assert draw(model, 0, 1, RNG) == pytest.approx(0.005)

    def test_explicit_value(self):
        model = FixedDelay(delta=0.01, value=0.002)
        assert draw(model, 0, 1, RNG) == 0.002

    def test_value_above_delta_rejected(self):
        with pytest.raises(ConfigurationError):
            FixedDelay(delta=0.01, value=0.02)

    def test_zero_value_rejected(self):
        with pytest.raises(ConfigurationError):
            FixedDelay(delta=0.01, value=0.0)


class TestUniformDelay:
    def test_samples_within_range(self):
        model = UniformDelay(delta=0.01, lo=0.001, hi=0.009)
        rng = random.Random(5)
        assert all(0.001 <= d <= 0.009 for d in draws(model, 0, 1, rng, 200))

    def test_defaults_within_delta(self):
        model = UniformDelay(delta=0.01)
        rng = random.Random(5)
        assert all(0 < d <= 0.01 for d in draws(model, 0, 1, rng, 100))

    def test_inverted_range_rejected(self):
        with pytest.raises(ConfigurationError):
            UniformDelay(delta=0.01, lo=0.009, hi=0.001)

    def test_hi_above_delta_rejected(self):
        with pytest.raises(ConfigurationError):
            UniformDelay(delta=0.01, lo=0.001, hi=0.02)


class TestAsymmetricDelay:
    def test_direction_dependence(self):
        model = AsymmetricDelay(delta=0.01, forward=0.009, backward=0.001)
        assert draw(model, 0, 5, RNG) == 0.009  # low -> high
        assert draw(model, 5, 0, RNG) == 0.001  # high -> low

    def test_defaults_are_maximally_skewed(self):
        model = AsymmetricDelay(delta=0.01)
        assert draw(model, 0, 1, RNG) > draw(model, 1, 0, RNG)

    def test_direction_values_bounded(self):
        with pytest.raises(ConfigurationError):
            AsymmetricDelay(delta=0.01, forward=0.05)


class TestJitteredDelay:
    def test_never_exceeds_delta(self):
        model = JitteredDelay(delta=0.01, base=0.001, jitter_mean=0.02)
        rng = random.Random(6)
        assert all(d <= 0.01 for d in draws(model, 0, 1, rng, 500))

    def test_at_least_base(self):
        model = JitteredDelay(delta=0.01, base=0.002, jitter_mean=0.001)
        rng = random.Random(6)
        assert all(d >= 0.002 for d in draws(model, 0, 1, rng, 100))

    def test_bad_base_rejected(self):
        with pytest.raises(ConfigurationError):
            JitteredDelay(delta=0.01, base=0.05)

    def test_jitter_tail_exists(self):
        """With heavy jitter, some samples should land well above base —
        the regime the min-of-k estimation optimization targets."""
        model = JitteredDelay(delta=0.01, base=0.001, jitter_mean=0.005)
        rng = random.Random(7)
        samples = draws(model, 0, 1, rng, 300)
        assert max(samples) > 0.005
        assert min(samples) < 0.002


class TestHeterogeneousDelay:
    def test_default_classes(self):
        model = HeterogeneousDelay(delta=0.01)
        rng = random.Random(3)
        lan = draws(model, 0, 2, rng, 50)  # same parity
        wan = draws(model, 0, 1, rng, 50)  # mixed parity
        assert max(lan) <= 0.10 * 0.01 + 1e-12
        assert min(wan) >= 0.5 * 0.01 - 1e-12
        assert max(wan) <= 0.01

    def test_symmetric_classification(self):
        model = HeterogeneousDelay(delta=0.01)
        rng_a, rng_b = random.Random(4), random.Random(4)
        assert draw(model, 1, 4, rng_a) == draw(model, 4, 1, rng_b)

    def test_custom_classifier(self):
        model = HeterogeneousDelay(
            delta=0.01, classifier=lambda a, b: (0.001, 0.002))
        rng = random.Random(5)
        assert 0.001 <= draw(model, 0, 1, rng) <= 0.002

    def test_bad_classifier_rejected(self):
        model = HeterogeneousDelay(
            delta=0.01, classifier=lambda a, b: (0.0, 0.5))
        with pytest.raises(ConfigurationError):
            draw(model, 0, 1, random.Random(6))

    def test_protocol_on_lan_wan_mix(self):
        """End-to-end: the Theorem 5 bound (driven by the global delta)
        holds on a LAN/WAN mix, and typical deviation is better than the
        all-WAN worst case would suggest."""
        from repro.runner.builders import benign_scenario, default_params
        from repro.runner.experiment import run

        params = default_params(n=6, f=1)
        result = run(benign_scenario(params, duration=6.0, seed=61,
                                     delay_model=HeterogeneousDelay(params.delta)))
        assert result.max_deviation(2.0) <= params.bounds().max_deviation


# The per-link draw replaced a per-message ``sample`` chain; these
# literals are the delays that chain gave on the same seed, so a draw
# that reorders float operations or RNG calls fails here.
FROZEN_DRAWS = [
    (FixedDelay(delta=0.01), 0, 1, [0.005] * 4),
    (UniformDelay(delta=0.01), 0, 1,
     [0.003914494883498461, 0.0023576425653205175,
      0.006858410257358684, 0.0016519265800078848]),
    (AsymmetricDelay(delta=0.01), 0, 1, [0.01] * 4),
    (AsymmetricDelay(delta=0.01), 1, 0, [0.0005] * 4),
    (JitteredDelay(delta=0.01, base=0.002, jitter_mean=0.003), 0, 1,
     [0.003173944532704413, 0.002490555371016435,
      0.0051574868542127806, 0.0022255813797198367]),
    (JitteredDelay(delta=0.01, base=0.001, jitter_mean=0.02), 0, 1,
     [0.008826296884696085, 0.004270369140109563, 0.01,
      0.0025038758647989105, 0.01, 0.01]),
    (HeterogeneousDelay(delta=0.01), 1, 0,
     [0.006619163824165812, 0.005754245869622509,
      0.00825467236519927, 0.0053621814333377135]),
    (HeterogeneousDelay(delta=0.01), 0, 2,
     [0.0006619163824165812, 0.000575424586962251,
      0.0008254672365199269, 0.0005362181433337714]),
    (HeterogeneousDelay(delta=0.01, classifier=lambda a, b: (0.004, 0.01)),
     1, 2, [0.0059429965889989745, 0.004905095043547011,
            0.007905606838239123]),
]


@pytest.mark.parametrize("model, sender, recipient, expected", FROZEN_DRAWS)
def test_link_draw_repeats_the_frozen_delays(model, sender, recipient, expected):
    assert draws(model, sender, recipient, random.Random(7),
                 len(expected)) == expected


def test_sample_is_one_link_draw():
    model = UniformDelay(delta=0.01)
    assert model.sample(0, 1, random.Random(7)) == 0.003914494883498461


class TestDrawOutsideDelta:
    """The draw itself checks every delay into ``(0, delta]``."""

    def test_uniform_option_above_delta_raises_at_the_draw(self):
        model = UniformDelay(delta=0.01)
        model.hi = 0.05  # past the constructor's check
        link = model.link_draw(0, 1, random.Random(7))
        with pytest.raises(ConfigurationError, match="outside"):
            for _ in range(100):
                link()

    def test_jittered_option_below_zero_raises_at_the_draw(self):
        model = JitteredDelay(delta=0.01, base=0.002, jitter_mean=0.001)
        model.base = -1.0  # past the constructor's check
        link = model.link_draw(0, 1, random.Random(7))
        with pytest.raises(ConfigurationError, match="outside"):
            link()

    def test_classifier_above_delta_raises_at_the_first_send(self):
        from repro.net.network import Network
        from repro.net.topology import full_mesh
        from repro.sim.engine import Simulator

        model = HeterogeneousDelay(
            delta=0.01, classifier=lambda a, b: (0.001, 0.02))
        network = Network(Simulator(seed=1), full_mesh(2), model)
        for _ in range(2):  # a failed draw is not cached
            with pytest.raises(ConfigurationError, match="classifier"):
                network.send(0, 1, "x")
