import math
import tracemalloc

import numpy as np
import pytest
from conftest import phi_reference
from scipy import integrate

from dmtsim.asymptotics import gas_scales
from dmtsim.ensemble import (
    EnsembleError,
    MCResult,
    RNG_ALGORITHM,
    analytic_phi00_avg,
    average_phi00,
)
from dmtsim import geometry
from dmtsim.geometry import (
    GasSpec,
    GeometryError,
    _philox_raw,
    _philox_uniforms,
    _sample_rng,
    _shell_draws,
    _shell_samples,
    pair_arrays,
    sample_gas,
)
from dmtsim.kernels import BathParams, KernelPolicy, _phi

ALPHA = 1.0 / 137.036


def bath(kappa=0.1):
    return BathParams(alpha=ALPHA, kappa=kappa)


def spec(density=1.7053e-3, l=10.0, horizon=25.0, seed=7, fixed_count=None):
    return GasSpec(
        density=density, exclusion_radius=l, horizon=horizon, seed=seed, fixed_count=fixed_count
    )


def shell_samples(s, n_samples, reach):
    """Each sample's (r, cos theta, counter) out of _shell_samples's batches,
    checking that the batches cover samples 0 .. n_samples - 1 once each.
    counter tells the route the generator took: whether it handed the sample
    to _shell_batch, whose _philox_uniforms call evaluates the kept atoms'
    cosines at their stream offsets, rather than draw all n from rng."""
    out, counter = {}, set()
    real = geometry._shell_batch

    def spy(deferred, seed):
        counter.update(i for i, _, _ in deferred)
        return real(deferred, seed)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geometry, "_shell_batch", spy)
        for index, sizes, r, cos_t in _shell_samples(s, n_samples, reach):
            assert len(index) == len(sizes) and r.size == cos_t.size == sum(sizes)
            stop = 0
            for i, size in zip(index, sizes):
                assert i not in out
                out[i] = r[stop : stop + size], cos_t[stop : stop + size]
                stop += size
    assert sorted(out) == list(range(n_samples))
    return [(*out[i], i in counter) for i in range(n_samples)]


@pytest.fixture
def draw_spy(monkeypatch):
    """Records each call of the two draw entry points average_phi00 reaches
    through geometry._shell_samples: _shell_draws (count and radii, once per
    sample) and _philox_uniforms (the cosines left in the stream, once per
    batch)."""
    calls = []
    for name in ("_shell_draws", "_philox_uniforms"):
        real = getattr(geometry, name)
        spy = lambda *args, _name=name, _real=real: calls.append(_name) or _real(*args)
        monkeypatch.setattr(geometry, name, spy)
    return calls


class TestAnalyticAverage:
    def test_vanishes_when_cone_fits_in_exclusion_ball(self):
        assert analytic_phi00_avg(spec(), bath(), 10.0) == 0.0

    def test_matches_numerical_shell_integral(self):
        # independent route: rho integral over the shell l <= r <= t of
        # 2 pi r^2 (alpha t / r^3)^2 (3u^2 - 1)^2 dr du
        rho, l, t = 3.7e-4, 6.0, 14.0
        s = spec(rho, l, 20.0)
        b = bath()

        def integrand(u, r):
            return rho * 2.0 * math.pi * r**2 * (ALPHA * t / r**3) ** 2 * (
                3.0 * u**2 - 1.0
            ) ** 2

        oracle, _ = integrate.dblquad(
            integrand, l, t, -1.0, 1.0, epsabs=1e-18, epsrel=1e-12
        )
        assert analytic_phi00_avg(s, b, t) == pytest.approx(oracle, rel=1e-10)

    def test_reduces_to_gas_rate_form(self):
        # gamma_g from the crossover scales is the same object:
        # <Phi_00> = gamma_g^2 t^2 (1 - (l/t)^3)
        rho, l, t = 3.7e-4, 6.0, 14.0
        s = spec(rho, l, 20.0)
        b = bath(0.4)
        g = gas_scales(rho, l, b)
        assert analytic_phi00_avg(s, b, t) == pytest.approx(
            g.gamma_g**2 * t**2 * (1.0 - (l / t) ** 3), rel=1e-13
        )

    def test_domain_errors(self):
        s = spec()
        with pytest.raises(EnsembleError):
            analytic_phi00_avg(s, bath(), 5.0)
        with pytest.raises(EnsembleError):
            analytic_phi00_avg(s, bath(), 30.0)
        with pytest.raises(EnsembleError):
            analytic_phi00_avg(s, bath(), math.inf)


class TestMonteCarlo:
    def test_mean_consistent_with_analytic_average(self):
        # ~100 light-cone atoms per sample; the sample mean over 1000 draws
        # should land within 3 standard errors of the exact shell average
        s = spec()
        b = bath()
        res = average_phi00(s, b, 20.0, 1000)
        target = analytic_phi00_avg(s, b, 20.0)
        assert abs(res.mean - target) <= 3.0 * res.std_error
        assert res.n_samples == 1000
        assert res.seed == 7
        assert res.algorithm == RNG_ALGORITHM

    def test_error_bar_shrinks_like_root_n(self):
        s = spec()
        b = bath()
        ses = [average_phi00(s, b, 20.0, n).std_error for n in (50, 200, 800)]
        assert 1.3 <= ses[0] / ses[1] <= 2.8
        assert 1.3 <= ses[1] / ses[2] <= 2.8

    def test_before_light_cone_far_field_is_exactly_zero(self):
        res = average_phi00(spec(), bath(), 5.0, 50)
        assert res.mean == 0.0
        assert res.std_error == 0.0

    def test_string_policy_rejected(self, draw_spy):
        # the value of a policy member is not the member; it is refused with
        # the other inputs, before any sample is drawn
        with pytest.raises(EnsembleError, match="KernelPolicy member"):
            average_phi00(spec(horizon=60.0), bath(), 20.0, 4, kernel_policy="farfield")
        assert draw_spy == []
        # the spy's positive control: the member itself draws every sample,
        # and the light-cone cosines from the stream
        average_phi00(spec(horizon=60.0), bath(), 12.0, 4, kernel_policy=KernelPolicy.FAR_FIELD)
        assert draw_spy == ["_shell_draws"] * 4 + ["_philox_uniforms"]

    @pytest.mark.parametrize("policy", list(KernelPolicy))
    def test_non_finite_sample_is_named(self, policy):
        # phi ~ alpha = 1e300 squares past the float range in sample 0's sum
        s = GasSpec(density=1e-3, exclusion_radius=10.0, horizon=40.0)
        b = BathParams(alpha=1e300, kappa=0.1)
        with pytest.raises(EnsembleError, match=r"sample 0 is not finite at t = 20$"):
            average_phi00(s, b, 20.0, 4, policy)

    def test_seed_determinism(self):
        a = average_phi00(spec(seed=42), bath(), 20.0, 64)
        b_ = average_phi00(spec(seed=42), bath(), 20.0, 64)
        c = average_phi00(spec(seed=43), bath(), 20.0, 64)
        assert a.mean == b_.mean and a.std_error == b_.std_error
        assert a.mean != c.mean

    def test_closed_form_policy_agrees_in_far_field_regime(self):
        # kappa l = 50: the closed kernel and its far-field limit differ per
        # pair by O(1 / kappa r), so paired means agree to well under 1%
        b5 = bath(5.0)
        s = spec(seed=11)
        ff = average_phi00(s, b5, 20.0, 200, kernel_policy=KernelPolicy.FAR_FIELD)
        cl = average_phi00(s, b5, 20.0, 200, kernel_policy=KernelPolicy.CLOSED_FORM)
        assert cl.mean == pytest.approx(ff.mean, rel=1e-2)

    def test_quadrature_policy_matches_analytic_reference(self):
        # replay the exact substreams the averager uses and evaluate the
        # closed + oscillatory reference on every sampled atom: the two
        # routes must agree to quadrature accuracy, not statistically
        s = spec(seed=5, fixed_count=6)
        b = bath(0.5)
        t, n = 20.0, 8
        qu = average_phi00(s, b, t, n, kernel_policy=KernelPolicy.QUADRATURE)
        totals = []
        for i in range(n):
            config, mask = sample_gas(s, rng=_sample_rng(s.seed, i))
            r, cos_t = pair_arrays(config, mask.selected, mask.unobserved)
            totals.append(
                sum(
                    phi_reference(t, rv, math.acos(cv), b.alpha, b.kappa) ** 2
                    for rv, cv in zip(r.ravel(), cos_t.ravel())
                )
            )
        assert qu.mean == pytest.approx(float(np.mean(totals)), rel=1e-6, abs=0)
        assert qu.mean > 0.0

    def test_fixed_count_mode(self):
        res = average_phi00(spec(fixed_count=57), bath(), 20.0, 16)
        assert res.mean > 0.0
        with pytest.raises(GeometryError):
            spec(fixed_count=-57)
        with pytest.raises(GeometryError):
            spec(fixed_count="57")

    def test_seed_is_the_unmasked_philox_key(self):
        # the top of the key range keys the substreams as given; GasSpec
        # rejects seeds past it, which a 64-bit mask would alias
        top = average_phi00(spec(seed=2**64 - 1), bath(), 20.0, 4)
        assert top.seed == 2**64 - 1 and top.mean > 0.0
        with pytest.raises(GeometryError, match="seed"):
            spec(seed=2**64 + 3)

    def test_domain_errors(self):
        with pytest.raises(EnsembleError):
            average_phi00(spec(), bath(), 30.0, 100)
        with pytest.raises(EnsembleError):
            average_phi00(spec(), bath(), 20.0, 1)
        with pytest.raises(EnsembleError):
            average_phi00(spec(), bath(), -1.0, 100)


COUNT_MODES = {"poisson": None, "fixed": 40}


def position_route(s, b, t, n, policy):
    """average_phi00 as computed from rebuilt positions: each (seed, i)
    substream builds sample_gas's configuration, and pair_arrays takes the
    selected atom's (r, cos theta) to every other atom from the positions."""
    totals = np.empty(n)
    for i in range(n):
        config, mask = sample_gas(s, rng=_sample_rng(s.seed, i))
        r, cos_t = pair_arrays(config, mask.selected, mask.unobserved)
        totals[i] = np.sum(_phi(t, r, cos_t**2, b, policy) ** 2)
    return totals.mean(), totals.std(ddof=1) / math.sqrt(n)


class TestSampledRoute:
    @pytest.mark.parametrize("count_mode", sorted(COUNT_MODES))
    @pytest.mark.parametrize("policy", list(KernelPolicy))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_the_position_route(self, seed, policy, count_mode):
        # the averager works on the drawn (r, cos theta) directly; the rebuilt
        # positions differ from them by rounding only
        s, b, t, n = spec(seed=seed, fixed_count=COUNT_MODES[count_mode]), bath(), 20.0, 12
        got = average_phi00(s, b, t, n, policy)
        mean, std_error = position_route(s, b, t, n, policy)
        assert got.mean > 0.0
        assert got.mean == pytest.approx(mean, rel=1e-12, abs=0.0)
        assert got.std_error == pytest.approx(std_error, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("count_mode", sorted(COUNT_MODES))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sample_gas_positions_come_from_the_draws(self, seed, count_mode):
        s = spec(seed=seed, fixed_count=COUNT_MODES[count_mode])
        l3, h3 = s.exclusion_radius**3, s.horizon**3
        mean = s.density * 4.0 * math.pi / 3.0 * (h3 - l3)
        drawn = shell_samples(s, 4, s.horizon)
        for i in range(4):
            r, kept, n = _shell_draws(s, _sample_rng(seed, i))
            assert np.array_equal(kept, np.arange(n))
            # the stream order: count, then r, then cos theta
            rng = _sample_rng(seed, i)
            fixed = COUNT_MODES[count_mode]
            assert n == (int(rng.poisson(mean)) if fixed is None else fixed)
            assert np.array_equal(r, (l3 + rng.random(n) * (h3 - l3)) ** (1.0 / 3.0))
            cos_t = rng.uniform(-1.0, 1.0, n)
            assert np.array_equal(drawn[i][0], r) and np.array_equal(drawn[i][1], cos_t)
            assert not drawn[i][2]  # every atom kept: the generator draws the cosines
            config, mask = sample_gas(s, rng=_sample_rng(seed, i))
            pos = config.positions[mask.unobserved]
            assert len(config) == r.size + 1 and np.all(config.positions[0] == 0.0)
            np.testing.assert_allclose(np.linalg.norm(pos, axis=1), r, rtol=1e-15, atol=0)
            np.testing.assert_allclose(pos[:, 2] / r, cos_t, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("count_mode", sorted(COUNT_MODES))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reach_keeps_the_unrestricted_draws_inside_it(self, seed, count_mode):
        # the atoms kept are bit for bit the unrestricted draws with r <= reach,
        # whether their cosines come from the generator or from the stream
        s = spec(seed=seed, fixed_count=COUNT_MODES[count_mode])
        for i in range(4):
            r_all, _, n = _shell_draws(s, _sample_rng(seed, i))
            cos_all = shell_samples(s, i + 1, s.horizon)[i][1]
            r_sorted = np.sort(r_all)
            edge = float(r_sorted[r_all.size // 2])  # one drawn atom's r
            # one atom kept of 40 or more: its cosine stays in the stream
            near = float(r_sorted[0])
            for reach in (0.5 * s.exclusion_radius, near, edge, 20.0, s.horizon):
                r, kept, n_reach = _shell_draws(s, _sample_rng(seed, i), reach)
                inside = r_all <= reach
                assert n_reach == n and np.array_equal(kept, np.flatnonzero(inside))
                assert np.array_equal(r, r_all[inside])
                r_batch, cos_t, counter = shell_samples(s, i + 1, reach)[i]
                assert counter == (reach <= near)
                assert np.array_equal(r_batch, r) and np.array_equal(cos_t, cos_all[inside])
            assert _shell_draws(s, _sample_rng(seed, i), 0.5 * s.exclusion_radius)[0].size == 0
            assert edge in _shell_draws(s, _sample_rng(seed, i), edge)[0]

    def test_empty_samples_average_to_zero(self):
        for policy in KernelPolicy:
            res = average_phi00(spec(fixed_count=0), bath(), 20.0, 3, policy)
            assert res.mean == 0.0 and res.std_error == 0.0


PHILOX_KEYS = [
    (0, 0), (0, 1), (0, 2**32 + 5), (0, 2**64 - 1),
    (2**64 - 1, 0), (2**64 - 1, 7), (2**64 - 1, 2**63 + 11),
]


def philox(key0, key1):
    return np.random.Philox(key=np.array([key0, key1], dtype=np.uint64))


class TestPhiloxEvaluation:
    @pytest.mark.parametrize("key0, key1", PHILOX_KEYS)
    def test_equals_random_raw_over_consecutive_blocks(self, key0, key1):
        raw = philox(key0, key1).random_raw(4 * 300)
        at = np.arange(raw.size)
        got = _philox_raw(key0, np.full(at.size, key1, dtype=np.uint64), at)
        assert got.dtype == np.uint64 and np.array_equal(got, raw)

    @pytest.mark.parametrize("key0, key1", PHILOX_KEYS)
    def test_equals_random_raw_far_into_the_stream(self, key0, key1):
        # advance(d) moves the counter d blocks on, to output 4 d
        for blocks in (2**20, 2**40 + 3, 2**61 - 5):
            bit_generator = philox(key0, key1)
            bit_generator.advance(blocks)
            at = np.uint64(4 * blocks) + np.arange(9, dtype=np.uint64)
            got = _philox_raw(key0, np.full(at.size, key1, dtype=np.uint64), at)
            assert np.array_equal(got, bit_generator.random_raw(9))

    def test_keys_and_offsets_mixed_in_one_call(self):
        rng = np.random.default_rng(3)
        key1 = np.array([k for _, k in PHILOX_KEYS[:4]], dtype=np.uint64)[rng.integers(0, 4, 500)]
        at = rng.integers(0, 4000, 500)
        got = _philox_uniforms(0, key1, at)
        for k in np.unique(key1):
            draws = np.random.Generator(philox(0, int(k))).random(4000)
            assert np.array_equal(got[key1 == k], draws[at[key1 == k]])

    def test_rekeyed_generator_restarts_the_substream(self):
        rng = _sample_rng(3, 0)
        rng.poisson(50.0), rng.random(7)
        assert _sample_rng(3, 9, rng) is rng
        fresh = _sample_rng(3, 9)
        assert rng.poisson(50.0) == fresh.poisson(50.0)
        assert np.array_equal(rng.random(13), fresh.random(13))

    @pytest.mark.parametrize("count_mode", ["poisson", "fixed"])
    def test_stream_cosines_at_every_buffer_position(self, count_mode):
        # the cosines left in the stream are rng.random(2 n)[n:] at the kept
        # atoms wherever in its block of four the count and the radii leave
        # the generator; numpy's buffer_pos is 1-4 after any draw
        seen = set()
        for i in range(24):
            fixed = None if count_mode == "poisson" else 400 + i  # n mod 4 takes every value
            s = spec(density=1e-3, l=10.0, horizon=60.0, seed=5, fixed_count=fixed)
            l3, h3 = s.exclusion_radius**3, s.horizon**3
            ref = _sample_rng(5, i)
            n = fixed if fixed else int(ref.poisson(s.density * 4.0 * math.pi / 3.0 * (h3 - l3)))
            draws = ref.random(2 * n)
            r_all = (l3 + draws[:n] * (h3 - l3)) ** (1.0 / 3.0)
            reach = float(np.sort(r_all)[2])  # three atoms kept
            rng = _sample_rng(5, i)
            r, _, _ = _shell_draws(s, rng, reach)
            state = rng.bit_generator.state
            # a sample takes far fewer than 2**64 blocks
            assert np.all(state["state"]["counter"][1:] == 0)
            seen.add(state["buffer_pos"])
            near = r_all <= reach
            assert np.array_equal(r, r_all[near])
            _, got, counter = shell_samples(s, i + 1, reach)[i]
            assert counter
            assert np.array_equal(got, -1.0 + 2.0 * draws[n:][near])
            # the generator is left after the radii
            assert np.array_equal(rng.random(n), draws[n:])
        assert seen == {1, 2, 3, 4}


def far_field_reference(s, b, t, n_samples):
    """average_phi00 under FAR_FIELD, sample by sample: every 2n uniforms
    from a fresh generator, the exact cut r <= t, and np.sum of phi^2."""
    l3, h3 = s.exclusion_radius**3, s.horizon**3
    totals = np.empty(n_samples)
    for i in range(n_samples):
        rng = _sample_rng(s.seed, i)
        if s.fixed_count is None:
            n = int(rng.poisson(s.density * 4.0 * math.pi / 3.0 * (h3 - l3)))
        else:
            n = s.fixed_count
        draws = rng.random(2 * n)
        r = (l3 + draws[:n] * (h3 - l3)) ** (1.0 / 3.0)
        cos_t = -1.0 + 2.0 * draws[n:]
        inside = r <= t
        phi = _phi(t, r[inside], cos_t[inside] ** 2, b, KernelPolicy.FAR_FIELD)
        totals[i] = np.sum(phi**2)
    return totals.mean(), totals.std(ddof=1) / math.sqrt(n_samples)


# about 3,650 atoms per Poisson sample; at t = 25.6 about one in 32 is kept,
# so some samples leave their cosines in the stream and others draw them
FAR_FIELD_TIMES = {"below_l": 5.0, "cone": 20.0, "both_routes": 25.6, "horizon": 80.0}


class TestFarFieldBits:
    @pytest.mark.parametrize("deferred_max", [7, geometry._DEFERRED_MAX])
    @pytest.mark.parametrize("when", sorted(FAR_FIELD_TIMES))
    @pytest.mark.parametrize("fixed_count", [None, 3000, 0], ids=["poisson", "fixed", "empty"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 2**64 - 1])
    def test_equals_the_per_sample_reference(self, monkeypatch, seed, fixed_count, when, deferred_max):
        monkeypatch.setattr(geometry, "_DEFERRED_MAX", deferred_max)
        s, b, t = spec(horizon=80.0, seed=seed, fixed_count=fixed_count), bath(), FAR_FIELD_TIMES[when]
        got = average_phi00(s, b, t, 40, KernelPolicy.FAR_FIELD)
        mean, std_error = far_field_reference(s, b, t, 40)
        assert got.mean == mean and got.std_error == std_error
        assert (got.mean > 0.0) == (when != "below_l" and fixed_count != 0)

    @pytest.mark.parametrize("fixed_count", [None, 3000])
    def test_one_estimate_takes_both_routes(self, fixed_count):
        s = spec(horizon=80.0, fixed_count=fixed_count)
        counter = [route for _, _, route in shell_samples(s, 40, 25.6)]
        assert 0 < sum(counter) < 40


class TestDeferredBatch:
    def test_memory_peak_stays_near_one_batch(self):
        # the gas_mc benchmark's inputs: about 14k atoms per sample, 50 of
        # them in the light cone at t = 20. Measured peaks: 0.74 MB with the
        # deferred cosines evaluated _DEFERRED_MAX atoms at a time, 16.7 MB
        # with all 2000 samples' in one batch.
        s = GasSpec(density=1.7053e-3, exclusion_radius=10.0, horizon=125.0, seed=0)
        average_phi00(s, bath(0.1), 20.0, 2000)  # warm-up: numpy's one-time allocations
        tracemalloc.start()
        try:
            average_phi00(s, bath(0.1), 20.0, 2000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3e6


class TestCountInputs:
    @pytest.mark.parametrize(
        "kwargs, error, message",
        [
            # numpy's Poisson draw refuses a mean this large
            ({"density": 1e30}, GeometryError, "Poisson mean atom count"),
            ({"fixed_count": 5.7}, GeometryError, "5.7"),
            ({"fixed_count": -1}, GeometryError, "integer >= 0"),
            # bool is an int subclass: True would draw one atom, or key Philox with 1
            ({"fixed_count": True}, GeometryError, "fixed_count must be an integer"),
            ({"seed": True}, GeometryError, "seed must be an integer"),
            ({"n_samples": 2.5}, EnsembleError, "integer"),
            # the shell volume's H^3 and l^3 overflow a float
            ({"horizon": 1e200}, GeometryError, "overflows"),
            ({"l": 1e103, "horizon": 2e103}, GeometryError, "overflows"),
        ],
        ids=[
            "poisson_mean", "fractional", "negative", "bool_count", "bool_seed",
            "n_samples", "horizon", "exclusion",
        ],
    )
    def test_rejected_before_any_draw(self, draw_spy, kwargs, error, message):
        # gas checks run when the spec is built, the sample count's before
        # the first substream
        n_samples = kwargs.pop("n_samples", 8)
        with pytest.raises(error, match=message):
            average_phi00(spec(**kwargs), bath(), 20.0, n_samples)
        assert draw_spy == []

    def test_draw_spy_sees_a_valid_estimate(self, draw_spy):
        # the positive control of the test above, on its spec and time
        average_phi00(spec(), bath(), 20.0, 8)
        assert draw_spy.count("_shell_draws") == 8

    def test_sample_gas_checks_the_same_counts(self):
        with pytest.raises(GeometryError, match="lam"):
            spec(density=1e30)
        with pytest.raises(GeometryError, match="integer >= 0"):
            spec(fixed_count=5.7)
        config, _ = sample_gas(spec(fixed_count=np.int64(5)))
        assert len(config) == 6

    @pytest.mark.parametrize("horizon", [1e200, 2e103])
    def test_fixed_count_cube_overflow_is_a_geometry_error(self, horizon):
        # the count is fixed, but the radii still draw from [l^3, H^3]
        with pytest.raises(GeometryError, match="overflows"):
            sample_gas(spec(horizon=horizon, fixed_count=3))
        with pytest.raises(GeometryError, match="overflows"):
            average_phi00(spec(horizon=horizon, fixed_count=3), bath(), 20.0, 4)


class TestCsv:
    def test_negative_error_bar_rejected(self):
        with pytest.raises(EnsembleError):
            MCResult(mean=0.0, std_error=-1.0, n_samples=2, seed=0)
