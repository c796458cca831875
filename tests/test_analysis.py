import functools
import itertools
import math
import random
import re
from fractions import Fraction

import pytest

from pofsig import analysis, wots
from pofsig.adversary import (
    ForgeryBudget,
    build_lamport_preimage_index,
    chain_preimages,
    chain_tops,
    match_probabilities,
)
from pofsig.analysis import (
    ExperimentConfig,
    exact_expectation,
    fda_bounds,
    preimage_census,
    run_fda_experiment,
    run_scenario,
    trial_rng,
    undetected_probability,
)
from pofsig.core import BitString, LamportParams, derive_wots_params
from pofsig.errors import BudgetExceeded, DomainError, InvalidParams
from pofsig.oracle import chain, chain_steps
from pofsig.pof import verify_pof2
from reference import (
    bound_constant,
    exact_expectation_by_summation,
    exhaustive_undetected_rate,
    lamport_image_fraction,
    minimize_bound_constant,
)

WP = derive_wots_params(6, 2, 4, 2)


class TestBounds:
    def test_lower_bound_delta0(self):
        b = fda_bounds(10, 0)
        assert b.lower == pytest.approx(math.exp(-1), rel=1e-12)

    def test_exact_expectation_n10(self):
        b = fda_bounds(10, 0)
        assert b.exact_expectation == pytest.approx(0.63230, abs=5e-5)

    def test_upper_bound_delta4(self):
        assert fda_bounds(8, 4).upper == pytest.approx(5.22 / 16, rel=1e-12)

    def test_closed_form_matches_summation(self):
        for n in (4, 8, 12):
            for delta in (0, 2, 4, 6):
                closed = exact_expectation(n, delta)
                summed = exact_expectation_by_summation(n, delta)
                assert abs(closed - summed) < 1e-12

    def test_bracket_holds(self):
        for n in range(4, 13):
            for delta in range(0, 7):
                b = fda_bounds(n, delta)
                assert b.lower < b.exact_expectation < b.upper

    def test_rejects_bad_params(self):
        with pytest.raises(InvalidParams):
            fda_bounds(0, 0)

    @pytest.mark.parametrize("n,delta", [(8, 2.0), (8.0, 2), ("8", 2)])
    def test_rejects_non_integers(self, n, delta):
        with pytest.raises(InvalidParams, match="must be an integer"):
            fda_bounds(n, delta)

    def test_huge_delta_underflows_to_zero(self):
        b = fda_bounds(8, 1100)
        assert (b.lower, b.upper, b.exact_expectation) == (0.0, 0.0, 0.0)

    def test_huge_n_reaches_the_limit(self):
        # (1 - 2^-n)^(2^n) -> 1/e, so E[1/N] -> (1 - e^-(2^delta)) / 2^delta
        assert abs(exact_expectation(1100, 0) - 0.6321205588) < 1e-10
        assert abs(exact_expectation(1100, 0) - (1 - math.exp(-1))) < 1e-12
        assert exact_expectation(1030, 3) == pytest.approx((1 - math.exp(-8)) / 8)

    def test_in_range_values_equal_the_direct_formula(self):
        # bit-identical to evaluating the closed form term by term
        for n in range(1, 1023, 7):
            for delta in (*range(13), 63, 64, 65, 300, 1023 - n):
                if n + delta >= 1024:
                    continue
                direct = float(2 ** (n + delta)) * math.log1p(-(2.0 ** -n))
                direct = (1.0 - math.exp(direct)) / 2 ** delta
                assert exact_expectation(n, delta) == direct, (n, delta)
                assert fda_bounds(n, delta).lower == math.exp(-(2.0 ** delta))


class TestBoundConstant:
    def test_paper_choice(self):
        assert bound_constant(0.36) == pytest.approx(5.219, abs=5e-4)

    def test_diverges_at_poles(self):
        assert bound_constant(1e-6) > 1e5
        assert bound_constant(1 - 1e-6) > 1e10

    def test_outside_unit_interval(self):
        for k in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(DomainError):
                bound_constant(k)

    def test_numeric_minimum(self):
        k_min, value = minimize_bound_constant()
        assert 5.21 <= value <= 5.22
        assert abs(k_min - 0.361) < 0.01
        # stationarity: 2k^2 = (1-k)^3 at the minimum
        assert abs(2 * k_min ** 2 - (1 - k_min) ** 3) < 1e-4


class TestExperiment:
    def test_lamport_bracket(self):
        # the 0/1 count is the Monte Carlo cross-check of exact-given-H
        cfg = ExperimentConfig("lamport", LamportParams(8, 2), 2000, 4242)
        r = run_fda_experiment(cfg)
        assert r.estimator == "exact-given-H"
        assert r.undetected_count + r.detected_count == r.trials
        for rate in (r.monte_carlo_rate, r.bounds.exact_expectation):
            assert abs(r.undetected_rate - rate) <= 3 * r.monte_carlo_stderr
        for rate in (r.undetected_rate, r.monte_carlo_rate):
            assert r.bounds.lower < rate < r.bounds.upper
        assert r.verdict == "pass"

    def test_deterministic_given_seed(self):
        cfg = ExperimentConfig("lamport", LamportParams(8, 2), 500, 7)
        assert run_fda_experiment(cfg) == run_fda_experiment(cfg)

    def test_evidence_sound_for_every_detected_trial(self):
        cfg = ExperimentConfig("wots", WP, 100, 11)
        r = run_fda_experiment(cfg)
        assert r.evidence_ok_count == r.detected_count
        assert r.avg_matching_positions is not None

    def test_config_validation(self):
        with pytest.raises(InvalidParams):
            ExperimentConfig("other", LamportParams(8, 2), 10, 0)
        with pytest.raises(InvalidParams):
            ExperimentConfig("lamport", LamportParams(8, 2), 0, 0)

    @pytest.mark.parametrize("params", [None, (8, 2), "lamport"])
    def test_config_refuses_what_are_not_params(self, params):
        with pytest.raises(InvalidParams, match="LamportParams or WotsParams"):
            ExperimentConfig("lamport", params, 10, 0)

    @pytest.mark.parametrize("trials", [2.5, 10.0, "10", None])
    def test_config_refuses_non_integer_trials(self, trials):
        with pytest.raises(InvalidParams, match="trials must be an integer"):
            ExperimentConfig("lamport", LamportParams(8, 2), trials, 0)

    @pytest.mark.parametrize(
        "scheme,params",
        [
            ("lamport", derive_wots_params(6, 2, 4, 2)),
            ("wots", LamportParams(8, 2)),
            ("other", derive_wots_params(6, 2, 4, 2)),
        ],
    )
    def test_scheme_must_match_params(self, scheme, params):
        with pytest.raises(InvalidParams):
            ExperimentConfig(scheme, params, 10, 0)

    def test_report_text_and_csv(self):
        cfg = ExperimentConfig("lamport", LamportParams(8, 2), 200, 3)
        r = run_fda_experiment(cfg)
        text = analysis.report_text(r)
        assert "undetected rate" in text
        row = analysis.csv_row(r)
        assert row.count(",") == analysis.CSV_HEADER.count(",")


class TestTrialSeeds:
    def test_nearby_master_seeds_share_no_first_draw(self):
        # master ^ t made masters 0x2a and 0x2b run the same trials, swapped
        a = {trial_rng(0x2A, t).random() for t in range(1000)}
        b = {trial_rng(0x2B, t).random() for t in range(1000)}
        assert len(a) == len(b) == 1000
        assert a.isdisjoint(b)


def brute_force_probability(params, factor):
    """Mean over every ordered pair M != M* of the product of
    factor[b_i][b*_i] over the l positions."""
    ext = [wots.extend(BitString.from_int(v, params.L), params) for v in range(1 << params.L)]
    products = [
        math.prod(factor[x][y] for x, y in zip(b, b_star))
        for i, b in enumerate(ext)
        for j, b_star in enumerate(ext)
        if i != j
    ]
    return math.fsum(products) / len(products)


class TestExactEstimator:
    @pytest.mark.parametrize(
        "args",
        [(6, 2, 4, 2), (4, 1, 4, 2), (6, 1, 6, 1), (6, 1, 6, 3), (5, 0, 8, 4),
         (5, 1, 8, 2), (5, 1, 8, 8)],
    )
    def test_checksum_dp_matches_pair_enumeration(self, args):
        params = derive_wots_params(*args)
        w, rng = params.w, random.Random(sum(args))
        # the forger's shape, g(s) below the known depth a, then any matrix
        g = [rng.uniform(0.01, 1.0) for _ in range(w - 1)]
        forger = [[g[s] if s < a else 1.0 for s in range(w)] for a in range(w)]
        full = [[1.0 if s == a else rng.uniform(0.01, 1.0) for s in range(w)] for a in range(w)]
        for factor in (forger, full):
            assert undetected_probability(params, factor) == pytest.approx(
                brute_force_probability(params, factor), rel=1e-12)

    @pytest.mark.parametrize(
        "factor",
        [[[1.0] * 4] * 3, [[1.0] * 3] * 4, [[1.0] * 4] * 3 + [[1.0] * 3],
         [[1.0] * 4] * 5, [[1.0, 0.5, 1.0, 1.0]] * 4, [[0.5] * 4] * 4],
        ids=["3 rows", "3 columns", "a short row", "5 rows", "one diagonal 0.5",
             "no unit entry"],
    )
    def test_factor_not_square_with_a_unit_diagonal_refused(self, factor):
        with pytest.raises(InvalidParams, match="4 x 4 matrix with a unit diagonal"):
            undetected_probability(WP, factor)

    def test_match_probabilities_follow_their_definition(self):
        # factor[a][s] = g(s) = E_sk[1 / |depth-s preimages of top(sk)|]
        # over uniform sk where s < a, and 1 where the forger advances
        params = derive_wots_params(4, 1, 4, 2)
        r = wots.keygen(params, random.Random(8)).r
        bits, top = params.sk_bits, params.w - 1
        sk_tops = [chain(params, r, 0, top, BitString.from_int(v, bits))
                   for v in range(1 << bits)]
        g = []
        for d in range(top):
            count = {y: chain_preimages(params, r, d, y, ForgeryBudget()).count
                     for y in set(sk_tops)}
            g.append(math.fsum(1 / count[y] for y in sk_tops) / len(sk_tops))
        factor = match_probabilities(params, chain_tops(params, r, 0, ForgeryBudget()))
        assert len(factor) == params.w
        for a, row in enumerate(factor):
            assert len(row) == params.w
            for s, entry in enumerate(row):
                if s < a:
                    assert entry == pytest.approx(g[s], rel=1e-12)
                else:
                    assert entry == 1.0

    def test_estimate_agrees_with_the_monte_carlo_count(self):
        r = run_fda_experiment(ExperimentConfig("wots", WP, 2000, 2026))
        assert r.estimator == "exact-given-r"
        assert abs(r.undetected_rate - r.monte_carlo_rate) <= 4 * r.monte_carlo_stderr
        assert r.stderr < r.monte_carlo_stderr / 10

    @pytest.mark.parametrize("args", [(2, 0, 2, 2), (2, 1, 2, 2)])
    def test_rate_is_the_exhaustive_undetected_share(self, args):
        # every key of trial 0's seed r, every pair and every forger draw
        params, seed = derive_wots_params(*args), 5
        r = wots.keygen(params, trial_rng(seed, 0)).r
        report = run_fda_experiment(ExperimentConfig("wots", params, 1, seed))
        assert report.estimator == "exact-given-r"
        assert report.undetected_rate == pytest.approx(
            exhaustive_undetected_rate(params, r), rel=0, abs=1e-12)

    def test_single_trial_has_a_finite_stderr(self):
        r = run_fda_experiment(ExperimentConfig("wots", WP, 1, 5))
        p = r.undetected_rate
        assert 0.0 < p < 1.0
        assert r.stderr == math.sqrt(p * (1.0 - p))
        assert r.verdict == "pass"

    @pytest.mark.parametrize(
        "args,estimator",
        [((6, 2, 4, 2), "exact-given-r"), ((4, 1, 4, 2), "exact-given-r"),
         ((6, 1, 12, 3), "exact-given-r"),  # 3.0 DP moves per table hash
         ((8, 0, 8, 4), "monte-carlo"),  # 17.1
         ((8, 0, 16, 2), "monte-carlo"), ((8, 0, 16, 8), "monte-carlo")],
    )
    def test_estimator_follows_the_dp_cost(self, args, estimator):
        assert analysis.estimator_for(derive_wots_params(*args)) == estimator

    def test_the_estimator_is_the_plain_cost_formula(self):
        # DP moves against the plain sum of 2^value_bits(d) table hashes
        seen = set()
        for n, delta, nu in itertools.product(range(1, 9), range(5), range(1, 9)):
            for L in (nu, 2 * nu, 4 * nu):
                p = derive_wots_params(n, delta, L, nu)
                w = p.w
                moves = w * w * sum((i * (w - 1) + 1) ** 2 for i in range(p.l1))
                hashes = sum(1 << p.value_bits(d) for d in range(w - 1))
                exact = moves <= analysis.EXACT_MOVES_PER_HASH * hashes
                estimator = analysis.estimator_for(p)
                assert estimator == ("exact-given-r" if exact else "monte-carlo")
                seen.add(estimator)
        assert seen == {"exact-given-r", "monte-carlo"}

    def test_exact_estimate_just_inside_the_dp_cost(self):
        r = run_fda_experiment(ExperimentConfig("wots", derive_wots_params(6, 1, 12, 3), 2, 3))
        assert r.estimator == "exact-given-r"
        assert 0.0 < r.undetected_rate < 1.0

    def test_large_w_runs_the_monte_carlo_count(self):
        # w = 256: the DP would take ~4.3e9 moves, the 0/1 count one trial's time
        r = run_fda_experiment(ExperimentConfig("wots", derive_wots_params(8, 0, 16, 8), 1, 1))
        assert r.estimator == "monte-carlo"
        assert r.undetected_rate == r.monte_carlo_rate
        assert "monte carlo:" not in analysis.report_text(r)

    def test_depth0_width_over_the_budget_raises(self):
        cfg = ExperimentConfig("wots", derive_wots_params(20, 3, 4, 2), 3, 0)  # depth 0: 29 bits
        with pytest.raises(BudgetExceeded, match="29-bit domain exceeds the 28-bit budget"):
            run_fda_experiment(cfg)

    def test_report_text_shows_both_estimates(self):
        text = analysis.report_text(run_fda_experiment(ExperimentConfig("wots", WP, 20, 1)))
        assert "estimator:       exact-given-r" in text
        assert "monte carlo:" in text
        lam = run_fda_experiment(ExperimentConfig("lamport", LamportParams(8, 2), 20, 1))
        text = analysis.report_text(lam)
        assert lam.estimator == "exact-given-H"
        assert "estimator:       exact-given-H" in text
        mc, half = lam.monte_carlo_rate, 1.96 * lam.monte_carlo_stderr
        assert (f"monte carlo:     {mc:.6f}  (95% CI {max(0.0, mc - half):.6f}"
                f"..{min(1.0, mc + half):.6f})") in text.splitlines()


def match_probability(index, bits: int, choose) -> Fraction:
    """Mean, over every secret x, of the chance that a forger who sees
    only H(x) and picks choose(members of H(x)), a {member: probability}
    map, lands on x itself."""
    images = {v: y for y, members in index.items() for v in members}
    total = sum(choose(list(index[images[x]])).get(x, 0) for x in range(1 << bits))
    return Fraction(total, 1 << bits)


class TestExactGivenH:
    def test_lamport_picks_exact_given_h(self):
        for n, delta in ((1, 0), (8, 0), (8, 10), (20, 8)):
            assert analysis.estimator_for(LamportParams(n, delta)) == "exact-given-H"

    @pytest.mark.parametrize("n,delta", [(8, 0), (8, 2), (10, 0)])
    def test_rate_is_the_image_count(self, n, delta):
        params = LamportParams(n, delta)
        r = run_fda_experiment(ExperimentConfig("lamport", params, 50, n + delta))
        assert r.undetected_rate == lamport_image_fraction(params)
        assert r.undetected_rate == len(build_lamport_preimage_index(params)) / 2 ** params.sk_bits

    def test_the_ci_is_the_point(self):
        r = run_fda_experiment(ExperimentConfig("lamport", LamportParams(8, 2), 300, 17))
        assert r.stderr == 0.0
        assert r.ci_low == r.ci_high == r.undetected_rate
        assert r.verdict == "pass"
        assert analysis.csv_row(r).startswith(f"8,2,300,{r.undetected_rate:.6f},"
                                              f"{r.undetected_rate:.6f},{r.undetected_rate:.6f},")

    def test_rate_does_not_depend_on_the_forgers_choice_rule(self):
        # Given H(x), a uniform secret x is uniform over the preimages of
        # H(x), so any rule matches with mean chance |Im H| / 2^(n+delta)
        params = LamportParams(6, 2)
        index = build_lamport_preimage_index(params)
        expected = Fraction(lamport_image_fraction(params))  # a dyadic float, exact
        rules = {
            "first": lambda members: {members[0]: 1},
            "last": lambda members: {members[-1]: 1},
            "uniform": lambda members: {v: Fraction(1, len(members)) for v in members},
        }
        for name, choose in rules.items():
            assert match_probability(index, params.sk_bits, choose) == expected, name
        assert any(len(members) > 1 for members in index.values())
        r = run_fda_experiment(ExperimentConfig("lamport", params, 20, 1))
        assert r.undetected_rate == expected


def _exact_sk(monkeypatch):
    """Every trial's adversary signs M* with the secret key itself."""
    monkeypatch.setattr(analysis, "_forgery_trial",
                        functools.partial(analysis._forgery_trial, exact_sk=True))


def _count_only(monkeypatch):
    """Every experiment takes its rate from the 0/1 count of its trials."""
    monkeypatch.setattr(analysis, "estimator_for", lambda params: "monte-carlo")


def _printed_ci(text: str, label: str) -> tuple[str, str, str]:
    """(estimate, low, high) as report_text prints them on the line of label."""
    line = next(line for line in text.splitlines() if line.startswith(label))
    return re.fullmatch(r"[^:]+:\s+(\S+)  \(95% CI (\S+)\.\.(\S+)\)", line).groups()


class TestVerdict:
    """The verdict reads the estimator's rate: "pass" iff it is below
    upper + 3 stderr.  An honest forger stays under the bound, so only an
    adversary who knows more, here one holding the secret key, fails it."""

    def test_the_secret_key_fails_the_count(self, monkeypatch):
        _exact_sk(monkeypatch)
        _count_only(monkeypatch)
        r = run_fda_experiment(ExperimentConfig("lamport", LamportParams(8, 4), 200, 1))
        assert (r.estimator, r.undetected_count, r.detected_count) == ("monte-carlo", 200, 0)
        assert (r.undetected_rate, r.stderr) == (1.0, 0.0)
        assert r.bounds.upper == 5.22 / 16
        assert r.verdict == "fail"
        assert analysis.report_text(r).endswith("verdict:         fail")
        assert analysis.csv_row(r).endswith(",fail")

    @pytest.mark.parametrize("scheme,params,trials", [
        ("lamport", LamportParams(8, 4), 200), ("wots", WP, 20)])
    def test_the_exact_estimators_read_no_trial_outcome(self, monkeypatch, scheme, params, trials):
        honest = run_fda_experiment(ExperimentConfig(scheme, params, trials, 3))
        _exact_sk(monkeypatch)
        r = run_fda_experiment(ExperimentConfig(scheme, params, trials, 3))
        assert r.estimator == honest.estimator != "monte-carlo"
        assert honest.undetected_count < trials == r.undetected_count
        assert (r.undetected_rate, r.stderr, r.ci_low, r.ci_high, r.verdict) == (
            honest.undetected_rate, honest.stderr, honest.ci_low, honest.ci_high, "pass")
        assert r.monte_carlo_rate == 1.0

    @pytest.mark.parametrize("scheme,params,trials,count_only", [
        ("lamport", LamportParams(8, 2), 20, False),  # exact-given-H: stderr 0
        ("wots", WP, 20, False),  # exact-given-r
        ("lamport", LamportParams(8, 0), 200, True),  # the 0/1 count
    ])
    def test_the_verdict_turns_at_upper_plus_three_stderr(
            self, monkeypatch, scheme, params, trials, count_only):
        if count_only:
            _count_only(monkeypatch)
        cfg = ExperimentConfig(scheme, params, trials, 5)
        first = run_fda_experiment(cfg)
        rate, stderr, b = first.undetected_rate, first.stderr, first.bounds
        edge = rate - 3.0 * stderr
        assert edge > 0.0  # so that a bound of twice the upper one would pass the fail side
        for upper, verdict in ((edge + 1e-9, "pass"), (edge - 1e-9, "fail")):
            bounds = analysis.BoundsReport(b.n, b.delta, b.lower, upper, b.exact_expectation)
            monkeypatch.setattr(analysis, "fda_bounds", lambda n, delta: bounds)
            r = run_fda_experiment(cfg)
            assert (r.undetected_rate, r.stderr, r.bounds.upper) == (rate, stderr, upper)
            assert r.verdict == verdict


class TestConfidenceIntervals:
    """Every interval is its estimate +- 1.96 standard errors, clipped to [0, 1]."""

    @pytest.mark.parametrize("scheme,params,trials,seed,clipped", [
        ("lamport", LamportParams(8, 2), 20, 1, ""),  # exact-given-H
        ("wots", WP, 20, 1, ""),  # exact-given-r
        ("wots", derive_wots_params(6, 0, 4, 2), 1, 3, "both"),  # exact-given-r, one trial
        ("wots", derive_wots_params(8, 0, 8, 4), 40, 1, "low"),  # monte-carlo
    ])
    def test_the_reported_ci(self, scheme, params, trials, seed, clipped):
        r = run_fda_experiment(ExperimentConfig(scheme, params, trials, seed))
        low, high = r.undetected_rate - 1.96 * r.stderr, r.undetected_rate + 1.96 * r.stderr
        assert (r.ci_low, r.ci_high) == (max(0.0, low), min(1.0, high))
        assert (low < 0.0, high > 1.0) == (clipped in ("low", "both"), clipped == "both")
        printed = _printed_ci(analysis.report_text(r), "undetected rate:")
        assert printed == tuple(f"{v:.6f}" for v in (r.undetected_rate, r.ci_low, r.ci_high))

    @pytest.mark.parametrize("scheme,params,trials,seed,clipped", [
        ("lamport", LamportParams(8, 0), 3, 0, "high"),
        ("lamport", LamportParams(8, 0), 3, 2, "low"),
        ("wots", WP, 20, 1, "low"),
    ])
    def test_the_monte_carlo_line(self, scheme, params, trials, seed, clipped):
        # the count's own interval, a cross-check that no verdict reads
        r = run_fda_experiment(ExperimentConfig(scheme, params, trials, seed))
        assert r.estimator != "monte-carlo"
        mc = r.undetected_count / trials
        half = 1.96 * math.sqrt(mc * (1.0 - mc) / trials)
        assert (mc - half < 0.0, mc + half > 1.0) == (clipped == "low", clipped == "high")
        printed = _printed_ci(analysis.report_text(r), "monte carlo:")
        assert printed == tuple(
            f"{v:.6f}" for v in (mc, max(0.0, mc - half), min(1.0, mc + half)))


class TestCensus:
    def test_model_fit(self):
        c = preimage_census(8, 0, 500, seed=2024)
        # Pr(N=1) ~ (1-2^-8)^255 ~ 0.369
        p1 = (1 - 2 ** -8) ** 255
        frac = c.counts.get(1, 0) / c.instances
        assert abs(frac - p1) <= 3 * (p1 * (1 - p1) / c.instances) ** 0.5
        # mean N = 1 + (2^n - 1) * 2^-n ~ 2 at delta=0
        model_mean = 1 + (2 ** 8 - 1) * 2 ** -8
        model_var = (2 ** 8 - 1) * 2 ** -8 * (1 - 2 ** -8)
        assert abs(c.mean - model_mean) <= 3 * (model_var / c.instances) ** 0.5
        assert c.p_value > 0.01

    def test_mean_scales_with_delta(self):
        c = preimage_census(8, 2, 300, seed=9)
        model_mean = 1 + (2 ** 10 - 1) * 2 ** -8
        model_var = (2 ** 10 - 1) * 2 ** -8 * (1 - 2 ** -8)
        assert abs(c.mean - model_mean) <= 3 * (model_var / c.instances) ** 0.5

    def test_left_tail_pooled_where_the_pmf_underflows(self):
        # the linear pmf(0) = exp(-1057) underflows to 0: the bins near N = 1
        # must pool, not divide by 0
        c = preimage_census(4, 10, 20, 5)
        assert math.isfinite(c.chi2)
        assert 0.0 <= c.p_value <= 1.0

    @pytest.mark.parametrize("instances", [0, -3])
    def test_rejects_nonpositive_instances(self, instances):
        with pytest.raises(InvalidParams):
            preimage_census(8, 0, instances, 1)

    @pytest.mark.parametrize("args", [(4, 0, 2.5, 1), (4, 0, "3", 1), (4.0, 0, 3, 1),
                                      (4, 1.0, 3, 1)])
    def test_rejects_non_integers(self, args):
        with pytest.raises(InvalidParams, match="must be an integer"):
            preimage_census(*args)


class TestScenario:
    def test_exact_sk_always_undetectable(self):
        for seed in range(10):
            log = run_scenario(LamportParams(8, 6), seed, "exact-sk")
            assert log.outcome == "undetectable"
            assert all(ev.step < 4 for ev in log.events)

    def test_fresh_detected_run_has_valid_evidence(self):
        # fixture seed chosen so detection succeeds at delta=6
        log = run_scenario(LamportParams(8, 6), 1, "fresh")
        assert log.outcome == "evidence-delivered"
        assert verify_pof2(log.evidence) == 1
        assert log.events[-1].step == 4

    def test_event_structure(self):
        log = run_scenario(WP, 5, "fresh", notify_adversary=True)
        steps = [ev.step for ev in log.events]
        assert steps == sorted(steps)
        assert {(ev.step, ev.sender, ev.receiver) for ev in log.events} >= {
            (0, "S", "A"),
            (0, "S", "R"),
            (1, "A", "S"),
            (1, "S", "A"),
            (2, "A", "R"),
            (3, "R", "S"),
        }
        if log.outcome == "evidence-delivered":
            assert (4, "S", "A") in {(e.step, e.sender, e.receiver) for e in log.events}

    def test_fresh_wots_trial_inverts_only_the_depths_it_needs(self):
        # depth 0 is 12 bits at WP: an 11-bit budget refuses only the
        # trials whose forgery inverts down to depth 0
        outcomes = set()
        for seed in range(20):
            rng = trial_rng(seed, 0)
            kp = wots.keygen(WP, rng)
            try:
                analysis._forgery_trial(kp, rng, ForgeryBudget(11))
                outcomes.add("forged")
            except BudgetExceeded:
                outcomes.add("refused")
        assert outcomes == {"forged", "refused"}

    def test_wots_trial_builds_the_key_steps_once(self):
        # keygen, sign, the table the forger inverts through, and detection
        # all walk the one cached tuple of the key's chain steps
        chain_steps.cache_clear()
        rng = trial_rng(7, 0)
        kp = wots.keygen(WP, rng)
        table = chain_tops(WP, kp.r, 0, ForgeryBudget())
        analysis._forgery_trial(kp, rng, ForgeryBudget(), table)
        assert sorted(table) == [0, 1, 2]
        assert chain_steps.cache_info().currsize == 1

    def test_scenario_runs_the_experiment_trial(self):
        # the scenario replays trial 0 of an experiment under the same
        # master seed, trial_rng(seed, 0); the scenario scans where the
        # experiment looks up its Lamport index, and its WOTS forger builds
        # only the depths it inverts where the experiment builds them all
        for scheme, params in (("lamport", LamportParams(8, 0)), ("wots", WP)):
            outcomes = set()
            for seed in range(6):
                log = run_scenario(params, seed, "fresh")
                r = run_fda_experiment(ExperimentConfig(scheme, params, 1, seed))
                undetected = log.outcome == "undetectable"
                assert undetected == (r.undetected_count == 1)
                outcomes.add(undetected)
            assert scheme == "wots" or outcomes == {True, False}

    def test_unknown_mode_rejected(self):
        with pytest.raises(InvalidParams):
            run_scenario(LamportParams(8, 2), 0, "weird")

    def test_scenario_text(self):
        log = run_scenario(LamportParams(8, 2), 3, "exact-sk")
        text = analysis.scenario_text(log)
        assert "outcome: undetectable" in text


@pytest.mark.parametrize("call,match", [
    pytest.param(lambda: ForgeryBudget("8"), "max_domain_bits must be", id="budget str"),
    pytest.param(lambda: ForgeryBudget(8.5), "max_domain_bits must be", id="budget float"),
    pytest.param(lambda: ForgeryBudget(True), "max_domain_bits must be", id="budget bool"),
    pytest.param(lambda: run_scenario("x", 1), "LamportParams or WotsParams", id="scenario params"),
    pytest.param(lambda: run_scenario(LamportParams(8, 2), "1"), "seed must be",
                 id="scenario seed str"),
    pytest.param(lambda: run_scenario(LamportParams(8, 2), 1.0), "seed must be",
                 id="scenario seed float"),
    pytest.param(lambda: preimage_census(4, 0, 3, [1]), "seed must be", id="census seed list"),
    pytest.param(lambda: preimage_census(4, 0, 3, 1.5), "seed must be", id="census seed float"),
    pytest.param(lambda: preimage_census(4, 0, 3, "1"), "seed must be", id="census seed str"),
    pytest.param(lambda: ExperimentConfig("lamport", LamportParams(8, 2), 10, 1.5),
                 "master_seed must be", id="config seed float"),
    pytest.param(lambda: ExperimentConfig("lamport", LamportParams(8, 2), 10, "1"),
                 "master_seed must be", id="config seed str"),
])
def test_library_input_of_a_wrong_type_is_refused(call, match):
    with pytest.raises(InvalidParams, match=match):
        call()
