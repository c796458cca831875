"""Detection-probability bounds, Monte Carlo experiments, and the
three-party scenario runner.

The central quantity is the probability that an exhaustive forger's
uniformly sampled preimage coincides with the signer's original secret,
which makes the forgery undetectable.  Under the random-oracle model the
preimage count is 1 + Bin(2^-n, 2^(n+delta) - 1), giving the closed-form
expectation (1 - (1 - 2^-n)^(2^(n+delta))) / 2^delta bracketed by
exp(-2^delta) from below and 5.22 * 2^-delta from above.
"""

from __future__ import annotations

import math
import operator
import random
from collections import Counter
from dataclasses import dataclass

from .adversary import (ForgeryBudget, build_lamport_preimage_index, chain_tops, forge,
                        match_probabilities)
from .core import (
    BitString, KeyPair, Params, Record, WotsParams, derive_wots_params, draw_bits, require_ints,
)
from .errors import InvalidParams
from .forkjoin import fork_map, split
from .oracle import SEED_BYTES, Seed, apply_step, chain_steps, image_blocks
from .pof import SCHEMES, DetectionOutcome, detect_forgery, verify_pof2
from .wots import digits

UPPER_BOUND_CONSTANT = 5.22


# ---------------------------------------------------------------------------
# Analytic bounds


def exact_expectation(n: int, delta: int) -> float:
    """Closed form for the mean inverse preimage count, E[1/(1+Bin)]."""
    # (1 - 2^-n)^(2^(n+delta)) = exp(2^delta * 2^n log1p(-2^-n)).  The
    # factor 2^n log1p(-2^-n) is at most -1, and exactly -1.0 in double
    # precision for n > 52; the power is 0.0 from delta = 10 on, so
    # capping delta at 64 keeps every exponent finite and changes nothing.
    per_bit = math.ldexp(math.log1p(-(2.0 ** -n)), n) if n <= 52 else -1.0
    log_term = math.ldexp(per_bit, min(delta, 64))
    return math.ldexp(1.0 - math.exp(log_term), -delta)


def binom_pmf(m: int, p: float, kmax: int) -> list[float]:
    """[pmf(0), ..., pmf(kmax)] of Bin(m, p), for 0 < p < 1 and kmax <= m.

    The ratio recurrence pmf(k) = pmf(k-1)·(m-k+1)/k·p/(1-p) runs in log
    space from log pmf(0) = m·log1p(-p): pmf(0) itself underflows to 0
    once m·p passes ~745, and every later term with it.
    """
    log_odds = math.log(p) - math.log1p(-p)
    log_pmf = m * math.log1p(-p)
    pmf = [math.exp(log_pmf)]
    for k in range(1, kmax + 1):
        log_pmf += math.log((m - k + 1) / k) + log_odds
        pmf.append(math.exp(log_pmf))
    return pmf


def chi2_sf(x: float, k: int) -> float:
    """Survival function of the chi-square law with k integer degrees of
    freedom, in closed form (nan for k = 0): Q(k/2, x/2), summed up from
    Q(1, y) = exp(-y) or Q(1/2, y) = erfc(sqrt(y)) by
    Q(a+1, y) = Q(a, y) + y^a exp(-y) / Gamma(a+1)."""
    if k < 1:
        return math.nan
    y = x / 2.0
    if k % 2:
        a, terms, term = 0.5, [math.erfc(math.sqrt(y))], 2.0 * math.sqrt(y / math.pi)
    else:
        a, terms, term = 0.0, [], 1.0
    term *= math.exp(-y)
    for _ in range(k // 2):
        terms.append(term)
        a += 1.0
        term *= y / a
    return math.fsum(terms)


class BoundsReport(Record):
    __slots__ = ("n", "delta", "lower", "upper", "exact_expectation")


def fda_bounds(n: int, delta: int) -> BoundsReport:
    """Lower/upper detection-failure bounds plus the exact expectation."""
    require_ints(n=n, delta=delta)
    if n < 1 or delta < 0:
        raise InvalidParams("need n >= 1 and delta >= 0")
    return BoundsReport(
        n=n,
        delta=delta,
        lower=math.exp(-(2.0 ** min(delta, 64))),  # 0.0 from delta = 10 on
        upper=math.ldexp(UPPER_BOUND_CONSTANT, -delta),
        exact_expectation=exact_expectation(n, delta),
    )


# ---------------------------------------------------------------------------
# Monte Carlo forgery-detection experiment


def _require_params(params) -> None:
    if not isinstance(params, Params):
        raise InvalidParams("params must be LamportParams or WotsParams, "
                            f"not {type(params).__name__}")


class ExperimentConfig(Record):
    __slots__ = ("scheme", "params", "trials", "master_seed")  # scheme must equal params.scheme

    def _check(self):
        _require_params(self.params)
        if self.scheme != self.params.scheme:
            raise InvalidParams(
                f"scheme {self.scheme!r} does not match parameters {self.params!r}")
        require_ints(trials=self.trials, master_seed=self.master_seed)
        if self.trials < 1:
            raise InvalidParams("trials must be >= 1")


@dataclass(frozen=True)  # bench/test_bench.py rebuilds it with dataclasses.replace
class ExperimentReport:
    """undetected_rate, stderr, the CI and the verdict belong to the
    estimator that ``estimator_for`` picks from the parameters:

    - "exact-given-H" (Lamport): |Im H| / 2^sk_bits, the undetected
      probability of the one fixed Lamport hash H over uniform secrets,
      read off the preimage index; exact, so stderr is 0 and the CI is
      that point;
    - "exact-given-r" (WOTS): the mean over trials of P_r, the undetected
      probability given the trial key's seed r, exact over secret keys
      and message pairs (``undetected_probability``);
    - "monte-carlo" (WOTS where the DP is too dear): the share of trials
      whose forgery went undetected.

    The 0/1 counts and the evidence checks are kept for every estimator;
    under the exact ones they are the Monte Carlo cross-check.
    """

    config: ExperimentConfig
    trials: int
    undetected_count: int
    detected_count: int
    undetected_rate: float
    stderr: float
    ci_low: float
    ci_high: float
    bounds: BoundsReport
    evidence_ok_count: int
    verdict: str  # "pass" | "fail" against the upper bound
    avg_matching_positions: float | None = None

    @property
    def estimator(self) -> str:
        return estimator_for(self.config.params)

    @property
    def monte_carlo_rate(self) -> float:
        return self.undetected_count / self.trials

    @property
    def monte_carlo_stderr(self) -> float:
        rate = self.monte_carlo_rate
        return math.sqrt(rate * (1.0 - rate) / self.trials)


def trial_rng(master: int, t: int) -> random.Random:
    """The rng of trial t under a master seed.  Seeding with the string
    hashes both numbers (SHA-512), so nearby master seeds run unrelated
    trials."""
    return random.Random(f"{master}:{t}")


# A move of the checksum DP takes ~0.09-0.12 us and a chain-table hash
# ~0.5-1.0 us (one CPU of a 2-core Xeon VM, Python 3.11), so at most 16
# moves per hash keep the DP within a few times the trial's own table sweep.
EXACT_MOVES_PER_HASH = 16


def estimator_for(params: Params) -> str:
    """The experiment's estimator.  "exact-given-H" for Lamport: every
    trial inverts the one fixed hash H, and a uniform secret is
    reproduced with chance 1/|preimages of its image|, whatever member
    the forger picks, so the rate is |Im H| / 2^sk_bits.  For WOTS,
    "exact-given-r" where the checksum DP of ``undetected_probability``
    costs at most EXACT_MOVES_PER_HASH moves per hash of the full chain
    table, "monte-carlo" otherwise.  The DP grows as l1^3 w^4 and the
    table as w 2^sk_bits, so large w (above all with delta = 0) falls
    back to the 0/1 count."""
    if params.scheme == "lamport":
        return "exact-given-H"
    w = params.w
    moves = w * w * sum((i * (w - 1) + 1) ** 2 for i in range(params.l1))
    hashes = sum(1 << params.value_bits(d) for d in range(w - 1))
    if moves <= EXACT_MOVES_PER_HASH * hashes:
        return "exact-given-r"
    return "monte-carlo"


def undetected_probability(params: WotsParams, factor: list[list[float]]) -> float:
    """P_r: the mean, over all ordered message pairs M != M*, of the product
    of factor[b_i][b*_i] over the l positions (b = extend(M),
    b* = extend(M*)).  For the forger's matrix (``match_probabilities``)
    that is the chance that the forgery reproduces the signer's signature
    when positions are independent given r.

    A dynamic program over the two checksums (C, C*): l1 message-digit
    steps of w^2 digit pairs each, then the l2 checksum digits of every
    (C, C*), then the 2^L diagonal pairs M = M*, each worth 1 under a unit
    diagonal, come off.  So any factor but a w x w one with a unit
    diagonal is refused.
    """
    w = params.w
    if len(factor) != w or any(len(row) != w or row[a] != 1.0 for a, row in enumerate(factor)):
        raise InvalidParams(f"factor must be a {w} x {w} matrix with a unit diagonal")
    size = params.l1 * (w - 1) + 1  # checksums run over 0..l1(w-1)
    # sums[C * size + C_star]: summed weight of digit-sequence pairs so far
    moves = [
        ((w - 1 - a) * size + (w - 1 - s), factor[a][s])
        for a in range(w) for s in range(w)
    ]
    sums = [0.0] * (size * size)
    sums[0] = 1.0
    for _ in range(params.l1):
        nxt = [0.0] * (size * size)
        for k, weight in enumerate(sums):
            if weight:
                for offset, f in moves:
                    nxt[k + offset] += weight * f
        sums = nxt
    check = [digits(C, params.l2, params) for C in range(size)]
    terms = []
    for k, weight in enumerate(sums):
        C, C_star = divmod(k, size)
        for a, s in zip(check[C], check[C_star]):
            weight *= factor[a][s]
        terms.append(weight)
    messages = 1 << params.L
    return (math.fsum(terms) - messages) / (messages * (messages - 1))


def _forgery_trial(
    kp: KeyPair,
    rng: random.Random,
    budget: ForgeryBudget,
    table: dict | None = None,
    exact_sk: bool = False,
) -> DetectionOutcome:
    """One chosen-message attack on kp, which the caller drew from rng: sign
    a random M, forge a different M* (through table, the Lamport index or
    the key's full chain table, when given), and let the signer detect.
    exact_sk models full key recovery: the adversary signs M* with sk."""
    params = kp.params
    scheme = SCHEMES[params.scheme]
    if params.scheme == "lamport":
        M = rng.getrandbits(1)
        M_star = 1 - M
    else:
        M = M_star = draw_bits(rng, params.L)
        while M_star == M:
            M_star = draw_bits(rng, params.L)
    sigma = scheme.sign(kp, M)
    if exact_sk:
        sigma_star = scheme.sign(kp, M_star)
    else:
        sigma_star = forge(kp.public(), M, sigma, M_star, budget, rng, index=table)
    return detect_forgery(kp, M_star, sigma_star)


def run_fda_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run the forgery-detection experiment.  Trial t draws a key from
    ``trial_rng(master_seed, t)``, takes P_r from the key's chain table
    under exact-given-r, and attacks the key once (``_forgery_trial``)
    through that table or the Lamport index all trials share.  The rate
    comes from the estimator that ``estimator_for`` picks (see
    ``ExperimentReport``): under exact-given-H it is the share of
    Lamport images the index holds, len(index) / 2^sk_bits.  Contiguous
    runs of trials go to forked workers (``forkjoin``), and the report is
    the serial loop's for any worker count.  The parameters alone decide
    whether the run fits the budget: every width it may sweep is checked
    before any trial runs.
    """
    params = config.params
    budget = ForgeryBudget()
    index = None
    if params.scheme == "lamport":
        index = build_lamport_preimage_index(params)  # checks the domain first
    else:  # a trial may sweep any depth of its key's table
        for d in range(params.w - 2, -1, -1):
            budget.check(params.value_bits(d))
    estimator = estimator_for(params)
    exact = estimator == "exact-given-r"

    def run_trials(trials: range) -> tuple[int, int, int, list[float]]:
        table = index
        undetected = evidence_ok = match_total = 0
        p_rs = []
        for t in trials:
            rng = trial_rng(config.master_seed, t)
            kp = SCHEMES[params.scheme].keygen(params, rng)
            if exact:
                table = chain_tops(params, kp.r, 0, budget)
                p_rs.append(undetected_probability(params, match_probabilities(params, table)))
            outcome = _forgery_trial(kp, rng, budget, table)
            if outcome.detected:
                E = outcome.evidence
                evidence_ok += verify_pof2(E)
                if params.scheme == "wots":
                    match_total += sum(map(operator.eq, E.sigma_star.sigma, E.sigma_tilde_star.sigma))
            else:
                undetected += 1
                if params.scheme == "wots":
                    match_total += params.l
        return undetected, evidence_ok, match_total, p_rs

    parts = fork_map(run_trials, split(config.trials))
    undetected = sum(part[0] for part in parts)
    evidence_ok = sum(part[1] for part in parts)
    match_total = sum(part[2] for part in parts)
    p_rs = [p for part in parts for p in part[3]]
    detected = config.trials - undetected
    if estimator == "exact-given-H":  # the index holds one row per image of H
        rate, var = len(index) / (1 << params.sk_bits), 0.0
    elif exact:
        rate = math.fsum(p_rs) / config.trials
        # one trial has no spread to measure; p(1 - p) bounds that of any
        # [0, 1] variable with mean p
        var = (
            math.fsum((p - rate) ** 2 for p in p_rs) / (config.trials - 1)
            if config.trials > 1 else rate * (1.0 - rate)
        )
    else:
        rate = undetected / config.trials
        var = rate * (1.0 - rate)
    stderr = math.sqrt(var / config.trials)
    bounds = fda_bounds(params.n, params.delta)
    verdict = "pass" if rate < bounds.upper + 3.0 * stderr else "fail"
    return ExperimentReport(
        config=config,
        trials=config.trials,
        undetected_count=undetected,
        detected_count=detected,
        undetected_rate=rate,
        stderr=stderr,
        ci_low=max(0.0, rate - 1.96 * stderr),
        ci_high=min(1.0, rate + 1.96 * stderr),
        bounds=bounds,
        evidence_ok_count=evidence_ok,
        verdict=verdict,
        avg_matching_positions=(
            match_total / config.trials if params.scheme == "wots" else None
        ),
    )


def report_text(report: ExperimentReport) -> str:
    b = report.bounds
    lines = [
        f"scheme:          {report.config.scheme}",
        f"n, delta:        {b.n}, {b.delta}",
        f"trials:          {report.trials}",
        f"undetected:      {report.undetected_count}",
        f"detected:        {report.detected_count}",
        f"undetected rate: {report.undetected_rate:.6f}"
        f"  (95% CI {report.ci_low:.6f}..{report.ci_high:.6f})",
        f"estimator:       {report.estimator}",
    ]
    if report.estimator != "monte-carlo":
        mc, half = report.monte_carlo_rate, 1.96 * report.monte_carlo_stderr
        lines.append(f"monte carlo:     {mc:.6f}"
                     f"  (95% CI {max(0.0, mc - half):.6f}..{min(1.0, mc + half):.6f})")
    lines += [
        f"exact E[1/N]:    {b.exact_expectation:.6f}",
        f"lower bound:     {b.lower:.6g}",
        f"upper bound:     {b.upper:.6g}",
        f"evidence ok:     {report.evidence_ok_count}/{report.detected_count}",
        f"verdict:         {report.verdict}",
    ]
    if report.avg_matching_positions is not None:
        lines.append(
            f"avg matching signature positions: {report.avg_matching_positions:.3f}"
        )
    return "\n".join(lines)


CSV_HEADER = "n,delta,trials,undetected_rate,ci_low,ci_high,lower,upper,verdict"


def csv_row(report: ExperimentReport) -> str:
    b = report.bounds
    return (
        f"{b.n},{b.delta},{report.trials},{report.undetected_rate:.6f},"
        f"{report.ci_low:.6f},{report.ci_high:.6f},{b.lower:.6g},{b.upper:.6g},"
        f"{report.verdict}"
    )


# ---------------------------------------------------------------------------
# Preimage-count census


@dataclass(frozen=True)  # bench/test_bench.py rebuilds it with dataclasses.replace
class CensusReport:
    n: int
    delta: int
    instances: int
    counts: dict[int, int]  # preimage count N -> number of instances
    mean: float
    chi2: float
    p_value: float


def preimage_census(n: int, delta: int, instances: int, seed: int) -> CensusReport:
    """Empirical distribution of preimage-set sizes vs the shifted binomial.

    Each instance draws a fresh seeded one-way function (the single step
    of a w = 2 chain with its own randomizer, (n+delta) bits to n),
    picks a random input, and counts the preimages of its image by full
    enumeration.  Fresh functions make instances independent, matching
    the model the chi-square test assumes.  The parent draws every
    instance; contiguous runs of instances are counted by forked workers
    (``forkjoin``).
    """
    require_ints(n=n, delta=delta, instances=instances, seed=seed)
    if instances < 1:
        raise InvalidParams("instances must be >= 1")
    domain_bits = n + delta
    ForgeryBudget().check(domain_bits)
    params = derive_wots_params(n, delta, 1, 1)
    master = random.Random(seed)
    draws = [(master.getrandbits(8 * SEED_BYTES), master.getrandbits(domain_bits))
             for _ in range(instances)]

    def count_preimages(part: range) -> list[int]:
        sizes = []
        for r, x in draws[part.start:part.stop]:
            (step,) = chain_steps(params, Seed(r.to_bytes(SEED_BYTES, "big")))
            target = apply_step(step, BitString.from_int(x, domain_bits)).to_int()
            sizes.append(sum(block.count(target) for block in image_blocks(step, domain_bits)))
        return sizes

    jobs = split(instances, 1 << domain_bits)
    sizes = [N for part in fork_map(count_preimages, jobs) for N in part]
    counts = Counter(sizes)
    mean = sum(sizes) / instances
    chi2, p_value = _census_gof(n, delta, instances, counts)
    return CensusReport(
        n=n, delta=delta, instances=instances, counts=dict(sorted(counts.items())),
        mean=mean, chi2=chi2, p_value=p_value,
    )


def _census_gof(n, delta, instances, counts):
    """Chi-square of observed N counts against 1 + Bin(2^-n, 2^(n+delta)-1),
    pooling the right tail, then the left, until its expected count reaches 5
    or one bin is left (whose p-value is nan)."""
    max_n = max(counts)
    pmf = binom_pmf(2 ** (n + delta) - 1, 2.0 ** -n, max_n - 1)  # pmf[N-1] = P(N)
    observed = [counts.get(N, 0) for N in range(1, max_n + 1)]
    expected = [instances * q for q in pmf]
    expected[-1] = instances * (1.0 - math.fsum(pmf[:-1]))  # the last bin is N >= max_n
    while len(expected) > 1 and expected[-1] < 5.0:
        observed[-2:] = [sum(observed[-2:])]
        expected[-2:] = [sum(expected[-2:])]
    while len(expected) > 1 and expected[0] < 5.0:
        observed[:2] = [sum(observed[:2])]
        expected[:2] = [sum(expected[:2])]
    chi2 = math.fsum((o - e) ** 2 / e for o, e in zip(observed, expected))
    return chi2, chi2_sf(chi2, len(expected) - 1)


# ---------------------------------------------------------------------------
# Three-party scenario


class ScenarioEvent(Record):
    __slots__ = ("step", "sender", "receiver", "payload")


class ScenarioLog(Record):
    """outcome is "evidence-delivered" or "undetectable"; evidence is the
    signer's PofEvidenceII, or None when nothing was detected."""

    __slots__ = ("scheme", "adversary_mode", "events", "outcome", "evidence")


def run_scenario(
    params: Params,
    seed: int,
    adversary_mode: str = "fresh",
    notify_adversary: bool = False,
) -> ScenarioLog:
    """Replay the signer/adversary/receiver story step by step: draw a key
    from ``trial_rng(seed, 0)``, as experiment trial 0 does, and attack it
    once (``_forgery_trial``).  fresh mode runs the exhaustive forger;
    exact-sk mode hands the adversary the secret key itself, modeling full
    key recovery, where detection necessarily fails.
    """
    _require_params(params)
    require_ints(seed=seed)
    if adversary_mode not in ("fresh", "exact-sk"):
        raise InvalidParams(f"unknown adversary mode {adversary_mode!r}")
    rng = trial_rng(seed, 0)
    kp = SCHEMES[params.scheme].keygen(params, rng)
    outcome = _forgery_trial(kp, rng, ForgeryBudget(), exact_sk=adversary_mode == "exact-sk")
    events = [
        ScenarioEvent(0, "S", "A", "public key"),
        ScenarioEvent(0, "S", "R", "public key"),
        ScenarioEvent(1, "A", "S", "chosen message M"),
        ScenarioEvent(1, "S", "A", "signature pair (M, sigma)"),
        ScenarioEvent(2, "A", "R", "forged pair (M*, sigma*)"),
        ScenarioEvent(3, "R", "S", "forwarded pair (M*, sigma*)"),
    ]
    if outcome.detected:
        events.append(ScenarioEvent(4, "S", "R", "proof-of-forgery evidence E"))
        if notify_adversary:
            events.append(ScenarioEvent(4, "S", "A", "proof-of-forgery evidence E"))
    result = "evidence-delivered" if outcome.detected else "undetectable"
    return ScenarioLog(params.scheme, adversary_mode, tuple(events), result, outcome.evidence)


def scenario_text(log: ScenarioLog) -> str:
    lines = [f"scheme: {log.scheme}   adversary mode: {log.adversary_mode}"]
    for ev in log.events:
        lines.append(f"step {ev.step}: {ev.sender} -> {ev.receiver}: {ev.payload}")
    lines.append(f"outcome: {log.outcome}")
    return "\n".join(lines)
