"""Reference computations that tests compare pofsig's own values against.

None of these runs in pofsig itself: they are the independent checks of
the closed-form expectation, of the 5.22 bound constant, of the Lamport
image count against the experiment's preimage index, of the WOTS
exact-given-r rate against every forgery it averages, of the collision
that a piece of evidence exhibits, of the oracle's counter-mode stream,
and of the invariants of a bit string.
"""

import hashlib
import itertools
import math

from pofsig import lamport, wots
from pofsig.adversary import ForgeryBudget, chain_tops, forge_wots
from pofsig.analysis import binom_pmf
from pofsig.core import BitString, KeyPair, LamportParams
from pofsig.errors import DomainError
from pofsig.oracle import apply_step, chain_steps, lamport_step
from pofsig.pof import detect_forgery


def exact_expectation_by_summation(n: int, delta: int) -> float:
    """Independent check: direct sum of pmf(k)/(1+k) over the binomial."""
    trials = 2 ** (n + delta) - 1
    pmf = binom_pmf(trials, 2.0 ** -n, trials)
    return math.fsum(q / (1 + k) for k, q in enumerate(pmf))


def bound_constant(k: float) -> float:
    """Coefficient of 2^-delta from the two-part tail bound: 1/(1-k)^2 + 1/k."""
    if not 0.0 < k < 1.0:
        raise DomainError(f"k must lie strictly inside (0, 1), got {k}")
    return 1.0 / (1.0 - k) ** 2 + 1.0 / k


def minimize_bound_constant() -> tuple[float, float]:
    """Minimum of the bound coefficient over (0, 1): (k_min, value).

    Stationarity, 2k^2 = (1-k)^3, is the cubic k^3 - k^2 + 3k - 1 = 0.
    Its derivative 3k^2 - 2k + 3 is always positive, so it has exactly
    one real root, which Cardano's formula gives in closed form.
    """
    s = math.sqrt(513.0)
    k = (1.0 + (s + 1.0) ** (1.0 / 3.0) - (s - 1.0) ** (1.0 / 3.0)) / 3.0
    return k, bound_constant(k)


def lamport_image_fraction(params: LamportParams) -> float:
    """|Im H| / 2^sk_bits by hashing every secret through lamport.hash_secret,
    without the preimage index or the sweep kernel."""
    bits = params.sk_bits
    images = {lamport.hash_secret(params, BitString.from_int(x, bits)) for x in range(1 << bits)}
    return len(images) / (1 << bits)


def occupancy_sd(n: int, delta: int) -> float:
    """Standard deviation of |Im H| / 2^(n+delta) when H is a uniform random
    function from D = 2^(n+delta) inputs onto R = 2^n images.  The number of
    empty images has variance R(R-1)(1-2/R)^D + R(1-1/R)^D - R^2(1-1/R)^(2D),
    and |Im H| is R minus that number."""
    R, D = 2 ** n, 2 ** (n + delta)
    var = R * (R - 1) * (1 - 2 / R) ** D + R * (1 - 1 / R) ** D - R * R * (1 - 1 / R) ** (2 * D)
    return math.sqrt(var) / D



class EveryDraw:
    """An rng that returns each index in turn: one run of draws takes the
    current sequence of indices, and turn() moves to the next one, the
    last draw fastest, or answers False once every sequence has run."""

    def __init__(self):
        self.picks, self.bounds, self.at = [], [], 0

    def randrange(self, k):
        if self.at == len(self.picks):
            self.picks.append(0)
            self.bounds.append(k)
        self.at += 1
        return self.picks[self.at - 1]

    def turn(self):
        self.at = 0
        while self.picks:
            self.picks[-1] += 1
            if self.picks[-1] < self.bounds[-1]:
                return True
            del self.picks[-1], self.bounds[-1]
        return False


def exhaustive_undetected_rate(params, r) -> float:
    """P_r of the WOTS key seed r, counted without the checksum DP or
    match_probabilities: the undetected share over every secret key, every
    ordered pair M != M* and every forger draw, each forgery made by the
    real forge_wots (through the key's full chain table, as an experiment
    trial does) and judged by detect_forgery.

    Work is shared per position.  Given r and the pair, the forged value
    at position i depends on sk_i and the draw there alone, and a key is
    uniform over the product of its positions' values.  So a pair's share
    is the product over positions of the share of (sk_i, draw) that
    reproduce the signer's value there, and only the 2^sk_bits keys that
    hold one value at every position run: each forgery's evidence tells
    which positions it reproduced.
    """
    budget = ForgeryBudget()
    tops = chain_tops(params, r, 0, budget)
    bits = params.sk_bits
    keys = []
    for v in range(1 << bits):
        sk = (BitString.from_int(v, bits),) * params.l
        keys.append(KeyPair(params, r, sk, wots.public_values(params, r, sk)))
    messages = [BitString.from_int(m, params.L) for m in range(1 << params.L)]
    shares = []
    for M, M_star in itertools.permutations(messages, 2):
        reproduced = [0.0] * params.l
        for kp in keys:
            sigma, draws = wots.sign(kp, M), EveryDraw()
            while True:
                forged = forge_wots(kp.public(), M, sigma, M_star, budget, draws, tops)
                E = detect_forgery(kp, M_star, forged).evidence
                weight = 1.0 / math.prod(draws.bounds)
                for i in range(params.l):
                    if E is None or E.sigma_star.sigma[i] == E.sigma_tilde_star.sigma[i]:
                        reproduced[i] += weight
                if not draws.turn():
                    break
        shares.append(math.prod(p / len(keys) for p in reproduced))
    return math.fsum(shares) / len(shares)

def collision(E):
    """(step, x, y): the oracle step and the two inputs that evidence E
    shows colliding, which a test checks are distinct with one image.

    Lamport: the two revealed halves under the key's lamport_step.  WOTS:
    at the first chain where the two signatures differ, both values are
    walked up from the forged message's depth b*_i, one chain step at a
    time, until they merge; the step where they do, and its two inputs.
    None if they never merge.
    """
    params = E.pk.params
    x, y = E.sigma_star.sigma, E.sigma_tilde_star.sigma
    if params.scheme == "lamport":
        return lamport_step(params.n, params.sk_bits), x[0], y[0]
    i = next(i for i, (a, b) in enumerate(zip(x, y)) if a != b)
    x, y = x[i], y[i]
    for step in chain_steps(params, E.pk.r)[wots.extend(E.M_star, params)[i]:]:
        x_up, y_up = apply_step(step, x), apply_step(step, y)
        if x_up == y_up:
            return step, x, y
        x, y = x_up, y_up
    return None


def counter_mode(t: bytes, out_bits: int) -> tuple[int, bytes]:
    """(out_bits, payload): the first out_bits bits of the stream
    SHA256(t || be32(0)) || SHA256(t || be32(1)) || ..., hashed with
    hashlib, as whole bytes whose pad bits are zero."""
    blocks = -(-out_bits // 256)
    stream = b"".join(hashlib.sha256(t + i.to_bytes(4, "big")).digest() for i in range(blocks))
    nbytes = -(-out_bits // 8)
    pad = 8 * nbytes - out_bits
    return out_bits, (int.from_bytes(stream[:nbytes], "big") >> pad << pad).to_bytes(nbytes, "big")


def meets_bitstring_invariants(b) -> bool:
    """b's payload is bytes, exactly the whole bytes of its bit_len >= 0
    bits, with the pad bits after them zero."""
    nbytes = -(-b.bit_len // 8)
    return (type(b.payload) is bytes and b.bit_len >= 0 and len(b.payload) == nbytes
            and int.from_bytes(b.payload, "big") % (1 << (8 * nbytes - b.bit_len)) == 0)
