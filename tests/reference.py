"""Reference computations that tests compare pofsig's own values against.

None of these runs in pofsig itself: they are the independent checks of
the closed-form expectation, of the 5.22 bound constant, of the Lamport
image count against the experiment's preimage index, of the collision
that a piece of evidence exhibits, of the oracle's counter-mode stream,
and of the invariants of a bit string.
"""

import hashlib
import math

from pofsig import lamport, wots
from pofsig.analysis import binom_pmf
from pofsig.core import BitString, LamportParams
from pofsig.errors import DomainError
from pofsig.oracle import apply_step, chain_steps, lamport_step


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
