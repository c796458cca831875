"""Reference undetected rate of WOTS at the wots-fda point.

    python3 bench/wots_reference.py SEED TRIALS

Averages, over random keys and message pairs, the chance that the
exhaustive forger reproduces the signer's signature: the product of
1/N_i over the chain positions the forger must invert, N_i being the
size of that position's preimage set.  This Rao-Blackwellized mean has
far less variance than counting 0/1 outcomes.  workloads.py keeps the
result as WOTS_REFERENCE_RATE.
"""

import os
import random
import statistics
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from pofsig import adversary, wots  # noqa: E402
from pofsig.core import BitString, derive_wots_params  # noqa: E402


def main(seed: int, trials: int) -> None:
    params = derive_wots_params(6, 2, 4, 2)
    rng = random.Random(seed)
    budget = adversary.ForgeryBudget()
    probs = []
    for _ in range(trials):
        kp = wots.keygen(params, rng)
        M = BitString.from_int(rng.getrandbits(params.L), params.L)
        while True:
            M_star = BitString.from_int(rng.getrandbits(params.L), params.L)
            if M_star != M:
                break
        b, b_star = wots.extend(M, params), wots.extend(M_star, params)
        prob = 1.0
        for i in range(params.l):
            if b_star[i] < b[i]:
                ps = adversary.chain_preimages(params, kp.r, b_star[i], kp.pk[i], budget)
                prob /= ps.count
        probs.append(prob)
    mean = statistics.fmean(probs)
    print(f"rate {mean:.4f}  standard error {statistics.stdev(probs) / trials ** 0.5:.4f}")


if __name__ == "__main__":
    main(int(sys.argv[1]), int(sys.argv[2]))
