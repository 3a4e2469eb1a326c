"""Forward simulation of the folding chain x -> |theta - x|.

Starts a bundle of trajectories at x0 = 0.2 with theta drawn from the
two-point law {1/sqrt2, 1}, watches the empirical law approach the exact
piecewise-linear stationary CDF, and reads off the value at the kink.
"""

import math

from foldmap import (ThetaDist, TrialPlan, ensemble_forward, ks_distance,
                     stationary_cdf)

ALPHA = math.sqrt(0.5)


def main():
    dist = ThetaDist.two_point(ALPHA)
    cdf = stationary_cdf(dist)

    print("two-point letters:", dist.support.tolist(), "weights", dist.weights.tolist())
    print(f"stationary CDF at the kink alpha: F({ALPHA:.6f}) = {cdf.evaluate(ALPHA):.10f}")
    print(f"closed form 2a/(1+a)            = {2 * ALPHA / (1 + ALPHA):.10f}")
    print()

    print("KS distance of 20000 trajectories to the stationary law, by depth:")
    last = 1.0
    for n in (10, 50, 200, 800):
        plan = TrialPlan(master_seed=101, trials=20000)
        ks = ks_distance(ensemble_forward(dist, 0.2, n, plan), cdf)
        print(f"  n = {n:4d}   KS = {ks:.4f}")
        assert ks < last + 0.01, "ensemble stopped converging"
        last = ks
    assert last < 0.03
    print("\nthe chain forgets x0 and settles on the stationary law")


if __name__ == "__main__":
    main()
