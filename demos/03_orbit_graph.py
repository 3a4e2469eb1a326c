"""The symbolic orbit graph and its signed distance coordinate.

With letters {alpha, 1} every reachable point of x0 = 0.2 is <n*alpha + eps*x0>
for an integer label (n, eps). The label automaton is exact; materializing a
window of labels gives a graph whose class frequencies and run structure are
forced by alpha, and whose signed graph distance rho (one cumulative sum along
the ladder of positions eps*n) turns the chain into a simple +-1 random walk.
"""

import math

from foldmap import (OrbitLabel, TrialPlan, build_graph_window, rho_chart,
                     rho_walk_audit, structure_stats)

ALPHA = math.sqrt(0.5)


def main():
    graph = build_graph_window(ALPHA, 0.2, window=20000)
    stats = structure_stats(graph)
    freqs = stats["class_frequencies"]
    print("class frequencies on the window (expected 1-a, 2a-1, 1-a):")
    for name in ("small", "medium", "large"):
        print(f"  {name:6s} {freqs[name]:.4f}")
    print(f"gap runs between large vertices: {stats['run_histogram']}")
    print(f"count(2)/count(3) = {stats['measured_ratio']:.4f}"
          f"  (sqrt2 = {math.sqrt(2):.4f})")
    assert set(stats["run_histogram"]) == {2, 3}

    chart = rho_chart(graph, OrbitLabel(0, 1))
    print("\nsigned distance from the base label (0,+1):")
    for lab in (OrbitLabel(0, 1), OrbitLabel(1, 1), OrbitLabel(5, -1),
                OrbitLabel(-3, 1)):
        print(f"  rho{lab} = {chart.rho_of(graph, lab):d}")
    assert chart.rho_of(graph, OrbitLabel(0, 1)) == 0

    audit = rho_walk_audit(ALPHA, 0.2, steps=20000, plan=TrialPlan(17, trials=1))
    print(f"\n20000-step walk audited through rho:")
    print(f"  fraction of +1 increments {audit['plus_fraction']:.4f} (walk is fair)")
    print(f"  rho range visited         {audit['rho_range']}")
    print(f"  far-apart segments missing a small vertex: "
          f"{audit['farsmall_violations']}")
    assert audit["farsmall_violations"] == 0


if __name__ == "__main__":
    main()
