#!/usr/bin/env python3
"""Monte Carlo calibration of the unit-root test.

Reports the empirical rejection rate at the nominal 5% level for
driftless random walks (size), an AR(1) alternative (power), and white
noise, across sample sizes. Per-replication rngs keep results
reproducible regardless of scheduling.
"""
import argparse

from synwave import stats


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--reps", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=100)
    parser.add_argument("--phi", type=float, default=0.5)
    args = parser.parse_args()

    print(f"{'n':>6} {'size(walk)':>11} {'power(ar1)':>11} {'power(noise)':>13}")
    for n in (100, 250, 500):
        try:
            size = stats.simulate_adf_rejection_rate(
                "random_walk", args.reps, n, "5%", seed=args.seed)
            power_ar = stats.simulate_adf_rejection_rate(
                "ar1", args.reps, n, "5%", phi=args.phi,
                seed=args.seed + 1, lags=4)
            power_noise = stats.simulate_adf_rejection_rate(
                "white_noise", args.reps, n, "5%", seed=args.seed + 2, lags=4)
        except ValueError as exc:
            parser.error(str(exc))
        print(f"{n:6d} {size:11.3f} {power_ar:11.3f} {power_noise:13.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
