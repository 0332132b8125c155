#!/usr/bin/env python3
"""Logistic decomposition demo on cumulative patent-like data.

Fits a staircase of logistic steps to the seeded cumulative series, as
the running integral of a pulse chain, and shows each fitted pulse next
to its step under the parameter map (x_sat = 2A/k, s = 2k, t0 = c).
Exits 1 when the fit did not converge or is degenerate.
"""
import argparse

from synwave import fit, synth


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--steps", type=int, default=3)
    args = parser.parse_args()

    series = synth.patent_like_series(args.seed)
    result = fit.fit_logistic_sum(series, args.steps)
    print(f"baseline {result.model.beta:.4g}, sse {result.sse:.4g}, "
          f"converged {result.converged}, degenerate {result.degenerate}")
    if not result.converged or result.degenerate:
        return 1
    print(f"{'x_sat':>10} {'s':>8} {'t0':>8}   {'pulse A':>10} {'k':>8} {'center':>8}")
    for pulse in result.model.components:
        comp = fit.soliton_to_logistic(pulse)
        print(f"{comp.x_sat:10.3f} {comp.s:8.4f} {comp.t0:8.3f}   "
              f"{pulse.amplitude:10.3f} {pulse.k:8.4f} {pulse.center:8.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
