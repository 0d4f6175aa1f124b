#!/usr/bin/env python3
"""Interval-collapse spectroscopy of a named candidate field.

Fits the leading collapse exponent, the two channels A delta^delta_minus +
B delta^delta_plus, and runs the two-leg classification across a kappa sweep.

    python scripts/collapse_study.py --candidate n1
    python scripts/collapse_study.py --candidate "power:1,2=0.4" --kappa 4
"""

import argparse

from nullstate import (
    CollapseSpec,
    PointConfig,
    WeightAssignment,
    collapse_channels,
    collapse_exponent,
    delta_minus,
    leg_weight,
    resolve_candidate,
    two_leg_test,
)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--candidate", default="n1")
    ap.add_argument("--kappa", type=float, nargs="+",
                    default=[2.0, 10.0 / 3.0, 4.0, 16.0 / 3.0, 6.0])
    args = ap.parse_args()

    cfg = PointConfig.of(0.0, 1.0)
    for kappa in args.kappa:
        F = resolve_candidate(args.candidate, kappa, M=2)
        spec = CollapseSpec(i=2, weights=WeightAssignment.one_leg(kappa, 2))
        est = collapse_exponent(F, cfg, spec)
        fit = collapse_channels(F, cfg, spec)
        th1 = leg_weight(1, kappa)
        print(
            f"kappa={kappa:<8.4f} p_hat={est.p_hat:+.6f} (stderr {est.stderr:.1e})  "
            f"delta_minus(theta1)={delta_minus(th1, kappa):+.6f}  "
            f"two_leg={two_leg_test(F, cfg, spec).is_two_leg}  "
            f"channels (A, B)=({fit.A:+.4f}, {fit.B:+.4f}) misfit {fit.misfit:.1e}"
        )


if __name__ == "__main__":
    main()
