#!/usr/bin/env python3
"""Step-size sweeps: transport multiplicativity/compatibility order and the
curvature two-path gap under finite-difference refinement.

Prints plot-ready rows (step, residual) plus the observed orders.

Usage:
    python scripts/convergence_study.py [--seed 0] [--levels 5]
"""

import argparse
import sys

import numpy as np

from liebundles.bundles import TotalPoint
from liebundles.connections import transport_multiplicativity_check
from liebundles.principal import curvature, transport_compatibility_check
from liebundles.scenarios import build_scenario, random_curve


def observed_orders(errors):
    return [float(np.log2(errors[i] / errors[i + 1])) for i in range(len(errors) - 1)]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--levels", type=int, default=5)
    args = parser.parse_args()

    s = build_scenario("principal-so3")
    rng = np.random.default_rng(args.seed)
    curve = random_curve(s.chart, rng, interval=(0.0, 0.3))
    g, h = s.group.random_element(rng), s.group.random_element(rng)
    y = s.action.space.random_point(rng)

    steps = [0.05 / 2**k for k in range(args.levels)]
    print("# transport multiplicativity residual vs step")
    mult = [transport_multiplicativity_check(s.nu, curve, g, h, step=st) for st in steps]
    for st, err in zip(steps, mult):
        print(f"{st:.6e} {err:.6e}")
    print(f"# observed orders: {['%.2f' % o for o in observed_orders(mult)]}")

    print("# transport compatibility residual vs step")
    compat = [transport_compatibility_check(s.transport_form, curve, y, g, step=st)
              for st in steps]
    for st, err in zip(steps, compat):
        print(f"{st:.6e} {err:.6e}")
    print(f"# observed orders: {['%.2f' % o for o in observed_orders(compat)]}")

    print("# curvature two-path gap vs finite-difference step")
    fd_steps = [2e-2 / 2**k for k in range(args.levels)]
    # the ladder as the rows of one stack, one step per row
    rows = len(fd_steps)
    ys = TotalPoint(np.tile(y.q, (rows, 1)), s.group.element(np.tile(y.fiber.matrix, (rows, 1, 1))))
    gaps = curvature(s.omega, ys, np.tile([1.0, 0.0], (rows, 1)), np.tile([0.0, 1.0], (rows, 1)),
                     h=np.array(fd_steps)).gap
    for h_fd, gap in zip(fd_steps, gaps):
        print(f"{h_fd:.6e} {gap:.6e}")
    print(f"# observed orders: {['%.2f' % o for o in observed_orders(gaps)]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
