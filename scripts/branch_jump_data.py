#!/usr/bin/env python3
"""Tabulate the two Bell-maximum branches along a damped trajectory.

Writes a CSV of B1 = 2*sqrt(u1+u2) and B2 = 2*sqrt(u1+u3) against |q|^2 for
an initial Werner-like state, plus the crossing points where the optimal
settings jump between the two closed-form sets and the angle gap at each
jump.  Plot B1/B2 against q2 to see the branch structure and the violation
window.
"""

import argparse
import math
import sys

import numpy as np

from bellopt import (
    EWLParams,
    crossing_roots,
    evolve_x,
    ewl_state,
    settings_distance,
    settings_set1,
    settings_set2,
    x_state_eigenvalues,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--alpha2", type=float, default=0.3)
    ap.add_argument("--r", type=float, default=1.0)
    ap.add_argument("--delta", type=float, default=0.0)
    ap.add_argument("--points", type=int, default=400)
    ap.add_argument("--output", default="-", help="CSV path (default stdout)")
    args = ap.parse_args()

    p = EWLParams(alpha2=args.alpha2, r=args.r, delta=args.delta)
    x0 = ewl_state(p)
    out = sys.stdout if args.output == "-" else open(args.output, "w", newline="\n")

    out.write("q2,u1,u2,u3,B1,B2,bmax,active_set\n")
    for q2 in np.linspace(0.0, 1.0, args.points):
        u = x_state_eigenvalues(evolve_x(x0, math.sqrt(q2)))
        out.write(f"{q2:.9g},{u.u1:.9g},{u.u2:.9g},{u.u3:.9g},"
                  f"{u.b1:.9g},{u.b2:.9g},{u.bmax:.9g},{int(u.region)}\n")

    for root in crossing_roots(p):
        state = evolve_x(x0, math.sqrt(root))
        gap = settings_distance(settings_set1(state), settings_set2(state))
        out.write(f"# jump,q2={root:.12g},settings_gap_rad={gap:.9g}\n")

    if out is not sys.stdout:
        out.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
