#!/usr/bin/env python3
"""Convergence studies against the reference oracle.

Reproduces three comparisons as CSV on stdout:
  1. the two [Gamma(1/4)]^2 partial products (the older product stays ahead
     at every truncation order, the newer one uses only rational factors),
  2. raw vs tail-corrected truncation of the joint factor f(1/3, 1/3),
  3. raw series vs the accelerated psi(1/2), ten head terms plus the
     exact tail psi(10+t) - psi(11).

Usage: python scripts/convergence_study.py [--m-list 1,10,100,1000,10000]
"""

import argparse
import sys

from gammaprod.cli import run


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--m-list", default="1,10,100,1000,10000")
    args = ap.parse_args()

    print("# quarter-squared products", flush=True)
    rc = run(["convergence", "--target", "quarter", "--m-list", args.m_list, "--format", "csv"])

    print("\n# joint factor f(1/3, 1/3), raw truncation", flush=True)
    rc |= run([
        "convergence", "--target", "jointfactor",
        "--x", "0.3333333333333333", "--b", "0.3333333333333333",
        "--m-list", args.m_list, "--format", "csv",
    ])

    print("\n# joint factor f(1/3, 1/3), tail-corrected", flush=True)
    rc |= run([
        "convergence", "--target", "jointfactor",
        "--x", "0.3333333333333333", "--b", "0.3333333333333333",
        "--m-list", args.m_list, "--tail", "--format", "csv",
    ])

    print("\n# psi(1/2): raw series vs accelerated", flush=True)
    rc |= run(["convergence", "--target", "digamma", "--t", "0.5", "--m-list", args.m_list, "--format", "csv"])
    return rc


if __name__ == "__main__":
    sys.exit(main())
