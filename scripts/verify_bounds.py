#!/usr/bin/env python3
"""Run every inequality suite and print a one-line summary per suite.

Exits 0 only if every suite holds.  app9 is expected to exit nonzero: two of
its claimed refinement intervals contain genuine counterexamples, which the
harness reports rather than repairs (run with --verbose for the notes).
"""

import argparse
import sys

from gammaprod.bounds import SUITES, verify_suite


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--verbose", action="store_true")
    args = ap.parse_args()

    worst_code = 0
    for suite in SUITES:
        rep = verify_suite(suite)
        status = "holds" if rep.holds else f"{rep.violations} violations"
        print(f"{suite:6s} {status:18s} worst margin {rep.worst_margin:+.6g}   [{rep.grid}]")
        if args.verbose:
            for note in rep.notes:
                print(f"       - {note}")
        if not rep.holds:
            worst_code = 3
    return worst_code


if __name__ == "__main__":
    sys.exit(main())
