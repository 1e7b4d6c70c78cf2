"""Decide a CI job from the junit XML of a pytest run whose exit code is not
the verdict, because some tests are known to fail.

    python .github/check_failures.py tier1.xml --expected NAME ...
    python .github/check_failures.py bench.xml --allowed NAME ...

A NAME is a test's name as the XML gives it, without its module or class.
Prints the test count, the suite's wall time (the sum of its test suites'
``time``) and the failed tests.  Exits 1 when the XML holds no test, when a
failed or errored test is not named, when a name fails more than once, or
when an ``--expected`` name does not fail; ``--allowed`` names may fail or
pass.
"""

import argparse
import sys
import xml.etree.ElementTree as ET


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("xml")
    ap.add_argument("--expected", nargs="*", default=[], help="tests that must fail")
    ap.add_argument("--allowed", nargs="*", default=[], help="tests that may fail")
    args = ap.parse_args(argv)
    root = ET.parse(args.xml).getroot()
    cases = list(root.iter("testcase"))
    wall = sum(float(suite.get("time", 0.0)) for suite in root.iter("testsuite"))
    failed = sorted(f"{c.get('classname')}::{c.get('name')}" for c in cases
                    if c.find("failure") is not None or c.find("error") is not None)
    print(f"{len(cases)} tests in {wall:.1f} s, failed: {failed}")
    names = [f.rsplit("::", 1)[1] for f in failed]
    expected = set(args.expected)
    if (not cases or len(set(names)) != len(names)
            or not expected <= set(names) <= expected | set(args.allowed)):
        print(f"expected to fail: {sorted(expected)}, allowed to fail: {sorted(args.allowed)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
