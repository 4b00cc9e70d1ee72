"""cli.main keeps its failure contract on fuzzed configs of every scene kind:
exit 0, 1 or 2 and no exception, one "wlab: " line on stderr for a failure,
no temporary file left, no output after a config error and a bounded CPU
time per case.  The cases and the contract are tools/fuzz.py's, whose
longer runs draw more cases."""
import os
import sys

from hypothesis import given, seed, settings

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "tools"))

import fuzz  # noqa: E402


@seed(1)
@settings(max_examples=1000, deadline=None, database=None)
@given(case=fuzz.cases())
def test_cli_keeps_its_contract(case):
    assert fuzz.run_case(case)["broken"] == [], case
