"""One set-up sample, run in a fresh interpreter by run.py.

Times importing ecogrid (every module, numpy and scipy included), reading
the case file, parse_case and validate, and prints the result as JSON:

    python3 perfbench/setup_probe.py <src dir> <case file>
"""

import json
import sys
from time import perf_counter

start = perf_counter()
src, case = sys.argv[1], sys.argv[2]
sys.path.insert(0, src)

import ecogrid.cli  # noqa: E402,F401  (imports every ecogrid module)
from ecogrid.caseio import parse_case  # noqa: E402
from ecogrid.model import validate  # noqa: E402

with open(case) as fh:
    text = fh.read()
network = parse_case(text)
issues = validate(network)
elapsed = perf_counter() - start
print(json.dumps({"setup_s": elapsed, "module": ecogrid.__file__, "issues": issues}))
