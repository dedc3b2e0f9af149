"""Classify the words of a decode set with the brute-force oracle, in a
process of its own.

Reads {"rng": <random.Random state>, "rounds": n} on stdin, replays
DecodeWorkload.draw_set from that state with the oracle as classifier, and
prints the class of every draw, rejected draws included, as one JSON list.
The parent replays the same draws against that list.

Usage: python3 perfbench/classify_child.py < state.json
"""

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402  (imports chainring)


def main():
    request = json.load(sys.stdin)
    version, internal, gauss = request["rng"]
    rng = random.Random()
    rng.setstate((version, tuple(internal), gauss))
    wl = workloads.WORKLOADS["decode"]
    kinds = []

    def classify(rd):
        kinds.append(wl.oracle_kind(rd))
        return kinds[-1]

    wl.draw_set(wl.build_rings(), rng, request["rounds"], classify)
    print(json.dumps(kinds))


if __name__ == "__main__":
    main()
