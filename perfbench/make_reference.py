"""Regenerate reference.json: the simulated outputs every benchmark run
must reproduce.

Run from the root of a checkout::

    python3 perfbench/make_reference.py

Only a change that means to alter the model's results regenerates it;
the diff of reference.json then shows what moved.  A host-only change
must leave it as it is.  Every cell whose pfs clients wrote fewer bytes
than its jobs declared is named on standard error and recorded under
``lost_writes``: read that part of the diff as a change in what the
model loses.
"""

import json
import sys

from run import _bootstrap


def main() -> int:
    _bootstrap()
    from workloads import REFERENCE, WORKLOADS, reference_of

    references = {name: reference_of(make()) for name, make in WORKLOADS.items()}
    for name, ref in references.items():
        for label, n in sorted(ref["lost_writes"].items()):
            print(f"{name}/{label}: the pfs clients wrote {n} B fewer than the jobs "
                  "declared; recorded under lost_writes", file=sys.stderr)
    REFERENCE.write_text(json.dumps(references, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
