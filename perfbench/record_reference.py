"""Record max_R(M) for M = 1..N of each bound-scan problem.

    python3 perfbench/record_reference.py

Writes ``perfbench/reference_bound.json``, which the bound-scan check
compares every ``bound_curve`` value with.  Recorded once, at the commit
named in the file; rerunning it on a later commit would compare the solver
with itself.  Takes about five minutes on one core.
"""

from __future__ import annotations

import json
import sys

from run import SRC, source_revision

# (N, P1, P2): the headline problem, its P2 = 0 and P2 = 1e-4 (flat max_R)
# variants, and two smaller combs
PROBLEMS = ((564, 3.5e-3, 2.6e-8), (564, 3.5e-3, 1e-4), (564, 3.5e-3, 0.0),
            (282, 3.5e-3, 1e-6), (94, 2.0e-3, 1e-7))


def main():
    sys.path.insert(0, str(SRC))
    from afcdepth.depthbound import BoundProblem, max_contrast

    problems = []
    for n, p1, p2 in PROBLEMS:
        values = [max_contrast(BoundProblem(n, m, p1, p2)).value for m in range(1, n + 1)]
        problems.append({"n_teeth": n, "p1": p1, "p2": p2, "max_contrast": values})
        print(f"N={n} P1={p1} P2={p2}: {len(values)} depths", flush=True)
    reference = {"commit": source_revision(), "problems": problems}
    target = SRC.parent / "perfbench" / "reference_bound.json"
    target.write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
