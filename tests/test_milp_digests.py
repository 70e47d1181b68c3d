"""Every MILP that the passes write for small case-study instances, pinned
by a digest.

``milp_digests.json`` holds one sha256 per runnable concept x reformulation
on scheduling n=4 and 6 and strip n=3 and 4, seeds 0-2.  A digest covers the
variables (name, bounds, binary), the rows in order (column indices,
values, sense, right-hand side) and the objective, with every float written
exactly (``float.hex``).  Row provenance is left out.

Regenerate the file, after a change that is meant to alter a MILP, with::

    PYTHONPATH=src python tests/test_milp_digests.py --write
"""

import hashlib
import json
import sys
from pathlib import Path

from gldp import build_model, gen_scheduling, gen_strip, reformulate_model
from gldp.bench import check_compatible
from gldp.builders import CONCEPTS, SchedulingInstance

DIGESTS = Path(__file__).with_name("milp_digests.json")
CASES = [
    (gen, n, seed)
    for gen, sizes in ((gen_scheduling, (4, 6)), (gen_strip, (3, 4)))
    for n in sizes
    for seed in range(3)
]


def milp_digest(milp) -> str:
    hx = float.hex
    doc = [
        [[v.name, hx(v.lower), hx(v.upper), v.is_binary] for v in milp.variables],
        [[list(r.coeffs), [hx(a) for a in r.coeffs.values()], r.sense, hx(r.rhs)] for r in milp.rows],
        [[c, hx(a)] for c, a in milp.objective.items()],
    ]
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


def current_digests() -> dict:
    out = {}
    for gen, n, seed in CASES:
        inst = gen(n, seed)
        kind = "sched" if isinstance(inst, SchedulingInstance) else "strip"
        for concept, entry in CONCEPTS.items():
            if not isinstance(inst, entry.kind):
                continue
            model = build_model(inst, concept)
            for reform in ("BM", "HR", "RHR"):
                if check_compatible(concept, reform) is None:
                    milp = reformulate_model(model, reform)
                    out[f"{kind}-n{n}-s{seed}-{concept}-{reform}"] = milp_digest(milp)
    return out


def test_every_milp_matches_its_pinned_digest():
    want = json.loads(DIGESTS.read_text())
    got = current_digests()
    differ = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
    for k in differ:
        print(f"{k}: pinned {want.get(k)}, now {got.get(k)}")
    assert not differ, f"{len(differ)} of {len(want)} MILPs differ from their pinned digests"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(__doc__)
    DIGESTS.write_text(json.dumps(current_digests(), indent=1, sort_keys=True) + "\n")
