"""Instance generation and reference values computed without ``gldp``.

Nothing here imports ``gldp``: the instances are plain dictionaries in the
instance-file schema (``{"jobs": [{"p", "r", "d"}, ...]}`` and
``{"W", "rects": [{"L", "H"}, ...]}``), and the optima and feasible values
are found by exhaustive search over the combinatorial structure of each case
study.  Data are small integers, so every value below is an exact integer.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, List, Optional, Sequence


def gen_scheduling(n: int, rng: random.Random) -> Dict:
    """Jobs with ``p ~ U{1..10}``, ``r ~ U{0..2n}`` and ``d = r + p + U{0..3n}``.

    Due times are raised along the earliest-start schedule in release order,
    so that schedule is always feasible.
    """
    p = [rng.randint(1, 10) for _ in range(n)]
    r = [rng.randint(0, 2 * n) for _ in range(n)]
    d = [r[i] + p[i] + rng.randint(0, 3 * n) for i in range(n)]
    t = 0
    for i in sorted(range(n), key=lambda i: (r[i], i)):
        t = max(t, r[i]) + p[i]
        d[i] = max(d[i], t)
    return {"jobs": [{"p": p[i], "r": r[i], "d": d[i]} for i in range(n)]}


def gen_strip(n: int, rng: random.Random) -> Dict:
    """Rectangles with sides ``U{1..10}`` in a strip of width 10."""
    rects = [{"L": rng.randint(1, 10), "H": rng.randint(1, 10)} for _ in range(n)]
    return {"W": 10, "rects": rects}


def sched_class(inst: Dict) -> int:
    """Number of job pairs whose windows admit both orders.

    B&B effort grows with it, so workloads fix how many instances of each
    count they hold.
    """
    jobs = inst["jobs"]
    free = 0
    for i, a in enumerate(jobs):
        for b in jobs[i + 1 :]:
            if a["r"] + a["p"] + b["p"] <= b["d"] and b["r"] + b["p"] + a["p"] <= a["d"]:
                free += 1
    return free


def strip_class(inst: Dict) -> tuple:
    """(pairs that can stack, all rectangles fit in one column, optimum above
    the area and widest-rectangle bound).

    Together these explain most of the B&B effort on three rectangles, so
    workloads fix how many instances of each class they hold.
    """
    rects, W = inst["rects"], inst["W"]
    H = [rc["H"] for rc in rects]
    stack = sum(1 for i in range(len(H)) for j in range(i + 1, len(H)) if H[i] + H[j] <= W)
    column = sum(H) <= W
    lower = max(max(rc["L"] for rc in rects), sum(rc["L"] * rc["H"] for rc in rects) / W)
    return (stack, int(column), int(strip_optimum(inst) > lower))


def stratified(gen, classify, quotas: Dict, rng: random.Random) -> List[Dict]:
    """Draw instances from ``gen(rng)`` until each class has its quota.

    Instances of classes without a quota, or whose quota is full, are
    skipped.  The result keeps the order of drawing.
    """
    left = dict(quotas)
    out = []
    while any(left.values()):
        inst = gen(rng)
        c = classify(inst)
        if left.get(c, 0) > 0:
            left[c] -= 1
            out.append(inst)
    return out


def _makespan(jobs: Sequence[Dict], order: Sequence[int]) -> Optional[int]:
    """Earliest-start makespan of ``order``, or None if a due time is missed."""
    t = 0
    for i in order:
        t = max(t, jobs[i]["r"]) + jobs[i]["p"]
        if t > jobs[i]["d"]:
            return None
    return t


def release_order_makespan(inst: Dict) -> int:
    """Makespan of the earliest-start schedule in release order (feasible by
    construction of :func:`gen_scheduling`)."""
    jobs = inst["jobs"]
    order = sorted(range(len(jobs)), key=lambda i: (jobs[i]["r"], i))
    ms = _makespan(jobs, order)
    if ms is None:
        raise ValueError("release-order schedule misses a due time")
    return ms


def sched_optimum(inst: Dict) -> int:
    """Minimum makespan over all job sequences under earliest-start times.

    Earliest start is optimal for a fixed sequence, so the minimum over all
    sequences is the optimum of the single-machine problem.
    """
    jobs = inst["jobs"]
    best = None
    for order in itertools.permutations(range(len(jobs))):
        ms = _makespan(jobs, order)
        if ms is not None and (best is None or ms < best):
            best = ms
    if best is None:
        raise ValueError("no feasible sequence")
    return best


def one_row_length(inst: Dict) -> int:
    """Length of the packing that puts all rectangles side by side."""
    return sum(rc["L"] for rc in inst["rects"])


def _longest(n: int, edges: List[tuple], size: Sequence[int]) -> Optional[List[int]]:
    """Earliest start positions under ``pos[b] >= pos[a] + size[a]`` for each
    edge ``(a, b)``; None when the edges contain a cycle."""
    pos = [0] * n
    for _ in range(n):
        changed = False
        for a, b in edges:
            if pos[a] + size[a] > pos[b]:
                pos[b] = pos[a] + size[a]
                changed = True
        if not changed:
            return pos
    return None


def strip_optimum(inst: Dict) -> int:
    """Minimum strip length by depth-first search over the four relations
    (left of, right of, below, above) of every rectangle pair.

    Fixing one relation per pair leaves two independent longest-path
    problems: along the strip the length is the longest chain of widths, and
    across it the longest chain of heights must fit in ``W``.  Any packing
    satisfies one relation per pair, so the minimum over all choices is the
    optimum.  Branches are cut when the partial length reaches the best
    length found or the partial height exceeds ``W``.
    """
    rects = inst["rects"]
    W = inst["W"]
    n = len(rects)
    L = [rc["L"] for rc in rects]
    H = [rc["H"] for rc in rects]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    best = one_row_length(inst)

    def search(k: int, ex: List[tuple], ey: List[tuple]) -> None:
        nonlocal best
        # Stacking first finds short packings early, which sharpens the cut.
        i, j = pairs[k]
        for axis, edge in (("y", (i, j)), ("y", (j, i)), ("x", (i, j)), ("x", (j, i))):
            nx = ex + [edge] if axis == "x" else ex
            ny = ey + [edge] if axis == "y" else ey
            if axis == "y":
                py = _longest(n, ny, H)
                if py is None or max(py[v] + H[v] for v in range(n)) > W:
                    continue
                length = max(p + L[v] for v, p in enumerate(_longest(n, nx, L)))
            else:
                px = _longest(n, nx, L)
                if px is None:
                    continue
                length = max(px[v] + L[v] for v in range(n))
            if length >= best:
                continue
            if k + 1 == len(pairs):
                best = length
            else:
                search(k + 1, nx, ny)

    if pairs:
        search(0, [], [])
    else:
        best = L[0]
    return best
