"""Seeded inputs of the repository benchmark.

Everything a run hands the program comes from here and depends only on
the workload seed: the traced subset of design points, the latency
probe, and, for the serve phase of verified-store's traced run, the
points pre-seeded into the server's store and the open-loop request
mix.  The same seed gives the same inputs.

A design point is ``(loop index, config label, cycle-model cycles)``;
the key space is Figure 3's: its nine XwY configurations with 32, 64,
128 and 256 registers under the 4-cycle model, over the loops of the
suite sample the workloads run on.
"""

import random

GRID = ((2, 1), (1, 2), (4, 1), (2, 2), (1, 4), (8, 1), (4, 2), (2, 4), (1, 8))
REGISTERS = (32, 64, 128, 256)
CYCLES = 4

# Shares of open-loop slots per request kind.  A "dup" slot sends the
# same fresh point twice at one due time, for the server to coalesce.
SHARES = (("fresh", 0.15), ("hot", 0.55), ("store", 0.25), ("dup", 0.05))
BLOCK = 20  # slots per block; every block holds each kind in its share
HOT_POINTS = 64  # points the "hot" requests repeat (memo path)
SEEDED_SHARE = 0.03  # share of the other points pre-seeded into the store
CHECK_SHARE = 0.01  # share of requests whose reply is re-derived in-process


def label(x, y, registers):
    return f"{x}w{y}({registers})"


def key_space(loops):
    """Every design point, ordered by configuration, registers, loop."""
    return [
        (i, label(x, y, z), CYCLES)
        for (x, y) in GRID
        for z in REGISTERS
        for i in range(loops)
    ]


def rng(seed, salt):
    return random.Random(f"{seed}:{salt}")


def systematic(seed, salt, n, loops):
    """n points spread evenly over the ordered key space from a seeded
    offset, so every configuration and register count is represented."""
    keys = key_space(loops)
    step = len(keys) / n
    offset = rng(seed, salt).random() * step
    return [keys[int(offset + j * step)] for j in range(n)]


def serve_mix(seed, seconds, rate, loops):
    """The open-loop request list of the serve phase and its store pre-seed.

    Returns ``(seeded, requests)``; each request is
    ``(due_ms, kind, point, check)``.  Slots are due every 1/rate
    seconds; a "dup" slot carries two requests.  Every block of
    ``BLOCK`` slots holds each kind in its exact share.  Every seed asks
    for the same fresh points in the same order (an even spread over the
    key space): a few points cost a hundred times the median, and their
    stalls must fall at the same point of every run.  The seed orders
    the slots within each block and picks the hot set, the pre-seeded
    points and the checked replies."""
    r = rng(seed, "serve")
    block = [name for name, share in SHARES for _ in range(round(BLOCK * share))]
    kinds = []
    for _ in range(-(-int(seconds * rate) // BLOCK)):
        r.shuffle(block)
        kinds += block
    kinds = kinds[:int(seconds * rate)]
    fresh = systematic("fixed", "fresh", sum(k in ("fresh", "dup") for k in kinds), loops)
    rng("fixed", "order").shuffle(fresh)
    taken = set(fresh)
    rest = [k for k in key_space(loops) if k not in taken]
    r.shuffle(rest)
    hot = rest[:HOT_POINTS]
    seeded = rest[HOT_POINTS:HOT_POINTS + int(len(rest) * SEEDED_SHARE)]
    fresh, store = iter(fresh), iter(seeded)
    requests = []
    for slot, kind in enumerate(kinds):
        due = slot * 1000.0 / rate
        if kind == "fresh":
            points = [next(fresh)]
        elif kind == "hot":
            points = [r.choice(hot)]
        elif kind == "store":
            points = [next(store)]
        else:
            p = next(fresh)
            points = [p, p]
        for p in points:
            requests.append((due, kind, p, r.random() < CHECK_SHARE))
    return seeded, requests


def point_line(p):
    return f"{p[0]} {p[1]} {p[2]}"


def write_inputs(work, workload, seed, rate, loops, probe_points, subset_points,
                 serve_seconds):
    """Write the files the harness reads into ``work``; returns a short
    description of them for the result's detail line.  verified-store
    also gets a ``serve_seconds`` request mix at ``rate`` slots per
    second, which its traced run serves to measure Wr_serve's layers."""
    def write(name, lines):
        with open(f"{work}/{name}", "w") as f:
            f.write("".join(line + "\n" for line in lines))

    probe = systematic("fixed", "probe", probe_points, loops)
    write("probe.txt", [point_line(p) for p in probe])
    write("subset.txt", [point_line(p) for p in systematic(seed, "subset", subset_points, loops)])
    if workload != "verified-store":
        return {}
    seeded, requests = serve_mix(seed, serve_seconds, rate, loops)
    write("seeded.txt", [point_line(p) for p in seeded])
    write("requests.txt", [
        f"{due:.3f} {kind} {point_line(p)} {int(check)}" for due, kind, p, check in requests
    ])
    return {"requests": len(requests), "seeded": len(seeded),
            "offered_rps": len(requests) / serve_seconds}
