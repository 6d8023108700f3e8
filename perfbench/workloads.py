"""Seeded job lists for the three benchmark workloads.

A job is a dict with the CLI ``argv`` the program receives and the
``check`` the independent checker applies to its output.  Inputs come from
the benchmark's own generator: its own random number generator and its own
gluing sum (from check.py), never the library, so a library change cannot
shift them.  The same seed always gives the same jobs.
"""

from __future__ import annotations

from itertools import product

from check import is_solution, oplus

MASK = (1 << 64) - 1


class Rng:
    """SplitMix64: small, and the same stream on every Python version."""

    def __init__(self, seed: int):
        self.state = seed & MASK

    def below(self, k: int) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        return (z ^ (z >> 31)) % k

    def choice(self, items):
        return items[self.below(len(items))]


_SMALL: dict[int, list[tuple[int, ...]]] = {}


def small_solutions(n: int) -> list[tuple[int, ...]]:
    """Every solution of size 3 or 4 mod n, by brute force."""
    if n not in _SMALL:
        _SMALL[n] = [s for k in (3, 4) for s in product(range(n), repeat=k)
                     if is_solution(s, n)]
    return _SMALL[n]


def glued(rng: Rng, n: int, size: int) -> tuple[int, ...]:
    """A solution of the given size: size-3/4 solutions glued at random rotations."""
    parts = small_solutions(n)
    triples = [p for p in parts if len(p) == 3]
    cur = rng.choice(parts)
    while len(cur) < size:
        # a size-k part adds k - 2 entries
        part = rng.choice(parts if size - len(cur) >= 2 else triples)
        r, s = rng.below(len(cur)), rng.below(len(part))
        cur = oplus(cur[r:] + cur[:r], part[s:] + part[:s], n)
    if not is_solution(cur, n):
        raise RuntimeError(f"glued tuple {cur} is not a solution mod {n}")
    return cur


def _text(seq) -> str:
    return ",".join(map(str, seq))


# Job order stays fixed: allocator fragmentation left by earlier jobs moves the
# worker's peak resident memory by up to 13% when the order changes.


def classify_full(rng: Rng) -> list[dict]:
    """Fixed jobs; the seed changes nothing here."""
    jobs = [["classify", "-N", "6", "--sizes", "3..9", "--witnesses", "--format", "json"],
            ["classify", "-N", "7", "--sizes", "3..9", "--format", "json"],
            ["classify", "-N", "8", "--sizes", "3..9", "--format", "json"]]
    return [{"argv": argv, "check": "digest"} for argv in jobs]


REDUCE_QUERIES = 300


def irreducible_scan(rng: Rng) -> list[dict]:
    fixed = [["verify", "-N", str(n), "--format", "json"] for n in range(2, 8)]
    fixed += [["evidence", "-N", "8", "--format", "json"],
              ["classify", "-N", "9", "--sizes", "3..10", "--irreducible-only", "--format", "json"],
              ["classify", "-N", "10", "--sizes", "3..9", "--irreducible-only", "--format", "json"],
              ["monomial", "-N", "251", "--format", "json"],
              ["monomial", "-N", "499", "--format", "json"]]
    jobs = [{"argv": argv, "check": "digest"} for argv in fixed]
    for i in range(REDUCE_QUERIES):
        n, size = 5 + i % 9, 20 + i % 41
        seq = glued(rng, n, size)
        jobs.append({"argv": ["reduce", "-N", str(n), _text(seq), "--format", "json"],
                     "check": "reduce", "seq": seq, "modulus": n})
    return jobs


DISSECT_SIZES = range(60, 201, 10)


def _triangulable(seq, n: int) -> bool:
    # triangulate needs an entry +/-1 mod 4 and a nonzero entry mod 2 and 3
    return any(a in (1, 3) for a in seq) if n == 4 else any(seq)


def dissect_large(rng: Rng) -> list[dict]:
    jobs = []
    for n in (2, 3, 4):
        for size in DISSECT_SIZES:
            seq = glued(rng, n, size)
            while not _triangulable(seq, n):
                seq = glued(rng, n, size)
            runs = [(["dissect"], "dissect"), (["triangulate"], "triangulate")]
            if n == 3:
                runs.append((["triangulate", "--via-rewrite"], "triangulate"))
            for head, check in runs:
                jobs.append({"argv": head + ["-N", str(n), _text(seq), "--format", "json"],
                             "check": check, "seq": seq, "modulus": n})
    return jobs


WORKLOADS = {
    "classify-full": classify_full,
    "irreducible-scan": irreducible_scan,
    "dissect-large": dissect_large,
}


def build(workload: str, seed: int) -> list[dict]:
    return WORKLOADS[workload](Rng(seed))
