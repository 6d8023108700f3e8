"""Independent output checker for the benchmark.

Nothing here imports the quiddity package: the 2x2 arithmetic, the gluing
sum, the dihedral moves and the dissection rules are written out again, so
a change to the library cannot also change what counts as a correct answer.
Every check returns None when the output is right and a one-line reason
when it is not.
"""

from __future__ import annotations

import hashlib
import json


def is_solution(seq, n: int) -> bool:
    """True when the product of the factors [[a, -1], [1, 0]] is +/-Id mod n."""
    a, b, c, d = 1, 0, 0, 1
    for x in seq:
        # [[x, -1], [1, 0]] times [[a, b], [c, d]]
        a, b, c, d = (x * a - c) % n, (x * b - d) % n, a, b
    return b == 0 and c == 0 and a == d and a in (1 % n, (n - 1) % n)


def oplus(left, right, n: int) -> tuple[int, ...]:
    """(l1 + r_m, l2, ..., l_{k-1}, l_k + r1, r2, ..., r_{m-1})."""
    left, right = tuple(left), tuple(right)
    return (((left[0] + right[-1]) % n,) + left[1:-1]
            + ((left[-1] + right[0]) % n,) + right[1:-1])


def dihedral(seq, t: int) -> tuple[int, ...]:
    """Rotate left by t for t < len(seq); otherwise reverse, then rotate by t - len(seq)."""
    seq = tuple(seq)
    if t >= len(seq):
        seq, t = seq[::-1], t - len(seq)
    return seq[t:] + seq[:t]


def canonical(seq) -> tuple[int, ...]:
    """Least tuple among the rotations of seq and of its reversal."""
    return min(dihedral(seq, t) for t in range(2 * len(seq)))


def digest(payload) -> str:
    """SHA-256 of a JSON payload with every ``elapsed_s`` field removed."""
    def strip(x):
        if isinstance(x, dict):
            return {k: strip(v) for k, v in x.items() if k != "elapsed_s"}
        if isinstance(x, list):
            return [strip(v) for v in x]
        return x
    text = json.dumps(strip(payload), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def check_witness(seq, n: int, w: dict) -> str | None:
    left, right, t = tuple(w["left"]), tuple(w["right"]), w["transform"]
    if len(left) < 3 or len(right) < 3:
        return f"witness part shorter than 3: {left} {right}"
    if not 0 <= t < 2 * len(seq):
        return f"witness transform {t} out of range"
    if dihedral(seq, t) != oplus(left, right, n):
        return f"witness {left} (+) {right} is not image {t} of {tuple(seq)}"
    if not (is_solution(left, n) and is_solution(right, n)):
        return f"witness part is not a solution mod {n}: {left} {right}"
    return None


def check_reduce(seq, n: int, payload: dict) -> str | None:
    """A glued input is reducible, so a witness must come back and hold."""
    if tuple(payload.get("seq", ())) != tuple(seq) or payload.get("modulus") != n:
        return "reduce echoed another input"
    if "witness" not in payload:
        return f"no witness for the reducible {tuple(seq)} mod {n}"
    return check_witness(seq, n, payload["witness"])


def check_classification(payload: dict) -> str | None:
    """Listed irreducibles are canonical solutions of their size; witnesses hold."""
    n = payload["modulus"]
    for report in payload["sizes"]:
        for rep in report["irreducible"]:
            if len(rep) != report["n"] or not is_solution(rep, n):
                return f"listed class {rep} is not a size-{report['n']} solution mod {n}"
            if tuple(rep) != canonical(rep):
                return f"listed class {rep} is not in canonical form"
        for key, w in report.get("witnesses", {}).items():
            bad = check_witness(tuple(int(x) for x in key.split(",")), n, w)
            if bad:
                return bad
    return None


def _legal_weights(kind: str, cells: list, pairs: list) -> str | None:
    paired = {i for p in pairs for i in p}
    if kind != "weighted-second" and pairs:
        return f"{kind} dissection lists split pairs"
    for i, c in enumerate(cells):
        tri, w = len(c["vertices"]) == 3, c["weight"]
        if kind == "plain-34":
            legal = (None,)
        elif kind == "weighted-first":
            legal = (1, 2) if tri else (0,)
        else:
            legal = ((2,) if i in paired else (1, 3)) if tri else (0, 2)
        if w not in legal:
            return f"cell {i} weight {w} is illegal for {kind}"
    for a, b in pairs:
        va, vb = set(cells[a]["vertices"]), set(cells[b]["vertices"])
        quad = sorted(va | vb)
        if len(va) != 3 or len(vb) != 3 or len(quad) != 4 \
                or sorted(va & vb) not in ([quad[0], quad[2]], [quad[1], quad[3]]):
            return f"pair ({a}, {b}) is not a quadrilateral split along a diagonal"
    return None


KINDS = {2: "plain-34", 3: "weighted-first", 4: "weighted-second"}


def check_dissection(seq, n_mod: int, payload: dict, triangles_only: bool) -> str | None:
    """The cells tile the polygon, obey the kind's weights and realize seq."""
    n, cells = len(seq), payload["cells"]
    if payload["n"] != n or payload["kind"] != KINDS[n_mod]:
        return f"expected a {KINDS[n_mod]} {n}-gon, got {payload['kind']} {payload['n']}-gon"
    edge_use: dict[tuple[int, int], int] = {}
    area = 0
    for c in cells:
        v = c["vertices"]
        if len(v) not in (3, 4) or v != sorted(set(v)) or v[0] < 1 or v[-1] > n:
            return f"cell {v} is not 3 or 4 sorted distinct vertices of 1..{n}"
        if triangles_only and len(v) != 3:
            return f"triangulation contains the quadrilateral {v}"
        area += len(v) - 2
        for i in range(len(v)):
            e = (v[i - 1], v[i]) if i else (v[0], v[-1])
            edge_use[e] = edge_use.get(e, 0) + 1
    if area != n - 2:
        return f"cells cover {area} triangles of the {n - 2} needed"
    sides = {(i, i + 1) for i in range(1, n)} | {(1, n)}
    for e in sides:
        if edge_use.get(e) != 1:
            return f"side {e} borders {edge_use.get(e, 0)} cells"
    diagonals = sorted((e for e in edge_use if e not in sides), key=lambda e: (e[0], -e[1]))
    open_ends: list[int] = []
    for a, b in diagonals:
        if edge_use[(a, b)] != 2:
            return f"diagonal {(a, b)} borders {edge_use[(a, b)]} cells"
        while open_ends and open_ends[-1] <= a:
            open_ends.pop()
        if open_ends and b > open_ends[-1]:
            return f"diagonal {(a, b)} crosses another"
        open_ends.append(b)
    bad = _legal_weights(payload["kind"], cells, payload["pairs"])
    if bad:
        return bad
    acc = [0] * (n + 1)
    for c in cells:
        amount = (len(c["vertices"]) == 3) if n_mod == 2 else c["weight"]
        for v in c["vertices"]:
            acc[v] += amount
    got = tuple(x % n_mod for x in acc[1:])
    if got != tuple(seq) or tuple(payload["quiddity"]) != got:
        return f"cells give quiddity {got}, expected {tuple(seq)}"
    return None


def check_report(payload: dict) -> str | None:
    """Checks a pinned report can carry besides its digest."""
    if payload.get("passed") is False:
        return "report says FAIL"
    report = payload.get("classification", payload)
    sizes = report.get("sizes")
    if sizes and isinstance(sizes[0], dict):
        return check_classification(report)
    return None


def check_job(job: dict, code, stdout: str, digests: dict) -> str | None:
    """Check one job's exit code and output against its check spec."""
    if code != 0:
        return f"exit code {code}"
    try:
        payload = json.loads(stdout)
    except ValueError:
        return "output is not JSON"
    kind = job["check"]
    if kind == "digest":
        if digest(payload) != digests.get(" ".join(job["argv"])):
            return "output differs from the pinned digest"
        return check_report(payload)
    if kind == "reduce":
        return check_reduce(job["seq"], job["modulus"], payload)
    return check_dissection(job["seq"], job["modulus"], payload, kind == "triangulate")
