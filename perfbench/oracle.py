"""Answers the benchmark checks the program against, computed on its own.

Nothing here imports ``ratelim``: the lifted second-moment matrix is
assembled block by block from its definition and solved densely with
``np.linalg.eigvals``, and the closed forms are written out from the
paper's formulas.  ``parse_answer`` turns one CLI call's exit code and
output bytes into plain data, ``compare`` holds that data against a
recorded reference, and ``check`` tests the properties a query was drawn
to have, so it works on any seed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math

import numpy as np

# Tolerances by kind of output: closed forms are a few flops, iterative
# outputs come from power iteration or bisection.
CLOSED_REL = 1e-12
ITER_REL = 1e-9
ITERATIVE_FIELDS = ("rho", "min_N", "slope")
# ROADMAP item 2 may change the iid_uniform stream, so only its verdict is pinned.
VERDICT_ONLY_STRATEGY = "iid_uniform"


# ---------------------------------------------------------------- closed forms


def theta(a: float, e: float, levels: float, gamma: int) -> float:
    """Worst-case growth of one product-hull length (loss: gamma = 0)."""
    if gamma == 0:
        return abs(a) + e
    if e < abs(a):
        return (abs(a) + e * (levels - 1.0)) / levels
    return max((abs(a) + e) / levels, e)


def p_nec(lam: float, eps_n: float) -> float:
    """Necessary loss-probability limit of an uncertain plant."""
    return (1.0 - eps_n**2) / ((lam + eps_n) ** 2 - eps_n**2)


def you_bounds(lam: float, p: float) -> tuple[float, float]:
    """Known-plant rate and loss limits (rate is inf past the loss limit)."""
    p_y = 1.0 / lam**2
    if p >= p_y:
        return math.inf, p_y
    return math.log2(lam * math.sqrt(1.0 - p) / math.sqrt(1.0 - p * lam**2)), p_y


def kappa_bar(a: float, e: float, m: int, levels: float, p: float) -> float:
    """E[kappa^2] of the m-slot time-share cycle at per-slot level `levels`."""
    mag = abs(a)
    dp = (mag + e) ** m - mag**m
    dm = mag**m - (mag - e) ** m
    total = 0.0
    for s in range(m + 1):
        big_m = levels**s
        k = (mag**m + max(big_m / 2.0, 1.0) * dp + max(big_m / 2.0 - 1.0, 0.0) * dm) / big_m
        total += math.comb(m, s) * (1.0 - p) ** s * p ** (m - s) * k * k
    return total


def kappa_bar_total(a: float, e: float, m: int, total: int, p: float) -> float:
    return kappa_bar(a, e, m, total ** (1.0 / m), p)


# ------------------------------------------------------------- spectral oracle


def companion(a_star, eps, levels: float, window: int) -> np.ndarray:
    """Per-window companion matrix: bit j of the window flags coefficient n-j."""
    n = len(a_star)
    h = np.eye(n, k=1)
    for j in range(n):
        i = n - 1 - j
        h[n - 1, j] = theta(a_star[i], eps[i], levels, (window >> j) & 1)
    return h


def lifted_matrix(a_star, eps, levels: float, p: float) -> np.ndarray:
    """Dense lifted operator: block (v, w) is P[w, v] * kron(H_w, H_w).

    A new reception flag enters the window at the top bit, so from window
    w the chain moves to w >> 1 with probability p (lost) and to
    (w >> 1) | 2^(n-1) with probability 1 - p (received).
    """
    n = len(a_star)
    size, nn = 1 << n, n * n
    out = np.zeros((size * nn, size * nn))
    for w in range(size):
        h = companion(a_star, eps, levels, w)
        block = np.kron(h, h)
        for nxt, prob in ((w >> 1, p), ((w >> 1) | (1 << (n - 1)), 1.0 - p)):
            out[nxt * nn : (nxt + 1) * nn, w * nn : (w + 1) * nn] += prob * block
    return out


def rho(a_star, eps, levels: float, p: float) -> float:
    """Spectral radius of the lifted operator by dense eigenvalues."""
    return float(np.max(np.abs(np.linalg.eigvals(lifted_matrix(a_star, eps, levels, p)))))


def received_radius(a_star, eps, levels: float) -> float:
    """Spectral radius of the all-received companion: the fastest decay a trial can see."""
    n = len(a_star)
    return float(np.max(np.abs(np.linalg.eigvals(companion(a_star, eps, levels, (1 << n) - 1)))))


# ------------------------------------------------------------------- answers


def _cell(text: str):
    if text == "":
        return None
    if text in ("True", "False"):
        return text == "True"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def parse_answer(argv: list[str], code, payload: bytes, stdout: str, error: str | None) -> dict:
    """Plain-data view of one CLI answer.

    simulate writes its decay CSV to --out and its verdict JSON to stdout;
    sweep writes a CSV; every other subcommand writes one JSON object.
    """
    if error is not None:
        return {"exit": None, "error": error}
    answer: dict = {"exit": code}
    if code != 0:
        return answer
    command = argv[0]
    try:
        if command == "simulate":
            answer["fields"] = json.loads(stdout)
            answer["decay_sha256"] = hashlib.sha256(payload).hexdigest()
        elif command == "sweep":
            rows = list(csv.reader(io.StringIO(payload.decode())))
            answer["rows"] = [dict(zip(rows[0], map(_cell, r))) for r in rows[1:]]
        else:
            answer["fields"] = json.loads(payload)
    except (ValueError, IndexError) as exc:
        answer["error"] = f"unparseable output: {exc}"
    return answer


def _close(ref, got, rel: float) -> bool:
    if isinstance(ref, bool) or isinstance(got, bool) or not isinstance(ref, float):
        return ref == got
    if not isinstance(got, (int, float)):
        return False
    if math.isinf(ref) or math.isinf(got):
        return ref == got
    return abs(got - ref) <= rel * max(abs(ref), 1e-300)


def _compare_fields(ref: dict, got: dict, where: str) -> list[str]:
    bad = []
    if set(ref) != set(got):
        return [f"{where}: keys {sorted(got)} != {sorted(ref)}"]
    for key, want in ref.items():
        rel = ITER_REL if key in ITERATIVE_FIELDS else CLOSED_REL
        if not _close(want, got[key], rel):
            bad.append(f"{where}.{key}: {got[key]!r} != reference {want!r}")
    return bad


def compare(ref: dict, got: dict, verdict_only: bool = False) -> list[str]:
    """Differences between a recorded answer and a new one (empty when equal)."""
    if "error" in got:
        return [got["error"]]
    if ref.get("exit") != got.get("exit"):
        return [f"exit {got.get('exit')} != reference {ref.get('exit')}"]
    if verdict_only:
        want, have = ref["fields"]["verdict"], got["fields"]["verdict"]
        return [] if want == have else [f"verdict {have} != reference {want}"]
    bad = []
    if "decay_sha256" in ref and ref["decay_sha256"] != got.get("decay_sha256"):
        bad.append("decay CSV differs from the reference bytes")
    if "fields" in ref:
        bad += _compare_fields(ref["fields"], got.get("fields", {}), "json")
    if "rows" in ref:
        rows = got.get("rows", [])
        if len(rows) != len(ref["rows"]):
            return bad + [f"{len(rows)} rows != reference {len(ref['rows'])}"]
        for i, (want, have) in enumerate(zip(ref["rows"], rows)):
            bad += _compare_fields(want, have, f"row {i}")
    return bad


# ---------------------------------------------------------------- properties


def _rel_ok(got, want: float, rel: float) -> bool:
    return isinstance(got, (int, float)) and _close(float(want), float(got), rel)


def _check_mc(c: dict, f: dict) -> list[str]:
    verdict = f["verdict"]
    if c["expect"] == "stable" and verdict != "stable":
        return [f"drawn with spectral margin {c['margin']:.3f} but verdict {verdict}"]
    if c["expect"] == "unstable" and verdict == "stable":
        return [f"drawn with log growth {c['margin']:.3f} > 0 but verdict stable"]
    if c["expect"] == "diverges" and (verdict != "unstable" or f["diverged_trials"] == 0):
        return [f"drawn to diverge (log growth {c['margin']:.3f}) but {f}"]
    return []


def _check_rho(c: dict, f: dict) -> list[str]:
    bad = []
    if f["sufficient"] != (f["rho"] < 1.0):
        bad.append(f"sufficient={f['sufficient']} disagrees with rho={f['rho']}")
    if len(c["a"]) <= 4:
        want = rho(c["a"], c["eps"], c["N"], c["p"])
        if not _rel_ok(f["rho"], want, ITER_REL):
            bad.append(f"rho {f['rho']!r} != dense eigen-oracle {want!r}")
    elif not (isinstance(f["rho"], float) and 0.0 < f["rho"] < math.inf):
        bad.append(f"rho {f['rho']!r} is not a positive finite number")
    return bad


def _check_min_n(c: dict, f: dict) -> list[str]:
    level = f["min_N"]
    if not isinstance(level, int) or level < 2:
        return [f"min_N {level!r} is not an integer level >= 2"]
    bad = []
    at = rho(c["a"], c["eps"], level, c["p"])
    if not at < 1.0:
        bad.append(f"oracle rho {at!r} >= 1 at min_N {level}")
    if not _rel_ok(f["rho"], at, ITER_REL):
        bad.append(f"rho {f['rho']!r} != dense eigen-oracle {at!r}")
    if level > 2 and rho(c["a"], c["eps"], level - 1, c["p"]) < 1.0:
        bad.append(f"oracle rho < 1 already at {level - 1}")
    return bad


def _check_bounds(c: dict, f: dict) -> list[str]:
    r_y, p_y = you_bounds(c["lam"], c["p"])
    want = {"p_nec": p_nec(c["lam"], c["eps_n"]), "p_you": p_y, "r_you": r_y}
    bad = []
    for key, value in want.items():
        got = f[key]
        if got is None and not math.isfinite(value):
            continue
        if not _rel_ok(got, value, CLOSED_REL):
            bad.append(f"{key} {got!r} != closed form {value!r}")
    return bad


def _check_total(c: dict, m: int, total, avg) -> list[str]:
    """The reported total t is minimal: kappa_bar(t) < 1 <= kappa_bar(t-1)."""
    a, e, p = c["a"], c["eps"], c["p"]
    if total in (None, ""):
        cap = c["cap"]
        return [] if kappa_bar_total(a, e, m, cap, p) >= 1.0 else [
            f"m={m}: no total reported but kappa_bar({cap}) < 1"
        ]
    bad = []
    if not kappa_bar_total(a, e, m, total, p) < 1.0:
        bad.append(f"m={m}: kappa_bar({total}) >= 1")
    if total > 2 and not kappa_bar_total(a, e, m, total - 1, p) >= 1.0:
        bad.append(f"m={m}: kappa_bar({total - 1}) < 1, so {total} is not minimal")
    if not _rel_ok(avg, total ** (1.0 / m), CLOSED_REL):
        bad.append(f"m={m}: avg_level {avg!r} != {total}^(1/{m})")
    return bad


def check(c: dict, answer: dict) -> list[str]:
    """Properties a query was drawn to have; empty when all hold."""
    if "error" in answer:
        return [answer["error"]]
    if answer["exit"] != 0:
        return [f"exit code {answer['exit']}, expected 0"]
    kind, f = c["type"], answer.get("fields")
    if kind == "mc":
        return _check_mc(c, f)
    if kind == "rho":
        return _check_rho(c, f)
    if kind == "min_n":
        return _check_min_n(c, f)
    if kind == "bounds":
        return _check_bounds(c, f)
    if kind == "ts_total":
        bad = _check_total(c, c["m"], f["min_total_level"], f["avg_level"])
        if "N" in c:
            want = kappa_bar(c["a"], c["eps"], c["m"], c["N"], c["p"])
            if not _rel_ok(f["kappa_bar"], want, CLOSED_REL):
                bad.append(f"kappa_bar {f['kappa_bar']!r} != closed form {want!r}")
        return bad
    if kind == "ts_sweep":
        return [
            msg
            for row in answer["rows"]
            for msg in _check_total(c, row["m"], row["min_total_level"], row["avg_level"])
        ]
    if kind == "reference":
        return []  # fixed input: held against the recorded answer on every seed
    raise ValueError(f"unknown check type {kind!r}")
