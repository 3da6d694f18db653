"""Output oracles for the slowmode CLI that do not import slowmode.

``check(op, returncode, stdout, stderr, root)`` returns None when an op
passed and a one-line reason when it did not.  The checks read the
content of the CSV or JSON document, not its bytes, so an algorithm
swap that stays within tolerance still passes:

* dispersion rows: |sqrt(pi/2) erfcx(y / sqrt 2) - tau k| with
  y = (tau lambda + 1) / (tau k) and erfcx built here from math.erfc
  and math.exp, with an asymptotic series past y = 25;
* ``ce``: the integer recurrence c_1 = -1,
  c_m = sum_{j<m} (2(m-j) - 1) c_j c_{m-j}, which follows from the
  profile ODE phi'(y) = y phi(y) - 1, plus the sign alternation;
* ``compare``: T_N is stable iff N is odd, T_2 changes sign at exactly
  x = 1, every other sign change is a first root of T_N;
* ``simulate``: status ``ok`` iff tau k < sqrt(pi/2), and the fitted
  rate within the tolerance ``rate_tolerance`` gives for the row;
* ``spectrum``: the slow eigenvalue against the same oracle rate, and
  ``merged`` consistent with tau k.
"""

import csv
import io
import json
import math
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

CRITICAL = math.sqrt(0.5 * math.pi)
_SQRT_HALF = math.sqrt(0.5)
_ISQRT_PI = 1.0 / math.sqrt(math.pi)

#: Largest |phi(y) - tau k| accepted for a reported branch value.
PROFILE_TOL = 1e-10

#: Gauss-Hermite discretisation error of the slow rate, times tau, by
#: band of tau k and grid size q.  Each entry is 25-80 times the largest
#: error measured for that band on a fine grid of tau k (eigvals, RK4 and
#: expm agree); 1e-9 is the floor.  Between 0.65 and the critical point
#: the discrete mode converges too slowly to check.
_RATE_TOL = (
    (0.35, {16: 1e-5, 32: 1e-9, 64: 1e-9, 128: 1e-9, 256: 1e-9}),
    (0.65, {16: 5e-2, 32: 3e-3, 64: 3e-5, 128: 3e-8, 256: 1e-9}),
)


class Mismatch(Exception):
    """An output that disagrees with its oracle."""


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def _close(a, b, rel: float, abs_: float = 0.0) -> bool:
    return a is not None and b is not None and abs(a - b) <= abs_ + rel * abs(b)


# ---------------------------------------------------------------------------
# Reference mathematics
# ---------------------------------------------------------------------------


def erfcx(y: float) -> float:
    """exp(y^2) erfc(y) for y >= 0."""
    if y <= 25.0:
        return math.exp(y * y) * math.erfc(y)
    # erfcx(y) ~ (1 / (y sqrt(pi))) sum_n (-1)^n (2n-1)!! / (2y^2)^n
    total, term, n = 1.0, 1.0, 1
    while abs(term) > 1e-18:
        term *= -(2 * n - 1) / (2.0 * y * y)
        total += term
        n += 1
    return total * _ISQRT_PI / y


def phi(y: float) -> float:
    """sqrt(pi/2) erfcx(y / sqrt 2), decreasing from sqrt(pi/2) to 0."""
    return CRITICAL * erfcx(y * _SQRT_HALF)


def scaled_rate(x: float) -> float:
    """tau lambda at tau k = x < sqrt(pi/2), by bisection on phi(y) = x."""
    if x == 0.0:
        return 0.0
    lo, hi = 0.0, 2.0 / x + 1.0
    while phi(hi) > x:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if phi(mid) > x:
            lo = mid
        else:
            hi = mid
    return x * (0.5 * (lo + hi)) - 1.0


def profile_defect(x: float, scaled: float) -> float:
    """|phi(y) - x| for the branch value tau lambda = scaled at tau k = x."""
    y = (scaled + 1.0) / x
    if not y > 0.0:
        return math.inf
    return abs(phi(y) - x)


def coefficients(order: int) -> list[int]:
    """Exact c_1..c_order of F(x) = sum c_n x^(2n)."""
    c = [0, -1]
    for m in range(2, order + 1):
        c.append(sum((2 * (m - j) - 1) * c[j] * c[m - j] for j in range(1, m)))
    return c[1:]


def truncation(c: list[int], order: int, x: float) -> tuple[float, float]:
    """T_order(x) and the sum of its terms' magnitudes."""
    terms = [float(c[n - 1]) * x ** (2 * n) for n in range(1, order + 1)]
    return math.fsum(terms), math.fsum(abs(t) for t in terms)


def rate_tolerance(x: float, q: int, tau: float) -> float | None:
    """Allowed |rate - oracle| on a q-node grid, or None if unchecked."""
    for x_top, by_q in _RATE_TOL:
        if x <= x_top:
            fitting = [n for n in by_q if n <= q] or [min(by_q)]
            return by_q[max(fitting)] / tau
    return None


# ---------------------------------------------------------------------------
# Parsing: CSV sections and JSON into one shape per command
# ---------------------------------------------------------------------------


def _cell(text: str):
    if text == "":
        return None
    if text in ("true", "false"):
        return text == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _sections(text: str) -> list[list[dict]]:
    """CSV document -> sections, each a list of row dicts."""
    out = []
    for block in text.strip("\n").split("\n\n"):
        rows = list(csv.reader(io.StringIO(block)))
        header, body = rows[0], rows[1:]
        out.append([dict(zip(header, (_cell(v) for v in row))) for row in body])
    return out


def _parse(command: str, fmt: str, text: str) -> dict:
    if fmt == "json":
        doc = json.loads(text)
        if command == "ce":
            doc["coefficients"] = [int(s) for s in doc["coefficients"]]
            doc["magnitude_reference"] = [int(s) for s in doc["magnitude_reference"]]
        if command == "compare":
            doc["truncations"] = {int(n): v for n, v in doc["truncations"].items()}
        return doc
    sec = _sections(text)
    if command == "branch":
        doc = dict(sec[1][0], points=sec[0], excluded=[])
        if len(sec) > 2:
            doc["excluded"] = [r["excluded_k"] for r in sec[2]]
        return doc
    if command == "ce":
        table, summary = sec[0], sec[1][0]
        band = None
        if summary["ratio_min"] is not None:
            band = [summary["ratio_min"], summary["ratio_max"]]
        return {
            "order": summary["order"],
            "coefficients": [int(r["coefficient"]) for r in table],
            "magnitude_reference": [int(r["magnitude_reference"]) for r in table],
            "moment_ratios": [r["moment_ratio"] for r in table],
            "root_tests": [r["root_test"] for r in table],
            "radius_estimate": summary["radius_estimate"],
            "root_test_increasing": summary["root_test_increasing"],
            "ratio_band": band,
        }
    if command == "compare":
        table, stability, summary = sec
        orders = [int(key[1:]) for key in (table[0] if table else {}) if key.startswith("T")]
        return dict(
            summary[0],
            x=[r["x"] for r in table],
            k=[r["k"] for r in table],
            exact=[r["exact"] for r in table],
            truncations={n: [r[f"T{n}"] for r in table] for n in orders},
            stability=stability,
        )
    if command == "simulate":
        return dict(sec[1][0], points=sec[0])
    if command == "spectrum":
        return dict(sec[1][0], eigenvalues=sec[0])
    raise Mismatch(f"unknown command {command!r}")


# ---------------------------------------------------------------------------
# Per-command checks
# ---------------------------------------------------------------------------


def _tau(op) -> float:
    return float(op.flag("--tau", "1.0"))


def _check_branch(op, doc: dict, root: Path) -> None:
    tau = _tau(op)
    _expect(doc["tau"] == tau, "tau echoed wrongly")
    _expect(_close(doc["critical_k"], CRITICAL / tau, 1e-15), "critical_k")
    points = int(op.flag("--points", "200"))
    rows, excluded = doc["points"], doc["excluded"]
    _expect(len(rows) + len(excluded) == points, "grid size")
    ks = [r["k"] for r in rows] + list(excluded)
    kmin = float(op.flag("--kmin", "0.0"))
    kmax = float(op.flag("--kmax", CRITICAL / tau))
    _expect(ks[0] == kmin and ks[-1] < kmax, "grid ends")
    step = (kmax - kmin) / points
    _expect(
        all(_close(b - a, step, 1e-6) for a, b in zip(ks, ks[1:])), "grid spacing"
    )
    for row in rows:
        x = tau * row["k"]
        _expect(x < CRITICAL, f"supercritical row k={row['k']!r}")
        _expect(_close(row["tau_k"], x, 1e-15), "tau_k column")
        _expect(0.0 <= row["residual"] <= 1e-8, "residual column")
        _expect(row["near_critical"] == (CRITICAL - x <= 1e-8), "near_critical")
        lam = row["eigenvalue"]
        if x == 0.0:
            _expect(lam == 0.0, "eigenvalue at k = 0")
            continue
        _expect(-1.0 / tau < lam < 0.0, f"eigenvalue {lam!r} out of (-1/tau, 0)")
        defect = profile_defect(x, tau * lam)
        _expect(defect <= PROFILE_TOL, f"profile defect {defect:.3g} at tau k={x!r}")
    _expect(all(tau * k >= CRITICAL for k in excluded), "subcritical k excluded")


def _check_ce(op, doc: dict, root: Path) -> None:
    order = int(op.flag("--order", "30"))
    c = coefficients(order)
    got = doc["coefficients"]
    _expect(doc["order"] == order and len(got) == order, "order")
    for n, value in enumerate(got, start=1):
        _expect((value < 0) == (n % 2 == 1) and value != 0, f"sign of c_{n}")
        _expect(value == c[n - 1], f"c_{n} differs from the recurrence")
    _expect(doc["magnitude_reference"] == [abs(v) for v in c], "magnitude_reference")
    moment = 1
    ratios, roots = [], []
    for n, value in enumerate(c, start=1):
        moment *= 2 * n - 1
        ratios.append(float(Fraction(abs(value), moment)))
        roots.append(math.exp(math.log(abs(value)) / (2 * n)))
    for name, want in (("moment_ratios", ratios), ("root_tests", roots)):
        _expect(
            all(_close(g, w, 1e-12) for g, w in zip(doc[name], want))
            and len(doc[name]) == order,
            name,
        )
    _expect(_close(doc["radius_estimate"], 1.0 / max(roots), 1e-12), "radius_estimate")
    tail = roots[4:]
    increasing = len(tail) >= 2 and all(b > a for a, b in zip(tail, tail[1:]))
    _expect(doc["root_test_increasing"] == increasing, "root_test_increasing")
    band = doc["ratio_band"]
    if order >= 10:
        want = (min(ratios[9:]), max(ratios[9:]))
        _expect(band is not None and all(map(_close, band, want, (1e-12,) * 2)), "ratio band")
    else:
        _expect(band is None, "ratio band below order 10")


def _check_compare(op, doc: dict, root: Path) -> None:
    tau = _tau(op)
    points = int(op.flag("--points", "200"))
    orders = sorted({int(s) for s in op.flag("--orders", "1,2,3,4").split(",")})
    _expect(doc["tau"] == tau, "tau echoed wrongly")
    _expect(_close(doc["critical_x"], CRITICAL, 1e-15), "critical_x")
    _expect(_close(doc["critical_k"], CRITICAL / tau, 1e-15), "critical_k")
    xs, exact = doc["x"], doc["exact"]
    _expect(len(xs) == points == len(exact) and xs[0] == 0.0, "x grid")
    _expect(
        all(_close(b - a, CRITICAL / points, 1e-6) for a, b in zip(xs, xs[1:])),
        "x grid spacing",
    )
    _expect(all(_close(k, x / tau, 1e-15) for k, x in zip(doc["k"], xs)), "k column")
    _expect(exact[0] == 0.0, "F(0)")
    for x, f in zip(xs[1:], exact[1:]):
        defect = profile_defect(x, f)
        _expect(defect <= PROFILE_TOL, f"exact column defect {defect:.3g} at x={x!r}")
    c = coefficients(orders[-1])
    _expect(sorted(doc["truncations"]) == orders, "truncation orders")
    for n in orders:
        for x, got in zip(xs, doc["truncations"][n]):
            want, scale = truncation(c, n, x)
            _expect(abs(got - want) <= 1e-11 * scale, f"T{n}({x!r})")
    stability = doc["stability"]
    _expect([r["order"] for r in stability] == orders, "stability orders")
    for r in stability:
        n, root_x = r["order"], r["sign_change_x"]
        _expect(r["stable"] == (n % 2 == 1), f"T{n} stable iff odd")
        if n % 2:
            _expect(root_x is None and r["precedes_criticality"] is None, f"T{n} root")
        else:
            _expect(root_x is not None and root_x > 0.0, f"T{n} has no sign change")
            if n == 2:
                _expect(root_x == 1.0, "T2 sign change is not at exactly x = 1")
            value, scale = truncation(c, n, root_x)
            _expect(abs(value) <= 1e-8 * scale, f"T{n} is not zero at its root")
            for j in range(1, 64):
                value, scale = truncation(c, n, root_x * j / 64)
                _expect(value < 0.0 or abs(value) <= 1e-10 * scale, f"T{n} earlier root")
            _expect(r["precedes_criticality"] == (root_x < CRITICAL), "precedes_criticality")
        for key, lo, hi in (
            ("sup_error_origin", 0.0, 0.5),
            ("sup_error_near_critical", 0.9 * CRITICAL, CRITICAL),
        ):
            errors = [
                abs(t - f)
                for x, t, f in zip(xs, doc["truncations"][n], exact)
                if lo <= x <= hi
            ]
            want = max(errors) if errors else None
            _expect(r[key] == want or _close(r[key], want, 1e-12), f"T{n} {key}")
    svg = op.flag("--svg")
    if svg:
        _expect(_svg_count(root / svg, "path") == 1 + len(orders), "one <path> per curve")


def _check_simulate(op, doc: dict, root: Path) -> None:
    tau = _tau(op)
    q = int(op.flag("--velocities", "64"))
    _expect(doc["tau"] == tau and doc["velocities"] == q, "tau/velocities echoed")
    _expect(doc["method"] == op.flag("--method", "rk4"), "method echoed")
    _expect(_close(doc["t_end"], float(op.flag("--t-end", 40.0 * tau)), 1e-15), "t_end")
    rows = doc["points"]
    _expect(len(rows) == int(op.flag("--points", "8")), "row count")
    for row in rows:
        x = tau * row["k"]
        _expect(_close(row["tau_k"], x, 1e-15), "tau_k column")
        _expect(0.0 < row["dt"] <= doc["t_end"], "dt")
        fitted = row["fitted_rate"]
        _expect(math.isfinite(fitted) and fitted <= 1e-9 / tau, "fitted rate")
        if x >= CRITICAL:
            _expect(row["status"] == "no_isolated_mode", f"status at tau k={x!r}")
            _expect(row["closure_rate"] is None, "closure rate past critical")
            continue
        _expect(row["status"] == "ok", f"status at tau k={x!r}")
        want = scaled_rate(x) / tau
        closure = row["closure_rate"]
        _expect(_close(closure, want, 0.0, 1e-10 / tau), "closure rate")
        tol = rate_tolerance(x, q, tau)
        if tol is not None:
            _expect(abs(fitted - want) <= tol, f"fitted rate off by {abs(fitted - want):.3g}")
        _expect(_close(row["abs_deviation"], abs(fitted - closure), 1e-12, 1e-300), "abs_deviation")


def _check_spectrum(op, doc: dict, root: Path) -> None:
    tau = _tau(op)
    q = int(op.flag("--velocities", "64"))
    k = float(op.flag("--k"))
    x = tau * k
    eigs = doc["eigenvalues"]
    _expect(doc["tau"] == tau and doc["k"] == k and doc["velocities"] == q, "echo")
    _expect(len(eigs) == q, "eigenvalue count")
    re = [e["re"] for e in eigs]
    _expect(all(a >= b for a, b in zip(re, re[1:])), "eigenvalues not sorted")
    _expect(max(re) <= 1e-9 / tau, "eigenvalue with positive real part")
    _expect(_close(doc["essential_rate"], -1.0 / tau, 1e-15), "essential_rate")
    _expect(_close(doc["gap"], re[0] - re[1], 1e-9, 1e-15 / tau), "gap")
    threshold = float(op.flag("--gap-threshold", 0.1 / tau))
    _expect(_close(doc["gap_threshold"], threshold, 1e-15), "gap_threshold")
    flagged = [i for i, e in enumerate(eigs) if e["hydrodynamic"]]
    _expect(flagged in ([], [0]), "hydrodynamic flag")
    _expect(doc["merged"] == (not flagged), "merged vs hydrodynamic flag")
    if x >= CRITICAL:
        _expect(doc["merged"], f"slow mode reported past critical, tau k={x!r}")
    tol = rate_tolerance(x, q, tau) if x < CRITICAL else None
    if tol is not None:
        _expect(not doc["merged"], f"slow mode merged at tau k={x!r}")
        want = scaled_rate(x) / tau
        _expect(abs(re[0] - want) <= tol, f"slow eigenvalue off by {abs(re[0] - want):.3g}")
        _expect(abs(eigs[0]["im"]) <= 1e-9 / tau, "slow eigenvalue not real")
    svg = op.flag("--svg")
    if svg:
        _expect(_svg_count(root / svg, "circle") == q, "one <circle> per eigenvalue")


def _svg_count(path: Path, tag: str) -> int:
    try:
        tree = ET.parse(path)
    except (OSError, ET.ParseError) as exc:
        raise Mismatch(f"svg unreadable: {exc}")
    return sum(1 for el in tree.iter() if el.tag.endswith("}" + tag))


_CHECKS = {
    "branch": _check_branch,
    "ce": _check_ce,
    "compare": _check_compare,
    "simulate": _check_simulate,
    "spectrum": _check_spectrum,
}


def check(op, returncode: int, stdout: str, stderr: str, root: Path) -> str | None:
    """None if the op's outcome is right, else the first reason it is not."""
    if "Traceback" in stderr:
        return "traceback on stderr"
    if op.refusal:
        if returncode != 2:
            return f"refusal exited {returncode}, expected 2"
        return None if stderr.strip() else "refusal without a message"
    if returncode != 0:
        return f"exit code {returncode}: {stderr.strip()[-200:]}"
    try:
        doc = _parse(op.command, op.flag("--format", "csv"), stdout)
        _CHECKS[op.command](op, doc, root)
    except Mismatch as exc:
        return str(exc)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return f"unparseable output: {type(exc).__name__}: {exc}"
    return None
