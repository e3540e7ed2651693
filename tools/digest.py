"""Digests that pin zflim's results: every simplex pivot and every report.

    python3 tools/digest.py [SRC]

Imports zflim from SRC (default: the src/ of this checkout), runs `zflim
analyze` on the 12 bundled plant x class pairs at --lp-beta 60 and 210,
then the two certificate LPs of the `certify-deep` benchmark workload (ex1,
odd class, beta 160, k 13.46 and 13.56), and prints four sha256 digests:

  pivots   every (row, column) pivot of every `simplex.Tableau`, in order;
  reports  each analyze exit code and report without its wall_times, and
           each certificate's weights, byte for byte;
  stdout   each analyze exit code, stdout and stderr;
  layers   on the 12 pairs, `legacy_upper_bound` (k_upper in hex and the
           witness) at the `screen` workload's settings (resolution 1e-2 on
           [0.5k, 1.5k], tol_k 1e-3*k, k the scan bound at beta_max 50) and
           at acceptance criterion 8's (1e-3 on [0.5k, 0.995*k_nyquist],
           tol_k 1e-3), and the scans at beta_max 2, 3, 50 and 97; then
           `period` and the tight one-tap taps over `coprime_pairs(60)` x
           class x sign, and the `limits --beta-max 50` CSV.

Before `layers` it prints three digests of its parts, so that a change to one
method shows on its own line: `legacy` (both settings), `scans`, and `tight`
(`period`, the taps and the CSV).

It also prints, per --lp-beta, the `Tableau.solve` calls, the pivots and the
stability checks (`is_stable` calls) of the 12 analyze runs, their certificate
and search LPs (`generate_rows` calls) with the cold solves those took (the
first and any restart), and their whole-circle root solves
(`zf_search._extrema` calls) with the summed and the largest order of the
eigenproblems those solved; per `certify-deep` LP, the rows and columns it held
at the end, its pivots, and its cold solves and warm ones; and, per legacy
setting, the pairs whose screen ratio the 12 `legacy_upper_bound` runs
computed, their `interval_slope_bound` evaluations and the series terms those
evaluations computed. Two commits that print the same digests pivoted
identically and reported the same numbers.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy loads, as the benchmark runs
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from collections import Counter

LP_BETAS = (60, 210)
CERTIFY_DEEP = ("ex1", 160, (13.46, 13.56))


def main(argv) -> int:
    src = argv[0] if argv else os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    sys.path.insert(0, os.path.abspath(src))
    import numpy as np
    from zflim import cli, duality_lp, interval_limits, lti_core, phase_limits, simplex, zf_search
    from zflim.plants import BUILTIN
    from zflim.rational_core import MONOTONE, ODD

    pivots, reports, printed = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    counts = Counter()
    pivot, solve, is_stable = simplex.Tableau._pivot, simplex.Tableau.solve, lti_core.is_stable
    extrema, eigvals = zf_search._extrema, np.linalg.eigvals

    def counted_pivot(self, r, j):
        pivots.update(f"{r},{j};".encode())
        counts["pivots"] += 1
        return pivot(self, r, j)

    def counted_solve(self, *args, **kwargs):
        counts["solve"] += 1
        return solve(self, *args, **kwargs)

    def counted_is_stable(tf):
        counts["stable"] += 1
        return is_stable(tf)

    def counted_eigvals(a):
        counts["order"] += a.shape[0]
        counts["largest order"] = max(counts["largest order"], a.shape[0])
        return eigvals(a)

    def counted_extrema(*args):
        counts["extrema"] += 1
        np.linalg.eigvals = counted_eigvals
        try:
            return extrema(*args)
        finally:
            np.linalg.eigvals = eigvals

    cold_solve = simplex.simplex_max_leq

    def counted_cold(*args, **kwargs):
        counts["cold"] += 1
        return cold_solve(*args, **kwargs)

    def counted_lps(generate_rows, layer):
        def counted(*args, **kwargs):
            cold = counts["cold"]
            sol, A, b = generate_rows(*args, **kwargs)
            counts[layer] += 1
            counts[layer + " cold"] += counts["cold"] - cold
            counts["held"] = A.shape
            return sol, A, b

        return counted

    # the modules import is_stable by name, so each binding is patched
    patched = [(simplex.Tableau, "_pivot", counted_pivot), (simplex.Tableau, "solve", counted_solve),
               *((module, "is_stable", counted_is_stable)
                 for module in (lti_core, phase_limits, duality_lp, zf_search, interval_limits)),
               (simplex, "simplex_max_leq", counted_cold), (zf_search, "_extrema", counted_extrema),
               (duality_lp, "generate_rows", counted_lps(duality_lp.generate_rows, "certificate")),
               (zf_search, "generate_rows", counted_lps(zf_search.generate_rows, "search"))]
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patched]
    for owner, attr, wrapper in patched:
        setattr(owner, attr, wrapper)
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report.json")
        for lp_beta in LP_BETAS:
            counts.clear()
            for name in sorted(BUILTIN):
                for cls in (MONOTONE, ODD):
                    argv = ["analyze", "--example", name, "--class", cls,
                            "--lp-beta", str(lp_beta), "--out", out]
                    out_buf, err_buf = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out_buf), contextlib.redirect_stderr(err_buf):
                        code = cli.main(argv)
                    printed.update(json.dumps(
                        [code, out_buf.getvalue(), err_buf.getvalue()]).encode())
                    with open(out, encoding="utf-8") as fh:
                        report = json.load(fh)
                    report.pop("wall_times")
                    reports.update(json.dumps([code, report], sort_keys=True).encode())
            print(f"analyze --lp-beta {lp_beta}: {counts['solve']} Tableau.solve calls, "
                  f"{counts['pivots']} pivots, {counts['stable']} stability checks")
            print(f"analyze --lp-beta {lp_beta}: {counts['certificate']} certificate LPs with "
                  f"{counts['certificate cold']} cold solves, {counts['search']} search LPs with "
                  f"{counts['search cold']} cold solves, {counts['extrema']} whole-circle "
                  f"root solves of summed order {counts['order']} (largest "
                  f"{counts['largest order']})")

    name, beta, slopes = CERTIFY_DEEP
    for k in slopes:
        counts.clear()
        shifted = lti_core.shift_by_inverse_gain(BUILTIN[name].tf(), k)
        cert = duality_lp.lp_certificate(shifted, beta, ODD)
        reports.update(b"none" if cert is None else cert.lambdas.tobytes())
        rows, cols = counts["held"]
        print(f"certify-deep k {k}: {rows} rows x {cols} columns held, {counts['pivots']} "
              f"pivots, {counts['cold']} cold and {counts['solve'] - counts['cold']} warm solves")
    for owner, attr, original in originals:
        setattr(owner, attr, original)
    print(f"pivots  {pivots.hexdigest()}")
    print(f"reports {reports.hexdigest()}")
    print(f"stdout  {printed.hexdigest()}")
    print(f"layers  {layers_digest(BUILTIN, (MONOTONE, ODD))}")
    return 0


def layers_digest(plants, classes) -> str:
    """The `layers` digest of the module docstring; prints its parts' digests."""
    from zflim import cli, interval_limits
    from zflim.lti_core import nyquist_value
    from zflim.phase_limits import coprime_pairs, scan_upper_bound
    from zflim.rational_core import construct_tight_multiplier, period

    digest = hashlib.sha256()
    parts = {part: hashlib.sha256() for part in ("legacy", "scans", "tight")}
    screened, evaluations, terms, inside = Counter(), Counter(), Counter(), []
    slope_bound, slope_ratios = interval_limits.interval_slope_bound, interval_limits._slope_ratios
    screen_ratios = interval_limits._screen_ratios

    def counted_slope_bound(*args):
        evaluations[setting] += 1
        inside.append(True)
        try:
            return slope_bound(*args)
        finally:
            inside.pop()

    def counted_slope_ratios(psi_d, *args):
        if inside:  # a term of a full bound, not of the screen
            terms[setting] += psi_d.size
        return slope_ratios(psi_d, *args)

    def counted_screen_ratios(*args):
        ratios = screen_ratios(*args)
        screened[setting] += ratios.size
        return ratios

    interval_limits.interval_slope_bound = counted_slope_bound
    interval_limits._slope_ratios = counted_slope_ratios
    interval_limits._screen_ratios = counted_screen_ratios

    def update(part, *items):
        for each in (digest, parts[part]):
            each.update(repr(items).encode())

    for name in sorted(plants):
        tf = plants[name].tf()
        k_nyquist = nyquist_value(tf)
        for cls in classes:
            k = scan_upper_bound(tf, cls, 50).k_upper
            for setting, args in (("screen", (1e-2, 0.5 * k, 1.5 * k, 1e-3 * k)),
                                  ("criterion 8", (1e-3, 0.5 * k, 0.995 * k_nyquist, 1e-3))):
                res = interval_limits.legacy_upper_bound(tf, cls, *args)
                update("legacy", name, cls, res.k_upper.hex(),
                       res.witness and tuple(w.hex() for w in res.witness))
            for beta_max in (2, 3, 50, 97):
                scan = scan_upper_bound(tf, cls, beta_max)
                update("scans", name, cls, beta_max, scan.k_upper.hex(), str(scan.witness_freq))
    interval_limits.interval_slope_bound = slope_bound
    interval_limits._slope_ratios = slope_ratios
    interval_limits._screen_ratios = screen_ratios
    for setting, count in evaluations.items():
        print(f"legacy at {setting} settings: {screened[setting]} pairs screened, {count} "
              f"interval_slope_bound evaluations of {terms[setting]} terms")
    for rf in coprime_pairs(60):
        update("tight", str(rf), period(rf))
        for cls in classes:
            for sign in (+1, -1):
                update("tight", cls, sign,
                       sorted(construct_tight_multiplier(rf, cls, sign).taps.items()))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(["limits", "--beta-max", "50"])
    for each in (digest, parts["tight"]):
        each.update(out.getvalue().encode())
    for part, each in parts.items():
        print(f"  {part:<7}{each.hexdigest()}")
    return digest.hexdigest()


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
