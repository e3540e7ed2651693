"""The benchmark's workloads: their inputs, their operations and the checks on each output.

A workload makes its inputs from the seed; `batch()` is the same for the
same seed.  One round runs the operation on every input of the batch, in
order, in this process, and the runner repeats rounds over the same batch.
`check` returns the ways an output is wrong (empty when it is right);
`deep` asks for the costlier independent checks, which the runner makes on
the first round only.  `warm_up` runs an operation untimed, so that the
first timed round does not pay for code paths that run for the first time.

Operations call zflim through module attributes (`duality_lp.lp_certificate`,
not a name imported here) so that a traced round sees them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import statistics

import numpy as np

from zflim import continuous_duality, duality_lp, interval_limits, lti_core, phase_limits
from zflim import cli, rational_core, zf_search
from zflim.plants import BUILTIN, PlantRecord

import reference as ref
from reference import MONOTONE, ODD

CLASSES = (MONOTONE, ODD)


def response(record: PlantRecord, omega, k=None):
    """G(e^{j omega}) (+ 1/k) from the published descending coefficients, by numpy alone."""
    z = np.exp(1j * np.asarray(omega, dtype=float))
    g = np.polyval(record.num, z) / np.polyval(record.den, z)
    return g if k is None else g + 1.0 / k


def multiplier_response(taps: dict, omega):
    """M(e^{j omega}) = 1 - sum_i h_i e^{-j omega i}."""
    w = np.asarray(omega, dtype=float)
    return 1.0 - sum(h * np.exp(-1j * w * i) for i, h in taps.items())


def certificate_rows(record: PlantRecord, beta: int, class_tag: str, k: float):
    """Constraint rows of the beta-grid certificate for G + 1/k, split as A + D/k.

    Row i at frequency omega_r = r*pi/beta is Re{(1 -+ e^{-j omega_r i})(G + 1/k)};
    D = 1 -+ cos(omega_r i) >= 0 is the part the shift contributes.
    """
    omega = np.arange(1, beta) * math.pi / beta
    g = response(record, omega)
    e = np.exp(-1j * omega[None, :] * np.arange(2 * beta)[:, None])
    a = [((1.0 - e) * g).real]
    d = [(1.0 - e).real]
    if class_tag == ODD:
        a.append(((1.0 + e) * g).real)
        d.append((1.0 + e).real)
    return np.vstack(a), np.vstack(d)


def certificate_mismatches(record, beta, class_tag, k, cert) -> list:
    """Independent re-verification of a certificate for G + 1/k."""
    bad = []
    lam = np.asarray(cert.lambdas)
    if np.any(lam < 0.0) or abs(float(lam.sum()) - 1.0) > 1e-12:
        bad.append("certificate weights are not a distribution")
    a, d = certificate_rows(record, beta, class_tag, k)
    residual = float(np.max(a @ lam + (d @ lam) / k))
    if not residual <= ref.CERT_RESIDUAL_MAX:
        bad.append(f"independent certificate residual {residual:.3e} > {ref.CERT_RESIDUAL_MAX}")
    return bad


def certified_from(record, beta, class_tag, cert) -> float:
    """Smallest slope the certificate's own weights certify.

    With rows A + D/k and D @ lambda >= 0, the weights certify every k with
    1/k <= min over rows of -(A @ lambda)/(D @ lambda).
    """
    a, d = certificate_rows(record, beta, class_tag, 1.0)
    lam = np.asarray(cert.lambdas)
    av, dv = a @ lam, d @ lam
    pos = dv > 1e-15
    if np.any(av[~pos] > ref.CERT_RESIDUAL_MAX):
        return math.inf
    return 1.0 / float(np.min(-av[pos] / dv[pos]))


def rel_err(x, x_ref):
    return abs(x - x_ref) / abs(x_ref)


def reference_mismatches(name, class_tag, k_nyquist, k_single, witness) -> list:
    """Bundled-plant Nyquist value and single-frequency bound against the pinned values."""
    bad = []
    if rel_err(k_nyquist, ref.NYQUIST[name]) > ref.NYQUIST_RTOL:
        bad.append(f"k_nyquist {k_nyquist} vs {ref.NYQUIST[name]}")
    k_ref, w_ref = ref.SINGLE_FREQ[(name, class_tag)]
    if abs(k_single - k_ref) > ref.SINGLE_FREQ_ATOL or tuple(witness) != w_ref:
        bad.append(f"scan bound {k_single} at {witness} vs {k_ref} at {w_ref}")
    return bad


class Bracket:
    """`zflim analyze` on all 12 bundled plant x class pairs at a reduced LP grid.

    The seed does not change this workload: its inputs are the paper's plants.
    At beta 60 one round takes about 6 s, so a run times each pair several
    times (see README.md).
    """

    name = "bracket"
    lp_beta = 60
    # The monotone witness of ex1, (2/7)*pi, is not on the beta=60 grid, so no
    # certificate exists at the scan cap and analyze reports a bracket failure.
    expected_exit = {("ex1", MONOTONE): cli.EXIT_BRACKET}

    def __init__(self, seed: int, workdir: str):
        self.inputs = [(name, c) for name in sorted(BUILTIN) for c in CLASSES]
        self.report_path = os.path.join(workdir, "report.json")

    def batch(self):
        return self.inputs

    def warm_up(self):
        self.run(self.inputs[0])

    def run(self, inp):
        name, class_tag = inp
        argv = ["analyze", "--example", name, "--class", class_tag,
                "--lp-beta", str(self.lp_beta), "--out", self.report_path]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        with open(self.report_path, encoding="utf-8") as fh:
            report = json.load(fh)
        os.unlink(self.report_path)
        return code, report

    def label(self, inp):
        return "/".join(inp)

    def outcome(self, inp, out):
        return f"exit {out[0]}"

    def check(self, inp, out, deep):
        name, class_tag = inp
        code, r = out
        bad = []
        expected = self.expected_exit.get(inp, cli.EXIT_OK)
        if code != expected:
            bad.append(f"exit {code}, expected {expected}")
        k_nyq = float(r["k_nyquist"])
        k_lower = float(r["k_lower"]["value"])
        k_single = float(r["k_upper_single"]["value"])
        k_lp = float(r["k_upper_lp"]["value"])
        witness = (r["k_upper_single"]["alpha"], r["k_upper_single"]["beta"])
        bad += reference_mismatches(name, class_tag, k_nyq, k_single, witness)
        if rel_err(k_lower, ref.LOWER[inp]) > ref.LOWER_RTOL:
            bad.append(f"k_lower {k_lower} vs {ref.LOWER[inp]}")
        slack = ref.CHAIN_SLACK
        if k_lower > k_single + slack or k_lower > k_lp + slack:
            bad.append("chain: k_lower above an upper bound")
        if min(k_single, k_lp) > k_nyq + slack:
            bad.append("chain: upper bound above the linear stability gain")
        if deep and math.isfinite(k_lp):
            record = BUILTIN[name]
            shifted = lti_core.shift_by_inverse_gain(record.tf(), k_lp)
            cert = duality_lp.lp_certificate(shifted, self.lp_beta, class_tag)
            if cert is None:
                bad.append(f"no certificate at the reported k_upper_lp {k_lp}")
            else:
                bad += certificate_mismatches(record, self.lp_beta, class_tag, k_lp, cert)
        return bad

    def gap_pct(self, outputs):
        gaps = []
        for code, r in outputs:
            k_lower = float(r["k_lower"]["value"])
            upper = min(float(r["k_upper_single"]["value"]), float(r["k_upper_lp"]["value"]))
            gaps.append(100.0 * (upper - k_lower) / k_lower)
        return statistics.median(gaps)

    def analyze_wall_times(self, outputs):
        return [r["wall_times"] for _, r in outputs]


class CertifyDeep:
    """`zflim certify` on ex1, odd class, beta 160: shift, certificate LP, residual.

    One slope below the LP bound 13.5131 (no certificate exists) and one
    above it (one does), each a 639 x 159 matrix game of about 400 pivots.
    The seed does not change this workload: the slopes are fixed because the
    simplex pivot count swings widely with the slope (see README.md).
    """

    name = "certify-deep"
    beta = 160
    plant = "ex1"
    slopes = (13.46, 13.56)

    def __init__(self, seed: int, workdir: str):
        self.record = BUILTIN[self.plant]

    def batch(self):
        return list(self.slopes)

    def warm_up(self):
        self.run(self.slopes[0])

    def run(self, k):
        shifted = lti_core.shift_by_inverse_gain(self.record.tf(), k)
        cert = duality_lp.lp_certificate(shifted, self.beta, ODD)
        residual = duality_lp.certificate_residual(shifted, cert) if cert is not None else None
        return cert, residual

    def label(self, k):
        return f"k={k}"

    def outcome(self, k, out):
        return "certificate" if out[0] is not None else "no certificate"

    def check(self, k, out, deep):
        cert, residual = out
        should_exist = k > ref.LP_BOUND_EX1_ODD_160 + ref.LP_BOUND_ATOL
        if (cert is not None) != should_exist:
            return [f"certificate {'found' if cert else 'missing'} at k={k}"]
        if cert is None:
            return []
        bad = []
        if not residual <= ref.CERT_RESIDUAL_MAX:
            bad.append(f"certificate_residual {residual:.3e}")
        bad += certificate_mismatches(self.record, self.beta, ODD, k, cert)
        if deep:
            shifted = lti_core.shift_by_inverse_gain(self.record.tf(), k)
            found = zf_search.find_multiplier(shifted, zf_search.SearchConfig(n_z=8), ODD)
            if found is not None:
                bad.append(f"multiplier found at certified k={k}")
        return bad

    def gap_pct(self, outputs):
        """How far above the pinned LP bound the returned certificate's own bound lies."""
        bounds = [certified_from(self.record, self.beta, ODD, cert)
                  for cert, _ in outputs if cert is not None]
        b = ref.LP_BOUND_EX1_ODD_160
        return statistics.median(100.0 * (k - b) / b for k in bounds) if bounds else math.inf

    def analyze_wall_times(self, outputs):
        return []


def random_plant(rng, index: str) -> PlantRecord:
    """Stable plant of order 2..6 with poles inside radius 0.9 and finite bounds.

    Draws are repeated (deterministically, from the same generator) until
    the plant has a finite Nyquist value and a finite single-frequency bound
    for both classes, trying -G before a fresh draw; the screen operations
    bracket that bound.
    """
    while True:
        order = int(rng.integers(2, 7))
        radius = rng.uniform(0.2, 0.9, order // 2)
        angle = rng.uniform(0.05, math.pi - 0.05, order // 2)
        poles = list(radius * np.exp(1j * angle)) + list(radius * np.exp(-1j * angle))
        if order % 2:
            poles.append(rng.uniform(-0.9, 0.9))
        den = np.poly(poles).real
        num = np.poly(rng.uniform(-1.2, 1.2, order - 1)).real
        z = np.exp(1j * np.linspace(0.0, math.pi, 512))
        num = num / np.max(np.abs(np.polyval(num, z) / np.polyval(den, z)))
        for sign in (1.0, -1.0):
            record = PlantRecord(f"rand{index}", tuple(sign * num), tuple(den))
            tf = record.tf()
            bounds = [lti_core.nyquist_value(tf)]
            bounds += [phase_limits.scan_upper_bound(tf, c).k_upper for c in CLASSES]
            if all(math.isfinite(b) for b in bounds):
                return record


def ct_input(rng):
    """Seeded samples at four frequencies r*pi/12, so the integer-time condition is exact."""
    r = np.sort(rng.choice(np.arange(1, 12), size=4, replace=False))
    return continuous_duality.CtCertificateInput(
        freqs=[float(x) * math.pi / 12 for x in r],
        values=[complex(rng.normal(), rng.normal()) for _ in r],
        lambdas=[float(x) for x in rng.dirichlet(np.ones(4))],
        t_horizon=300.0,
        t_step=0.002,
    )


def ct_exact(inp, check: str) -> bool:
    """The non-existence condition over integer times, where one period (24) is exact."""
    t = np.arange(24.0)[:, None]
    terms = np.array(inp.values) * np.exp(-1j * np.array(inp.freqs) * t)
    s = np.sum(np.array(inp.lambdas) * terms.real, axis=1)
    if check == "odd":
        return inp.lhs() <= -float(np.max(np.abs(s)))
    return inp.lhs() <= float(np.min(s))


class Screen:
    """Closed-form and small-LP layers on bundled and seeded random plants.

    Per plant x class: Nyquist value, single-frequency scan (beta_max 50),
    the tight one-tap multiplier at the witness, multiplier searches at 0.98
    and 1.02 times the scan bound, the interval method at resolution 1e-2,
    and one seeded continuous-time check (odd check for the odd class).
    """

    name = "screen"
    # Two random plants per run: one plant x class usually takes 0.05-0.3 s,
    # but about 1 in 100 takes 1-3 s (and rarer ones far longer), so more of
    # them would let the draw, not the program, set the run's times.
    random_plants = 2
    n_z = 8

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        records = [BUILTIN[name] for name in sorted(BUILTIN)]
        records += [random_plant(rng, str(j)) for j in range(self.random_plants)]
        self.inputs = [(rec, c, int(rng.choice([1, -1])), ct_input(rng))
                       for rec in records for c in CLASSES]

    def batch(self):
        return self.inputs

    def timed(self, inp):
        """Only the bundled plants count in the timings; every seed shares them.

        The random plants are screened and checked every round, but their
        cost ranges over 50x with the draw, so timing them would let the
        seed, not the program, set the figures.
        """
        return inp[0].name in BUILTIN

    def warm_up(self):
        self.run(self.inputs[0])

    def run(self, inp):
        record, class_tag, sign, ct = inp
        tf = record.tf()
        k_nyq = lti_core.nyquist_value(tf)
        scan = phase_limits.scan_upper_bound(tf, class_tag, 50)
        k = scan.k_upper
        mult = rational_core.construct_tight_multiplier(scan.witness_freq, class_tag, sign)
        config = zf_search.SearchConfig(n_z=self.n_z)
        shift = lti_core.shift_by_inverse_gain
        below = zf_search.find_multiplier(shift(tf, 0.98 * k), config, class_tag)
        above = zf_search.find_multiplier(shift(tf, 1.02 * k), config, class_tag)
        legacy = interval_limits.legacy_upper_bound(tf, class_tag, 1e-2, 0.5 * k, 1.5 * k, 1e-3 * k)
        if class_tag == ODD:
            check = continuous_duality.ct_check_odd
        else:
            check = continuous_duality.ct_check_nonodd
        return {"bundled": record.name in BUILTIN, "k_nyq": k_nyq, "scan": scan, "mult": mult,
                "below": below, "above": above, "legacy": legacy, "ct": check(ct)}

    def label(self, inp):
        return f"{inp[0].name}/{inp[1]}"

    def outcome(self, inp, out):
        return "ok, found at 0.98" if out["below"] is not None else "ok, none at 0.98"

    def check(self, inp, out, deep):
        record, class_tag, sign, ct = inp
        bad = []
        scan = out["scan"]
        k = scan.k_upper
        rf = scan.witness_freq
        if record.name in ref.NYQUIST:
            witness = (rf.alpha, rf.beta)
            bad += reference_mismatches(record.name, class_tag, out["k_nyq"], k, witness)
        # the tight construction meets the class phase cap exactly
        if rf.beta == 1:
            cap = 0.0
        elif class_tag == MONOTONE and rf.alpha % 2 == 0:
            cap = (math.pi / 2) * (1 - 2 / rf.beta)
        else:
            cap = (math.pi / 2) * (1 - 1 / rf.beta)
        mult = out["mult"]
        phase = float(np.angle(multiplier_response(mult.taps, rf.omega)))
        if abs(phase - sign * cap) > 1e-12 or sum(abs(h) for h in mult.taps.values()) > 1 + 1e-15:
            bad.append(f"tight multiplier phase {phase} vs {sign * cap} at {rf}")
        if class_tag == MONOTONE and any(h < 0 for h in mult.taps.values()):
            bad.append("monotone multiplier with a negative tap")
        if out["above"] is not None:
            bad.append(f"multiplier found above the certified scan bound {k}")
        below = out["below"]
        if below is not None:
            w = np.concatenate([np.linspace(0.0, math.pi, 4097), [rf.omega]])
            values = multiplier_response(below.taps, w) * response(record, w, 0.98 * k)
            worst = float(np.min(values.real))
            if worst < 0.0:
                bad.append(f"multiplier at 0.98 x scan bound is not positive: {worst:.3e}")
        legacy = out["legacy"].k_upper
        if legacy < k - ref.CHAIN_SLACK:
            bad.append(f"legacy bound {legacy} below the scan bound {k}")
        check = "odd" if class_tag == ODD else "nonodd"
        if out["ct"] and not ct_exact(ct, check):
            bad.append(f"sampled ct_check_{check} holds where the integer-time condition fails")
        return bad

    def gap_pct(self, outputs):
        """Median excess of the interval method's bound over the scan bound, bundled plants.

        Random plants are left out: their excess ranges widely with the
        seed, which would hide a change in the method behind the draw.
        """
        return statistics.median(
            100.0 * (o["legacy"].k_upper - o["scan"].k_upper) / o["scan"].k_upper
            for o in outputs if o["bundled"]
        )

    def analyze_wall_times(self, outputs):
        return []


WORKLOADS = {w.name: w for w in (Bracket, CertifyDeep, Screen)}
