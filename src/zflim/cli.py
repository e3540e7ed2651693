"""Command-line front end: per-plant analysis pipeline and thin command wrappers.

Machine output is JSON (written atomically when --out is given), human
output is aligned text on stdout.  Infinities are serialised as the string
"inf".  Exit codes: 0 success, 1 the requested object does not exist (no
certificate / no multiplier), 2 unstable plant or internal error, 3 parse
error, usage error or invalid argument (such as a --k or --tol-k that is
not positive and finite, or both --example and --plant), 4 bisection
bracket failure (a partial report is still written), 5 report
chain-inequality violation.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
import tempfile
import time
from typing import Optional

import numpy as np

from .continuous_duality import CtCertificateInput, ct_check_nonodd, ct_check_odd
from .duality_lp import bisect_upper_bound, certificate_residual, lp_certificate
from .errors import BracketInvalid, InvalidGain, ZflimError
from .interval_limits import legacy_upper_bound
from .lti_core import nyquist_value, shift_by_inverse_gain
from .phase_limits import DEFAULT_BETA_MAX, coprime_pairs, phase_bound, scan_upper_bound
from .plants import BUILTIN, PlantRecord, dump_plant, load_plant
from .rational_core import (
    MONOTONE,
    ODD,
    RationalFrequency,
    construct_tight_multiplier,
)
from .zf_search import SearchConfig, bisect_lower_bound, find_multiplier

EXIT_OK = 0
EXIT_NOT_FOUND = 1
EXIT_ERROR = 2
EXIT_PARSE = 3
EXIT_BRACKET = 4
EXIT_CHAIN = 5

SCHEMA_VERSION = 2
CHAIN_SLACK = 1e-6


def _jsonable(obj):
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def write_json(path: Optional[str], payload: dict):
    if path is None:
        return
    atomic_write(path, json.dumps(_jsonable(payload), indent=2) + "\n")


def atomic_write(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".zflim-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _resolve_plant(args) -> PlantRecord:
    return BUILTIN[args.example] if args.example else load_plant(args.plant)


def _add_plant_args(p):
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--example", choices=sorted(BUILTIN), help="bundled plant name")
    group.add_argument("--plant", help="path to a plant JSON file")


def _class_arg(p):
    p.add_argument(
        "--class",
        dest="class_tag",
        choices=[MONOTONE, ODD],
        required=True,
        help="nonlinearity class the multiplier must respect",
    )


def _taps_json(mult) -> dict:
    return {str(i): v for i, v in sorted(mult.taps.items())}


def cmd_nyquist(args) -> int:
    record = _resolve_plant(args)
    k = nyquist_value(record.tf())
    print(f"{record.name}: k_nyquist = {k:.6f}" if math.isfinite(k)
          else f"{record.name}: k_nyquist = inf")
    write_json(args.out, {"plant": record.name, "k_nyquist": k})
    return EXIT_OK


def cmd_limits(args) -> int:
    rows = ["alpha,beta,omega,bound_monotone_rad,bound_odd_rad"]
    for rf in coprime_pairs(args.beta_max):
        rows.append(
            f"{rf.alpha},{rf.beta},{rf.omega!r},"
            f"{phase_bound(rf, MONOTONE)!r},{phase_bound(rf, ODD)!r}"
        )
    text = "\n".join(rows) + "\n"
    if args.out:
        atomic_write(args.out, text)
        print(f"wrote {len(rows) - 1} rows to {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_construct(args) -> int:
    rf = RationalFrequency(args.alpha, args.beta)
    sign = +1 if args.sign == "+" else -1
    mult = construct_tight_multiplier(rf, args.class_tag, sign)
    phase = mult.phase_at(rf.omega)
    print(f"M(z) = 1 - sum h_i z^-i with taps {_taps_json(mult)}; phase {phase:+.12f} rad at {rf}")
    write_json(args.out, {
        "alpha": rf.alpha,
        "beta": rf.beta,
        "class": args.class_tag,
        "sign": args.sign,
        "taps": _taps_json(mult),
        "phase": phase,
    })
    return EXIT_OK


def cmd_certify(args) -> int:
    record = _resolve_plant(args)
    tf = record.tf()
    if args.k is not None:
        tf = shift_by_inverse_gain(tf, args.k)
    cert = lp_certificate(tf, args.beta, args.class_tag)
    if cert is None:
        print(f"{record.name}: no certificate at beta={args.beta} for class {args.class_tag}")
        return EXIT_NOT_FOUND
    residual = certificate_residual(tf, cert)
    print(f"{record.name}: certificate found (beta={args.beta}, class={args.class_tag}, "
          f"margin={cert.margin:.3e}, residual_max={residual:.3e})")
    write_json(args.out, {
        "beta": cert.beta,
        "class": cert.class_tag,
        "k": args.k,
        "lambdas": list(cert.lambdas),
        "margin": cert.margin,
        "residual_max": residual,
    })
    return EXIT_OK


def cmd_search(args) -> int:
    record = _resolve_plant(args)
    tf = record.tf()
    if args.k is not None:
        tf = shift_by_inverse_gain(tf, args.k)
    config = SearchConfig(n_z=args.nz)
    mult = find_multiplier(tf, config, args.class_tag)
    if mult is None:
        print(f"{record.name}: no multiplier found (n_z={args.nz}, class={args.class_tag})")
        return EXIT_NOT_FOUND
    print(f"{record.name}: multiplier found with {len(mult.taps)} taps, "
          f"l1 norm {mult.l1_norm:.6f}")
    write_json(args.out, {
        "n_z": args.nz,
        "class": args.class_tag,
        "k": args.k,
        "taps": _taps_json(mult),
    })
    return EXIT_OK


def cmd_legacy(args) -> int:
    record = _resolve_plant(args)
    t0 = time.perf_counter()
    result = legacy_upper_bound(record.tf(), args.class_tag, args.resolution,
                                args.k_lo, args.k_hi, args.tol_k)
    wall = time.perf_counter() - t0
    a, b = result.witness if result.witness else (None, None)
    print(f"{record.name}: legacy upper bound {result.k_upper:.6f} "
          f"(witness [{a}, {b}], resolution {args.resolution}, {wall:.1f}s)")
    write_json(args.out, {
        "k_upper": result.k_upper,
        "a": a,
        "b": b,
        "resolution": args.resolution,
        "wall_time": wall,
    })
    return EXIT_OK


def cmd_ct_check(args) -> int:
    with open(args.input, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    keys = ("freqs", "values", "lambdas")
    if not (isinstance(data, dict) and all(isinstance(data.get(key), list) for key in keys)):
        raise ValueError("ct-check file must be a JSON object with lists " + ", ".join(keys))

    def number(x):  # a float or a non-bool integer a float holds; float() refuses a bad string
        return type(x) is float or type(x) is int and abs(x) <= sys.float_info.max

    if not all(number(x) or isinstance(x, str) for x in data["freqs"] + data["lambdas"]):
        raise ValueError("each of freqs and lambdas must be a number")
    if not all(number(v) or isinstance(v, str) or isinstance(v, list) and len(v) == 2
               and all(map(number, v)) for v in data["values"]):
        raise ValueError("each of values must be a number or an [re, im] pair")
    if not all(data.get(k) is None or number(data[k]) for k in ("t_horizon", "t_step")):
        raise ValueError("t_horizon and t_step must be numbers")
    check = args.check or data.get("check", "odd")
    if check not in ("odd", "nonodd"):
        raise ValueError(f"unknown check {check!r}; have odd and nonodd")
    freqs = [float(f) for f in data["freqs"]]
    values = [complex(v[0], v[1]) if isinstance(v, list) else complex(v) for v in data["values"]]
    lambdas = [float(x) for x in data["lambdas"]]
    times = [float(data[k]) for k in ("t_horizon", "t_step") if data.get(k) is not None]
    numbers = (freqs[:-1] if freqs[-1:] == [math.inf] else freqs) + lambdas + times
    if not all(map(math.isfinite, numbers + [p for v in values for p in (v.real, v.imag)])):
        raise ValueError("ct-check numbers must be finite, except a last frequency of inf")
    inp = CtCertificateInput(
        freqs=freqs,
        values=values,
        lambdas=lambdas,
        t_horizon=data.get("t_horizon"),
        t_step=data.get("t_step"),
    )
    holds = ct_check_odd(inp) if check == "odd" else ct_check_nonodd(inp)
    print(f"ct-check {check}: {'holds' if holds else 'does not hold'}")
    write_json(args.out, {"check": check, "holds": holds})
    return EXIT_OK if holds else EXIT_NOT_FOUND


@contextlib.contextmanager
def _stage(wall_times: dict, name: str):
    """Record the with-block's wall time as wall_times[name]."""
    t0 = time.perf_counter()
    yield
    wall_times[name] = time.perf_counter() - t0


def cmd_analyze(args) -> int:
    record = _resolve_plant(args)
    tf = record.tf()
    wall_times = {}
    with _stage(wall_times, "nyquist"):
        k_nyquist = nyquist_value(tf)
    with _stage(wall_times, "scan_upper"):
        scan = scan_upper_bound(tf, args.class_tag, args.beta_max)
    witness = scan.witness_freq
    report = {
        "schema": SCHEMA_VERSION,
        "plant": record.name,
        "class": args.class_tag,
        "k_nyquist": k_nyquist,
        "k_lower": {"value": math.inf, "n_z": None},
        "k_upper_single": {
            "value": scan.k_upper,
            "alpha": witness.alpha if witness else None,
            "beta": witness.beta if witness else None,
        },
        "k_upper_lp": {"value": math.inf, "beta": None, "tol_k": None},
        "dual_gap_percent": None,
        "wall_times": wall_times,
        "note": None,
    }
    k_lower, k_upper_lp = report["k_lower"], report["k_upper_lp"]
    exit_code = EXIT_OK

    cap = min(scan.k_upper, k_nyquist)
    if math.isinf(cap):
        report["note"] = "passive regime: no finite upper bound, any slope admits the trivial multiplier"
    else:
        k_lower["n_z"] = args.nz
        with _stage(wall_times, "lower_bound"):
            try:
                k_lower["value"] = bisect_lower_bound(
                    tf, SearchConfig(n_z=args.nz), args.class_tag, cap / 1000.0, cap, args.tol_k,
                    witness.omega if scan.k_upper == cap else None,
                )
            except BracketInvalid as exc:
                report["note"] = f"lower-bound bracket failed: {exc}"
                exit_code = EXIT_BRACKET

        k_upper_lp.update(beta=args.lp_beta, tol_k=args.tol_k)
        with _stage(wall_times, "lp_upper"):
            if exit_code == EXIT_OK:
                try:
                    k_upper_lp["value"] = bisect_upper_bound(
                        tf, args.lp_beta, args.class_tag,
                        k_lower["value"] * (1.0 - 1e-9), cap, args.tol_k,
                    )
                except BracketInvalid as exc:
                    report["note"] = f"upper-bound bracket failed: {exc}"
                    exit_code = EXIT_BRACKET

    lower, lp = k_lower["value"], k_upper_lp["value"]
    best_upper = min(scan.k_upper, lp, k_nyquist)
    if math.isfinite(lower) and lower > 0 and math.isfinite(best_upper):
        report["dual_gap_percent"] = 100.0 * (best_upper - lower) / lower

    # a failed bracket leaves k_lower or k_upper_lp = inf, and the scan bound alone
    # may exceed k_nyquist: both are upper bounds, and the pipeline caps at the smaller
    found = math.isfinite(lower)
    violations = [message for broken, message in (
        (found and lower > scan.k_upper + CHAIN_SLACK,
         "k_lower exceeds single-frequency upper bound"),
        (found and lower > lp + CHAIN_SLACK, "k_lower exceeds LP upper bound"),
        (math.isfinite(lp) and lp > k_nyquist + CHAIN_SLACK,
         "upper bound exceeds the linear stability gain"),
    ) if broken]
    if violations and exit_code == EXIT_OK:
        report["note"] = "; ".join(violations)
        exit_code = EXIT_CHAIN

    write_json(args.out, report)
    _print_report(report)
    if violations:
        print("chain violation: " + "; ".join(violations), file=sys.stderr)
    return exit_code


def _fmt(x: float) -> str:
    return f"{x:.6f}" if math.isfinite(x) else "inf"


def _print_report(r: dict):
    single, lp = r["k_upper_single"], r["k_upper_lp"]
    wit = f"({single['alpha']}/{single['beta']})*pi" if single["alpha"] is not None else "-"
    gap = f"{r['dual_gap_percent']:.4f}%" if r["dual_gap_percent"] is not None else "-"
    print(f"plant            {r['plant']}")
    print(f"class            {r['class']}")
    print(f"k_nyquist        {_fmt(r['k_nyquist'])}")
    print(f"k_lower          {_fmt(r['k_lower']['value'])}  (n_z={r['k_lower']['n_z']})")
    print(f"k_upper_single   {_fmt(single['value'])}  at {wit}")
    print(f"k_upper_lp       {_fmt(lp['value'])}  (beta={lp['beta']})")
    print(f"dual_gap         {gap}")
    if r["note"]:
        print(f"note             {r['note']}")


def _lp_beta(text: str) -> int:
    """An LP grid beta, refused below 2 before any stage runs."""
    if not (text.strip().lstrip("+").isdigit() and int(text) >= 2):
        raise argparse.ArgumentTypeError(f"need an integer beta of at least 2, got {text!r}")
    return int(text)


@functools.cache  # one parser per process; each parse returns a fresh namespace
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zflim",
        description="Slope bounds and non-existence certificates for Lurye feedback loops",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full lower/upper bound pipeline for one plant")
    _add_plant_args(p)
    _class_arg(p)
    p.add_argument("--beta-max", type=int, default=DEFAULT_BETA_MAX)
    p.add_argument("--lp-beta", type=_lp_beta, default=210)
    p.add_argument("--nz", type=int, default=8)
    p.add_argument("--tol-k", type=float, default=1e-4)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("nyquist", help="largest stable linear gain")
    _add_plant_args(p)
    p.set_defaults(func=cmd_nyquist)

    p = sub.add_parser("limits", help="CSV of phase bounds over rational frequencies")
    p.add_argument("--beta-max", type=int, default=DEFAULT_BETA_MAX)
    p.set_defaults(func=cmd_limits)

    p = sub.add_parser("certify", help="multi-frequency non-existence certificate")
    _add_plant_args(p)
    _class_arg(p)
    p.add_argument("--k", type=float, help="slope; the plant is shifted to G + 1/k first")
    p.add_argument("--beta", type=int, required=True)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("search", help="FIR multiplier search, positive on the whole circle")
    _add_plant_args(p)
    _class_arg(p)
    p.add_argument("--k", type=float, help="slope; the plant is shifted to G + 1/k first")
    p.add_argument("--nz", type=int, default=8)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("construct", help="one-tap multiplier meeting the phase bound")
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--beta", type=int, required=True)
    _class_arg(p)
    p.add_argument("--sign", choices=["+", "-"], default="+")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("legacy", help="interval-limitation upper bound (comparison method)")
    _add_plant_args(p)
    _class_arg(p)
    p.add_argument("--resolution", type=float, default=1e-3)
    p.add_argument("--k-lo", type=float, required=True)
    p.add_argument("--k-hi", type=float, required=True)
    p.add_argument("--tol-k", type=float, default=1e-3)
    p.set_defaults(func=cmd_legacy)

    p = sub.add_parser("ct-check", help="continuous-time non-existence check from samples")
    p.add_argument("--input", required=True, help="JSON file matching CtCertificateInput")
    p.add_argument("--check", choices=["odd", "nonodd"])
    p.set_defaults(func=cmd_ct_check)

    for p in sub.choices.values():
        p.add_argument("--out")

    p = sub.add_parser("show-plant", help="re-emit a plant record as JSON")
    _add_plant_args(p)
    p.set_defaults(func=cmd_show_plant)
    return parser


def cmd_show_plant(args) -> int:
    record = _resolve_plant(args)
    print(dump_plant(record))
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help and 2 on a usage error
        return EXIT_OK if exc.code == 0 else EXIT_PARSE
    try:
        return args.func(args)
    except np.linalg.LinAlgError as exc:  # a ValueError, but a numerical failure, not bad input
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (ValueError, InvalidGain, json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BracketInvalid as exc:
        print(f"bracket error: {exc}", file=sys.stderr)
        return EXIT_BRACKET
    except ZflimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:  # MemoryError and whatever else nothing above maps
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
