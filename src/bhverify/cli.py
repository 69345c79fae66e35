"""Command-line front door.

Subcommands: verify, params, scan-pd, oracle, radial, all.  Exit code 0
means every mandatory check passed, 1 means a mathematical check failed
(nonzero residual, sign flip, survival > 0), 2 means a usage or
configuration error (an empty or unwritable --out or --dump-trajectories
path included), found before any section runs, and 3 means a fault inside
a section or its report.  An EngineError (such as an exact certificate
contradicted by a numeric check) is reported on stderr as ``engine error:
<ClassName>: <message>``, any other exception as ``internal error:
<ClassName>: <message> (at <file>:<line> in <function>)``.  Reports are
written atomically (JSON is byte-deterministic for a fixed seed and
configuration).  The section runners return the engine's result records and
read their verdicts from the records' fields; ``report.build_report`` alone
turns them into report data, and a value strict JSON cannot hold (a NaN) is
a fault in either format.

A flat key=value config file may supply defaults (path via --config or the
BHVERIFY_CONFIG environment variable); command-line flags take precedence.
Config values are validated like the flags they stand for (a value that does
not parse is reported by its key), and a key outside CONFIG_KEYS is a
configuration error, and so is a key set twice.
"""

from __future__ import annotations

import argparse
import errno
import math
import os
import re
import sys
from functools import partial

from . import paramcheck, registry
from .errors import EngineError, NoCombinationError, SingularSystemError
from .report import build_report, render_json, render_markdown, write_atomic

CONFIG_ENV_VAR = "BHVERIFY_CONFIG"
# every key run() reads from a config file
CONFIG_KEYS = ("format", "out", "n_max", "n_range", "grid", "seed", "samples",
               "dims", "tol", "n", "alpha", "radial_grid", "rmax")


def load_config(path: str | None) -> dict:
    """Flat key=value file; '#' at the start of a line or after whitespace
    starts a comment, so a value such as run#1.json keeps its '#'; a missing
    file named by --config or a non-empty $BHVERIFY_CONFIG, and a repeated
    key, are usage errors."""
    if path is None:
        path = os.environ.get(CONFIG_ENV_VAR)
        if not path:
            return {}
    if not os.path.exists(path):
        raise FileNotFoundError(f"config file not found: {path}")
    out = {}
    with open(path) as fh:
        for line in fh:
            line = re.split(r"(?:^|\s)#", line, maxsplit=1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"malformed config line: {line!r}")
            key, value = (s.strip() for s in line.split("=", 1))
            if key in out:
                raise ValueError(f"config key {key} is set more than once in {path}")
            out[key] = value
    unknown = sorted(set(out) - set(CONFIG_KEYS))
    if unknown:
        raise ValueError(f"unknown config key(s) {', '.join(unknown)} in {path}; "
                         f"accepted keys: {', '.join(CONFIG_KEYS)}")
    return out


def _pick(args_value, config: dict, key: str, cast, default):
    if args_value is not None:
        return args_value
    if key in config:
        try:
            return cast(config[key])
        except ValueError:
            raise ValueError(f"config key {key} = {config[key]!r} is not a valid "
                             f"{cast.__name__}") from None
    return default


def _require(ok: bool, flag: str, message: str):
    if not ok:
        raise ValueError(f"{flag} {message}")


def _out_path_error(path: str) -> str | None:
    """Why no report can be written to path, or None: path must not be empty
    or a directory, and its directory must exist, be one and be writable."""
    parent = os.path.dirname(os.path.abspath(path))
    if not path or not os.path.exists(parent):
        return os.strerror(errno.ENOENT)
    if not os.path.isdir(parent):
        return os.strerror(errno.ENOTDIR)
    if not os.access(parent, os.W_OK | os.X_OK):
        return os.strerror(errno.EACCES)
    if os.path.isdir(path):
        return os.strerror(errno.EISDIR)
    return None


def _parse_n_range(spec: str) -> tuple[int, int]:
    """'LO..HI' with 5 <= LO <= HI."""
    m = re.fullmatch(r"(-?[0-9]+)\.\.(-?[0-9]+)", spec.strip())
    _require(m is not None, "--n", f"expects LO..HI, got {spec!r}")
    lo, hi = int(m.group(1)), int(m.group(2))
    _require(5 <= lo <= hi, "--n", f"needs 5 <= LO <= HI, got {spec!r}")
    return lo, hi


def _parse_dims(spec: str) -> tuple[int, ...]:
    """'5,6,8': comma-separated integer dimensions, each at least 5."""
    parts = [p.strip() for p in spec.split(",")]
    _require(all(re.fullmatch(r"-?[0-9]+", p) for p in parts), "--dims",
             f"expects comma-separated integers, e.g. 5,6,8, got {spec!r}")
    dims = tuple(int(p) for p in parts)
    _require(min(dims) >= 5, "--dims", f"needs every dimension at least 5, got {spec!r}")
    _require(len(set(dims)) == len(dims), "--dims",
             f"lists a dimension more than once, got {spec!r}")
    return dims


def _parse_ids(spec: str) -> list[str]:
    """'I1,I12': comma-separated registered identity ids, each listed once,
    by the rules of ``registry.select_identities``."""
    ids = [i.strip() for i in spec.split(",")]
    _require(all(ids), "--ids", f"expects comma-separated identity ids, e.g. I1,I12, "
             f"got {spec!r}")
    try:
        registry.select_identities(ids)
    except ValueError as exc:
        raise ValueError(f"--ids {exc}") from None
    return ids


def _parse_square_grid(spec: str) -> int:
    """'UxV' with U == V >= 1; returns the side U."""
    m = re.fullmatch(r"([0-9]+)x([0-9]+)", spec.strip().lower())
    _require(m is not None, "--grid", f"expects UxV, e.g. 10x10, got {spec!r}")
    u, v = int(m.group(1)), int(m.group(2))
    _require(u == v, "--grid", f"must be square (U == V), got {spec!r}")
    _require(u >= 1, "--grid", f"needs at least one cell per side, got {spec!r}")
    return u


# -- section runners -------------------------------------------------------------


def run_verify(ids=None):
    reports = registry.verify_all(ids)
    return reports, bool(reports) and all(r.status == "verified-zero" for r in reports)


def run_combination():
    basis = [registry.get_identity(f"I{k}") for k in range(6, 12)]
    target = registry.get_identity("I12")
    try:
        weights = registry.solve_combination(target, basis)
    except (NoCombinationError, SingularSystemError) as exc:
        return {"error": str(exc)}, False
    matches = (weights[0] == registry.build_named("c1")
               and weights[1] == -registry.build_named("c2"))
    return {
        "basis": [b.id for b in basis],
        "target": target.id,
        "weights": weights,
        "matches_catalog": matches,
    }, matches


def run_params(n_max: int = 100):
    """The params section.  n_max bounds the sign certificates (five per n
    in 5..n_max) and the Bernstein estimate grids (n in 5..min(n_max, 24));
    the exponent grid and the linear-reduction rows always cover
    EXPONENT_GRID_N, n = 5..24.  An n_max below 5 raises ValueError."""
    if n_max < 5:
        raise ValueError(f"the params section needs n_max >= 5, got {n_max}")
    formulas = paramcheck.check_minor_formulas()
    certs = [c for n in range(5, n_max + 1) for c in paramcheck.all_certificates(n)]
    all_positive = all(c.verdict == "positive" for c in certs)
    est1 = [paramcheck.est1_grid_check(n) for n in paramcheck.EXPONENT_GRID_N if n <= n_max]
    exponents = paramcheck.exponent_grid_check()
    linear = [paramcheck.linear_reduction_certificate(n) for n in paramcheck.EXPONENT_GRID_N]
    section = {
        "minor_formulas": formulas,
        "certificates": certs,
        "all_certificates_positive": all_positive,
        "est1_grids": est1,
        "exponents": {k: v for k, v in exponents.items() if k != "records"},
        "exponent_records": exponents["records"],
        "linear_reduction": linear,
    }
    # mandatory: the engine-certified mathematics; the printed-display
    # discrepancies are carried as flags, not failures
    ok = (formulas.all_core_identities_hold()
          and formulas.f3_upper_matches_corrected
          and all_positive
          and all(e["all_positive"] for e in est1)
          and exponents["gamma_always_at_least_six"]
          and exponents["exponent_negative_everywhere"])
    return section, ok


def run_scan_pd(n_lo: int = 5, n_hi: int = 100, grid: int = 1000):
    rep = paramcheck.numeric_pd_scan(range(n_lo, n_hi + 1), grid=grid)
    return rep, rep.all_positive


def run_oracle(seed: int = 0, samples: int = 1000, dims=(5, 6, 8), tol: float = 1e-9):
    from .jetoracle import check_all_identities, sharp_constant_search
    reports = check_all_identities(samples, tuple(dims), tol, seed)
    sharp = [sharp_constant_search(n, seed=seed) for n in (5, 6, 7, 8)]
    # the search certifies n/(n-1) exactly and records a probe ratio below it
    # as the minimum; both floats are correctly rounded n/(n-1) otherwise
    ok = all(r.passed for r in reports) and all(s.minimum == s.analytic for s in sharp)
    return {"identities": reports, "sharp_constant": sharp}, ok


def run_radial(configs, grid_size: int = 10, rmax: float = 50.0,
               dump_dir: str | None = None):
    """The radial section: each (n, alpha) config scanned over the same
    ``default_grids(grid_size)`` cells, all configs' cells integrated in one
    ``scan_shooting`` batch.  It passes when no config has a survivor or a
    per-cell error.  With ``dump_dir``, each config's middle cell is shot
    again as a one-cell batch and its path, which ends at the radius the
    report judged, written there as CSV.  No config, or a grid_size below
    1, would scan no cell and raises ValueError."""
    if not configs or grid_size < 1:
        raise ValueError(f"the radial section needs a config and grid_size >= 1, "
                         f"got {len(configs)} config(s) and grid_size {grid_size}")
    from .radial import default_grids, dump_trajectory_csv, scan_shooting, shoot
    u0s, v0s = default_grids(grid_size)
    scans = scan_shooting(configs, u0s, v0s, rmax)
    summaries = [summary for summary, _ in scans]
    ok = all(s.survival_fraction == 0.0 and not s.errors for s in summaries)
    if dump_dir:
        for (n, alpha), (_, results) in zip(configs, scans):
            # the scan keeps no trajectories: shoot the middle cell again
            mid = results[len(results) // 2]
            dump_trajectory_csv(shoot(n, alpha, mid.u0, mid.v0, rmax),
                                os.path.join(dump_dir, f"trajectory_n{n}_a{alpha}.csv"))
    return summaries, ok


# -- argument parsing --------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bhverify",
        description="exact and numeric verification suites for the fourth-order "
                    "Liouville identities, certificates, and scans")
    parser.add_argument("--format", choices=("json", "markdown"), default=None)
    parser.add_argument("--out", default=None, help="write the report here")
    parser.add_argument("--config", default=None,
                        help=f"flat key=value defaults (or ${CONFIG_ENV_VAR})")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="expand and check the identity registry")
    p.add_argument("--ids", default=None, help="comma-separated subset, e.g. I1,I12")

    p = sub.add_parser("params", help="matrix algebra, certificates, exponents")
    p.add_argument("--n-max", type=int, default=None,
                   help="last n of the certificates and the est1 grids (default 100); "
                        "the exponent grids always cover n = 5..24")

    p = sub.add_parser("scan-pd", help="numeric minimal-eigenvalue scan")
    p.add_argument("--n", default=None, help="range as LO..HI (default 5..100)")
    p.add_argument("--grid", type=int, default=None)

    p = sub.add_parser("oracle", help="flat-jet numeric identity checks")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--dims", default=None, help="comma-separated, e.g. 5,6,8")
    p.add_argument("--tol", type=float, default=None)

    p = sub.add_parser("radial", help="radial shooting scan")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--grid", default=None, help="cells as UxV, e.g. 10x10")
    p.add_argument("--rmax", type=float, default=None)
    p.add_argument("--dump-trajectories", default=None, metavar="DIR")

    sub.add_parser("all", help="every suite with acceptance defaults")
    return parser


def _command(args, config: dict):
    """Validate the command's arguments before any section runs.

    Returns the settings the report echoes and the command's sections in
    report order, each name with the runner that returns its ``(section,
    ok)``.  An invalid argument raises ValueError, and an uncreatable
    --dump-trajectories directory too, so a usage error costs no work.
    """
    if args.command == "verify":
        ids = None if args.ids is None else _parse_ids(args.ids)
        return {"ids": ids}, {"identities": partial(run_verify, ids)}
    if args.command == "params":
        n_max = _pick(args.n_max, config, "n_max", int, 100)
        _require(n_max >= 5, "--n-max", f"must be at least 5, got {n_max}")
        return {"n_max": n_max}, {"params": partial(run_params, n_max)}
    if args.command == "scan-pd":
        spec = _pick(args.n, config, "n_range", str, "5..100")
        lo, hi = _parse_n_range(spec)
        grid = _pick(args.grid, config, "grid", int, 1000)
        _require(grid >= 1, "--grid", f"must be at least 1, got {grid}")
        return ({"n_range": [lo, hi], "grid": grid},
                {"pd_scan": partial(run_scan_pd, lo, hi, grid)})
    if args.command == "oracle":
        seed = _pick(args.seed, config, "seed", int, 0)
        _require(seed >= 0, "--seed", f"must be at least 0, got {seed}")
        samples = _pick(args.samples, config, "samples", int, 1000)
        _require(samples >= 1, "--samples", f"must be at least 1, got {samples}")
        dims = _parse_dims(_pick(args.dims, config, "dims", str, "5,6,8"))
        tol = _pick(args.tol, config, "tol", float, 1e-9)
        _require(math.isfinite(tol) and tol > 0, "--tol",
                 f"must be a finite value above 0, got {tol}")
        return ({"seed": seed, "samples": samples, "dims": list(dims), "tol": tol},
                {"oracle": partial(run_oracle, seed, samples, dims, tol)})
    if args.command == "radial":
        from .radial import DEFAULT_R0
        n = _pick(args.n, config, "n", int, 6)
        _require(n >= 5, "--n", f"must be at least 5, got {n}")
        alpha = _pick(args.alpha, config, "alpha", float, 2.0)
        _require(math.isfinite(alpha) and alpha > 1, "--alpha",
                 f"must be a finite value above 1, got {alpha}")
        size = _parse_square_grid(_pick(args.grid, config, "radial_grid", str, "10x10"))
        rmax = _pick(args.rmax, config, "rmax", float, 50.0)
        _require(math.isfinite(rmax) and rmax > DEFAULT_R0, "--rmax",
                 f"must be a finite value above the series start r0 = {DEFAULT_R0}, "
                 f"got {rmax}")
        dump_dir = args.dump_trajectories
        if dump_dir is not None:
            try:
                os.makedirs(dump_dir, exist_ok=True)
            except OSError as exc:
                raise ValueError(f"--dump-trajectories cannot create {dump_dir}: "
                                 f"{exc.strerror}") from None
        return ({"n": n, "alpha": alpha, "grid": f"{size}x{size}", "rmax": rmax},
                {"radial": partial(run_radial, [(n, alpha)], size, rmax, dump_dir)})
    return {"profile": "acceptance-defaults"}, {    # all
        "identities": run_verify,
        "combination": run_combination,
        "params": run_params,
        "pd_scan": run_scan_pd,
        "oracle": run_oracle,
        "radial": partial(run_radial, [(5, 2.0), (6, 2.0), (6, 3.0), (8, 2.0)]),
    }


def _fault(exc: Exception) -> int:
    """Report a fault of the engine on one stderr line; its exit code is 3."""
    if isinstance(exc, EngineError):
        print(f"engine error: {type(exc).__name__}: {exc}", file=sys.stderr)
    else:
        from traceback import extract_tb    # not loaded on a clean run
        where = extract_tb(exc.__traceback__)[-1]
        print(f"internal error: {type(exc).__name__}: {exc} "
              f"(at {os.path.basename(where.filename)}:{where.lineno} in {where.name})",
              file=sys.stderr)
    return 3


def run(argv) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        config = load_config(args.config)
        fmt = _pick(args.format, config, "format", str, "json")
        _require(fmt in ("json", "markdown"), "--format",
                 f"must be json or markdown, got {fmt!r}")
        out_path = _pick(args.out, config, "out", str, None)
        # before the command's own arguments, so a bad path creates no
        # --dump-trajectories directory
        if out_path is not None and (reason := _out_path_error(out_path)):
            raise ValueError(f"--out cannot write {out_path}: {reason}")
        settings, runners = _command(args, config)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:    # a fault while validating: the registry behind --ids
        return _fault(exc)

    sections, statuses = {}, {}
    try:    # a fault inside a section or in its report data, not a usage error
        for name, runner in runners.items():
            sections[name], statuses[name] = runner()
        report = build_report({"command": args.command, "format": fmt, **settings},
                              sections, statuses)
        text = render_json(report) if fmt == "json" else render_markdown(report)
    except Exception as exc:
        return _fault(exc)
    if out_path is not None:
        try:
            write_atomic(out_path, text)
        except OSError as exc:
            print(f"error: --out cannot write {out_path}: {exc.strerror}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0 if report["overall_status"] == "pass" else 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
