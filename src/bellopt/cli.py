"""Command-line front end.

Subcommands: `bmax`, `angles`, `scan`, `surface`, `oracle-check`.  Machine
output (JSON or CSV) is deterministic: identical inputs and flags produce
byte-identical files.  Exit codes: 0 success, 2 input/validation error
(an unwritable --output included), 3 state valid but not X-structured,
4 oracle disagreement.

Every number in text and CSV output follows one rule, written in fmt9 for one
value and in _csv_rows for columns: 9 significant digits, in lowercase
scientific notation with 8 decimals when 0 < |v| < 10^-4 or |v| >= 10^6; -0
prints as 0; an absent value (a surface row's missing crossing root) is an
empty cell.  Each command imports what only it uses: `bmax` and `angles` on
an X state load neither numpy nor `dynamics` and `oracle`.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from . import __version__
from .angles import optimal_settings, settings_set2
from .chsh import BellEigenvalues, bell_function, horodecki_eigenvalues, x_state_eigenvalues
from .states import (DEFAULT_OFF_X_TOL, MAX_SAMPLES, NotXStructured, as_x_state,
                     validate_density_matrix)

EXIT_OK = 0
EXIT_INPUT_ERROR = 2
EXIT_NOT_X = 3
EXIT_ORACLE_MISMATCH = 4
MAX_STATE_BYTES = 2 ** 20  # a valid state file is under 1 KiB
_FIRST_READ = 2 ** 16  # bytes read before the rest, so a small file needs no 1 MiB buffer

_DEG = 180.0 / math.pi


def _csv_rows(columns) -> str:
    """CSV lines of `columns` (1-D arrays and (n, k) blocks, side by side),
    each cell by the number rule of the module docstring, in one % operation:
    there are few distinct row patterns of plain, scientific and NaN cells."""
    import numpy as np

    values = np.column_stack(columns) + 0.0  # + 0.0 turns -0.0 into 0.0
    magnitude = np.abs(values)
    absent = np.isnan(values)
    # cell kind: 0 plain, 1 scientific, 2 absent; a row's pattern in base 3
    kinds = np.where(absent, 2, (values != 0.0) & ((magnitude < 1e-4) | (magnitude >= 1e6)))
    patterns = (kinds @ 3 ** np.arange(values.shape[1])).tolist()
    formats = {p: ",".join(("%.9g", "%.8e", "")[p // 3 ** j % 3]
                           for j in range(values.shape[1])) for p in set(patterns)}
    return "\n".join([formats[p] for p in patterns]) % tuple(values[~absent].tolist())


def fmt9(v: float) -> str:
    """One number by the rule of the module docstring, as _csv_rows writes it."""
    v = float(v) + 0.0  # + 0.0 turns -0.0 into 0.0
    if v != v:  # NaN: absent
        return ""
    return ("%.8e" if v and (abs(v) < 1e-4 or abs(v) >= 1e6) else "%.9g") % v


def _is_number(v) -> bool:
    """A JSON number: an int or a float, never a bool."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _entry(cell) -> complex:
    if not (isinstance(cell, list) and len(cell) == 2 and all(map(_is_number, cell))):
        raise ValueError("each cell must be a list of two numbers")
    return complex(cell[0], cell[1])


def _load_state(args):
    """The --input state, and the off-X tolerance to read it as an X state
    with: --off-x-tol, else the file's off_x_tol, else the default."""
    try:
        with open(args.input, "rb") as fh:
            data = fh.read(_FIRST_READ)
            if len(data) == _FIRST_READ:  # the rest, up to one byte past the cap
                data += fh.read(MAX_STATE_BYTES + 1 - _FIRST_READ)
        if len(data) > MAX_STATE_BYTES:
            raise ValueError(f"{args.input} is larger than {MAX_STATE_BYTES} bytes")
        doc = json.loads(data.decode("utf-8"))  # JSON is UTF-8 (RFC 8259)
    except OSError as exc:
        raise ValueError(f"cannot read {args.input}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ValueError(f"{args.input} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "rho" not in doc:
        raise ValueError(f"{args.input} must be an object with a 'rho' key")
    try:
        rows = [[_entry(cell) for cell in row] for row in doc["rho"]]
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"'rho' must be a 4x4 array of [re, im] pairs: {exc}") from exc
    rho = validate_density_matrix(rows)  # names a wrong shape
    off_x_tol = DEFAULT_OFF_X_TOL
    if "off_x_tol" in doc:
        if not _is_number(doc["off_x_tol"]):
            raise ValueError("'off_x_tol' must be a number, got "
                             + type(doc["off_x_tol"]).__name__)
        try:
            off_x_tol = float(doc["off_x_tol"])
        except OverflowError as exc:  # an integer beyond float range
            raise ValueError(f"'off_x_tol' is out of range: {exc}") from exc
    return rho, off_x_tol if args.off_x_tol is None else args.off_x_tol


def _bell_eigenvalues(rho, x) -> BellEigenvalues:
    # by the closed form for rho's X state x, from one SVD of T (Horodecki) when there is none
    return BellEigenvalues(*horodecki_eigenvalues(rho)) if x is None else x_state_eigenvalues(x)


def _bmax_doc(rho, x=None) -> dict:
    """B_max and the eigenvalues u; a non-X state has no region and no tie."""
    e = _bell_eigenvalues(rho, x)
    return {"version": __version__, "bmax": e.bmax, "u": [e.u1, e.u2, e.u3],
            "region": None if x is None else int(e.region), "tie": x is not None and e.tie,
            "violates": e.bmax > 2.0}


def _bmax_text(doc: dict) -> str:
    u = ", ".join(fmt9(v) for v in doc["u"])
    if doc["region"] is None:
        u_line = f"u (sorted) = ({u})"
    else:
        tie_note = " (tie)" if doc["tie"] else ""
        u_line = f"u = ({u})   region = {doc['region']}{tie_note}"
    return (
        f"B_max = {fmt9(doc['bmax'])}\n"
        f"{u_line}\n"
        f"violates CHSH (B_max > 2): {'yes' if doc['violates'] else 'no'}\n"
    )


def cmd_bmax(args):
    rho, off_x_tol = _load_state(args)
    try:
        x = as_x_state(rho, off_x_tol)
    except NotXStructured as exc:
        note = f"state is not X-structured ({exc}); Horodecki value only\n"
        return EXIT_NOT_X, _bmax_doc(rho), lambda d: note + _bmax_text(d)
    return EXIT_OK, _bmax_doc(rho, x), _bmax_text


def _angles_doc(settings) -> dict:
    return {"set": int(settings.set_id), "theta": list(settings.thetas),
            "phi": list(settings.phis)}


def _angles_text(doc: dict, degrees: bool) -> str:
    unit = "deg" if degrees else "rad"
    scale = _DEG if degrees else 1.0

    def block(d: dict) -> list[str]:
        thetas = ", ".join(fmt9(v * scale) for v in d["theta"])
        phis = ", ".join(fmt9(v * scale) for v in d["phi"])
        return [
            f"theta ({unit}) = ({thetas})",
            f"phi   ({unit}) = ({phis})",
            f"B at settings = {fmt9(d['bell_value'])}",
        ]

    lines = [f"active set: {doc['set']}   tie: {'yes' if doc['tie'] else 'no'}",
             *block(doc)]
    alt = doc["tied_alternative"]
    if alt is not None:
        lines += [f"tied set {alt['set']}:", *block(alt)]
    return "\n".join(lines) + "\n"


def cmd_angles(args):
    rho, off_x_tol = _load_state(args)
    x = as_x_state(rho, off_x_tol)  # NotXStructured exits 3
    settings, u = optimal_settings(x)
    certified = bell_function(rho, settings)
    doc = {**_angles_doc(settings), "tie": u.tie, "bell_value": certified,
           "violates": certified > 2.0, "version": __version__,
           "tied_alternative": None}
    if u.tie:
        alt = settings_set2(x)
        doc["tied_alternative"] = _angles_doc(alt)
        doc["tied_alternative"]["bell_value"] = bell_function(rho, alt)
    return EXIT_OK, doc, functools.partial(_angles_text, degrees=args.degrees)


def _parse_qmodel(spec: str):
    from .dynamics import ExponentialModel, LorentzianModel, TabulatedModel

    kind, _, rest = spec.partition(":")
    try:
        if kind == "exp":
            return ExponentialModel(gamma=float(rest))
        if kind == "lorentz":
            lam, gamma0 = (float(v) for v in rest.split(","))
            return LorentzianModel(lam=lam, gamma0=gamma0)
        if kind == "table":
            return TabulatedModel.from_csv(rest)
    except (ValueError, OSError) as exc:
        raise ValueError(f"bad --qmodel {spec!r}: {exc}") from exc
    raise ValueError(
        f"unknown --qmodel kind {kind!r} (use exp:GAMMA, lorentz:LAMBDA,GAMMA0 or table:PATH)"
    )


def _parse_ewl(spec: str):
    from .dynamics import EWLParams

    try:
        alpha2, r, delta = (float(v) for v in spec.split(","))
        return EWLParams(alpha2=alpha2, r=r, delta=delta)
    except ValueError as exc:
        raise ValueError(f"bad --ewl {spec!r}: {exc}") from exc


# CSV header and JSON row key: TimeScan field, of the columns before the angles
_SCAN_FIELDS = {"t": "t", "q2": "q2", "u1": "u1", "u2": "u2", "u3": "u3", "B1": "b1",
                "B2": "b2", "bmax": "bmax", "active_set": "region"}


def _scan_csv(scan, doc: dict) -> str:
    """The rows of `scan` and the events of doc."""
    body = _csv_rows([getattr(scan, f) for f in _SCAN_FIELDS.values()]
                     + [scan.thetas, scan.phis])
    return "\n".join([
        f"# bellopt scan {doc['version']}",
        ",".join(_SCAN_FIELDS) + ",theta1,theta1p,theta2,theta2p,phi1,phi1p,phi2,phi2p",
        body, *(f"# event,{e['kind']},{fmt9(e['t'])},{fmt9(e['q2'])}"
                for e in doc["events"])]) + "\n"


def cmd_scan(args):
    import numpy as np

    from .dynamics import ewl_state, scan_events, time_scan

    if (args.ewl is None) == (args.input is None):
        raise ValueError("provide exactly one of --ewl or --input")
    if args.samples < 2:
        raise ValueError("--samples must be >= 2")
    if args.samples > MAX_SAMPLES:
        raise ValueError(f"--samples must be <= {MAX_SAMPLES}")
    if not (math.isfinite(args.tmax) and args.tmax > 0):
        raise ValueError("--tmax must be finite and > 0")
    if args.ewl is not None:
        x0 = ewl_state(_parse_ewl(args.ewl))
    else:
        x0 = as_x_state(*_load_state(args))
    model = _parse_qmodel(args.qmodel)
    t_grid = np.linspace(0.0, args.tmax, args.samples)
    scan = time_scan(x0, model, t_grid)
    doc = {
        "version": __version__,
        "rows": None,
        "events": [{"kind": e.kind.value, "t": e.t, "q2": e.q2}
                   for e in scan_events(x0, model, args.tmax)],
    }
    if args.format == "json":  # row dicts; the CSV is formatted from the columns
        columns = zip(*(getattr(scan, f).tolist() for f in _SCAN_FIELDS.values()))
        doc["rows"] = [{**dict(zip(_SCAN_FIELDS, row)), "theta": theta, "phi": phi}
                       for row, theta, phi in zip(columns, scan.thetas.tolist(),
                                                  scan.phis.tolist())]
    return EXIT_OK, doc, functools.partial(_scan_csv, scan)


def cmd_surface(args):
    from .dynamics import crossing_surface

    try:
        n_alpha, n_r = (int(v) for v in args.grid.split(","))
    except ValueError as exc:
        raise ValueError(f"bad --grid {args.grid!r}: {exc}") from exc
    if n_alpha < 2 or n_r < 2:
        raise ValueError("--grid dimensions must be >= 2")
    if n_alpha * n_r > MAX_SAMPLES:
        raise ValueError(f"--grid must have at most {MAX_SAMPLES} cells, "
                         f"got {n_alpha} x {n_r}")
    alpha2, r, roots = crossing_surface(n_alpha, n_r)
    return EXIT_OK, {"version": __version__}, lambda d: (  # NaN roots: empty cells
        f"# bellopt surface {d['version']}\nalpha2,r,x_root1,x_root2\n"
        + _csv_rows((alpha2, r, roots[:, :2])) + "\n")


def _oracle_text(doc: dict) -> str:
    route = " (closed form)" if doc["is_x"] else " (Horodecki, not X-structured)"
    return (
        f"analytic B_max = {fmt9(doc['analytic_bmax'])}{route}\n"
        f"oracle  B_max = {fmt9(doc['oracle_bmax'])}\n"
        f"difference    = {fmt9(doc['difference'])}\n"
        f"certificate margin = {fmt9(doc['certificate_margin'])}\n"
        f"evaluations = {doc['evaluations']}\n"
    )


def cmd_oracle_check(args):
    from .oracle import OracleConfig, brute_force_bmax, certify_settings

    rho, off_x_tol = _load_state(args)
    try:
        x = as_x_state(rho, off_x_tol)  # a bad off_x_tol fails before a bad flag
    except NotXStructured:
        x = None
    flags = {"grid_n": args.grid_n, "refine_iters": args.refine,
             "restarts": args.restarts, "seed": args.seed}
    cfg = OracleConfig(**{k: v for k, v in flags.items() if v is not None})  # else defaults
    analytic = _bell_eigenvalues(rho, x).bmax
    result = brute_force_bmax(rho, cfg)
    difference = result.bmax_est - analytic
    # certify the closed-form settings, or the oracle's own when there are none
    margin = certify_settings(rho, result if x is None else optimal_settings(x)[0], cfg)
    doc = {
        "version": __version__,
        "is_x": x is not None,
        "analytic_bmax": analytic,
        "oracle_bmax": result.bmax_est,
        "difference": difference,
        "certificate_margin": margin,
        "evaluations": result.evaluations,
    }
    return (EXIT_ORACLE_MISMATCH if abs(difference) > 1e-3 else EXIT_OK), doc, _oracle_text


@functools.cache  # built once, on first use: it costs more than a small command
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellopt",
        description=(
            "Maximum CHSH-Bell violation, explicit optimal measurement "
            "settings, and their open-system dynamics for two-qubit X states."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, formats=("json", "csv"), default=None):
        p.add_argument("--output", metavar="PATH", help="write here instead of stdout")
        p.add_argument("--format", choices=formats, default=default,
                       help=f"output format (default: {default or 'human-readable text'})")

    def add_state(p, required=True):
        p.add_argument("--input", metavar="PATH", required=required,
                       help="density-matrix JSON: {\"rho\": 4x4 of [re, im]}")
        p.add_argument("--off-x-tol", type=float, default=None, metavar="FLOAT",
                       help="tolerance for entries outside the X pattern (default 1e-9)")

    p = sub.add_parser("bmax", help="maximum Bell value and violation verdict")
    add_state(p)
    add_io(p, formats=("json",))
    p.set_defaults(func=cmd_bmax)

    p = sub.add_parser("angles", help="optimal measurement settings for an X state")
    add_state(p)
    add_io(p, formats=("json",))
    p.add_argument("--degrees", action="store_true",
                   help="display angles in degrees (JSON stays in radians)")
    p.set_defaults(func=cmd_angles)

    p = sub.add_parser("scan", help="trajectory scan with jump/violation events")
    add_state(p, required=False)
    p.add_argument("--ewl", metavar="ALPHA2,R,DELTA",
                   help="inline initial state: purity-r mixture of a Bell-like state")
    p.add_argument("--qmodel", required=True,
                   metavar="exp:GAMMA | lorentz:LAMBDA,GAMMA0 | table:PATH")
    p.add_argument("--tmax", type=float, required=True)
    p.add_argument("--samples", type=int, required=True)
    add_io(p, formats=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("surface",
                       help="u2 = u3 crossing roots over an (alpha^2, r) grid")
    p.add_argument("--grid", default="50,50", metavar="NA,NR",
                   help="alpha^2 = i/NA (i = 0..NA-1), r = (j+1)/NR (j = 0..NR-1), "
                        f"at most {MAX_SAMPLES} cells")
    add_io(p, formats=("csv",), default="csv")
    p.set_defaults(func=cmd_surface)

    p = sub.add_parser("oracle-check",
                       help="compare closed forms against the brute-force oracle")
    add_state(p)
    p.add_argument("--grid-n", type=int)  # the flags left out take OracleConfig's defaults
    p.add_argument("--restarts", type=int)
    p.add_argument("--refine", type=int)
    p.add_argument("--seed", type=int, metavar="UINT")
    add_io(p, formats=("json",))
    p.set_defaults(func=cmd_oracle_check)

    return parser


def main(argv=None) -> int:
    """Run one command, which returns (exit code, document, text renderer), and
    write its document once: JSON under --format json, else the renderer's text."""
    args = build_parser().parse_args(argv)
    try:
        code, doc, render = args.func(args)
        text = (json.dumps(doc, indent=2, allow_nan=False) + "\n" if args.format == "json"
                else render(doc))
        if args.output:
            data = text.encode()
            try:  # in place: ext4 flushes a file cut to zero bytes when it is closed
                with open(os.open(args.output, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
                    if os.fstat(fh.fileno()).st_size > len(data):
                        fh.truncate(len(data))  # the old file's longer tail
                    fh.write(data)
            except OSError as exc:
                raise ValueError(f"cannot write {args.output}: {exc}") from exc
        else:
            sys.stdout.write(text)
        return code
    except NotXStructured as exc:
        print(f"error: state is not X-structured ({exc})", file=sys.stderr)
        return EXIT_NOT_X
    except (ValueError, ArithmeticError) as exc:  # every input error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def main_entry() -> None:
    raise SystemExit(main())
