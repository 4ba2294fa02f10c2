"""Command-line interface: every module exposed as a subcommand with deterministic, machine-readable output."""

from __future__ import annotations

import argparse
import functools
import hashlib
import io
import json
import os
import sys
from contextlib import redirect_stdout
from fractions import Fraction

from . import __version__, charring, cones, globalsl2 as gs, hecke, intertwine as iw, padic, weylids
from .qfield import Q, RatFunc, as_ratfunc
from .rootdata import PRESET_NAMES, ParabolicType, index_subsets, load_root_datum


class UsageError(ValueError):
    pass


def _rational(x, what: str) -> Fraction:
    """x, a string or a JSON number, as an exact rational: a UsageError when it is not one."""
    try:
        return Fraction(str(x))
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"{what} must be a number, got {x!r}") from None


def _integer(x, what: str) -> int:
    """x as an int: a UsageError, not int()'s silent truncation, when its exact value is not an integer."""
    value = _rational(x, what)
    if value.denominator != 1:
        raise UsageError(f"{what} must be an integer, got {x!r}")
    return int(value)


def _json(text: str | None, what: str) -> list:
    """The [key, value] pairs of the JSON list given to the option named what: a UsageError when it is not one."""
    if text is None:
        raise UsageError(f"this command needs {what}")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise UsageError(f"{what} is not JSON: {e}") from None
    if not isinstance(data, list) or not all(isinstance(item, list) and len(item) == 2 for item in data):
        raise UsageError(f"{what} must be a JSON list of [key, value] pairs")
    return data


def _parse_parabolic(text: str | None, rd) -> ParabolicType:
    if not text:
        return ParabolicType(rd, [])
    if text.strip().lower() in ("full", "all"):
        return ParabolicType(rd, range(rd.n_simple))
    indices = [_integer(x.strip(), "parabolic index") - 1 for x in text.split(",") if x.strip()]
    if not all(0 <= i < rd.n_simple for i in indices):
        raise UsageError(f"parabolic indices run from 1 to {rd.n_simple}, got {text!r}")
    return ParabolicType(rd, indices)


def _coweight(parts, rank: int, number) -> tuple:
    """A coweight from its rank coordinates (a list, from a comma-separated option or a JSON key), each read by number."""
    if not isinstance(parts, list) or len(parts) != rank:
        raise UsageError(f"coweight needs {rank} coordinates, got {parts!r}")
    return tuple(number(x, "coordinate") for x in parts)


def _parse_q(text: str):
    """'sym' as the symbol q, anything else as a rational value of q."""
    return Q if text == "sym" else _rational(text, "q")


def _fmt(value) -> str:
    if isinstance(value, RatFunc):
        return value.to_str()
    return str(value)


def _coweight_str(lam) -> str:
    return "(" + ",".join(str(x) for x in lam) + ")"


def _pf(flag: bool) -> str:
    return "pass" if flag else "fail"


def _resolve_datum(datum: str):
    """A preset, a <datum>.json in $HECKELAT_DATA_DIR, or an inline JSON config; a UsageError otherwise."""
    data_dir = os.environ.get("HECKELAT_DATA_DIR")
    if datum not in PRESET_NAMES and data_dir:
        candidate = os.path.join(data_dir, f"{datum}.json")
        if os.path.exists(candidate):
            with open(candidate, encoding="utf-8") as fh:
                return load_root_datum(fh.read())
    if datum.strip() not in PRESET_NAMES and not datum.lstrip().startswith("{"):
        raise UsageError(
            f"--datum must be a preset ({', '.join(PRESET_NAMES)}), "
            f"a file in $HECKELAT_DATA_DIR or inline JSON, got {datum!r}"
        )
    return load_root_datum(datum)


def cmd_series(args, rd) -> int:
    build = hecke.gk_mu if args.command == "gk" else hecke.nu
    par = _parse_parabolic(args.parabolic, rd)
    qv = _parse_q(args.q)
    series = build(rd, par, args.height)
    try:
        rows = sorted(series.to_basis(args.basis).coeffs.items())
    except hecke.HeckeError as e:
        raise UsageError(f"{e}; print this table with --basis e") from None
    if qv is not Q:
        try:
            rows = [(lam, c.eval(qv)) for lam, c in rows]
        except ZeroDivisionError:
            raise UsageError(f"--q {args.q} is a pole of a coefficient of this {args.basis}-basis table") from None
    print("coweight,coefficient")
    for lam, c in rows:
        print(f'"{_coweight_str(lam)}",{_fmt(c)}')
    return 0


def cmd_satake_check(args, rd) -> int:
    par = _parse_parabolic(args.parabolic, rd)
    ok1 = hecke.verify_alternating_sym_expansion(rd, par, args.height)
    ok2 = hecke.verify_series_reformulation(rd, par, args.height)
    ok3 = hecke.verify_smu_snu_unit(rd, par, args.height)
    print(f"product-expansion,{_pf(ok1)}")
    print(f"series-reformulation,{_pf(ok2)}")
    print(f"bridge-unit,{_pf(ok3)}")
    return 0 if ok1 and ok2 and ok3 else 1


def cmd_retract(args, rd) -> int:
    lam = _coweight(args.coweight.split(","), rd.rank, _rational)
    val, indices = cones.langlands_retraction(rd, lam)
    print(json.dumps({
        "input": [str(x) for x in lam],
        "retraction": [str(x) for x in val],
        "linearity_domain": sorted(i + 1 for i in indices),
    }, sort_keys=True))
    return 0


def cmd_cone_check(args, rd) -> int:
    subsets = (
        [sorted(_parse_parabolic(args.parabolic, rd).indices)]
        if args.parabolic
        else index_subsets(rd.n_simple)
    )
    print("parabolic,intersection,duality,consequent")
    all_ok = True
    for J in subsets:
        par = ParabolicType(rd, J)
        r1 = cones.check_pos_U_intersection(rd, par)
        r2 = cones.check_dual_cone(rd, par)
        r3 = cones.check_pos_U_consequent(rd, par)
        all_ok = all_ok and r1 and r2 and r3
        label = "{" + ",".join(str(j + 1) for j in J) + "}"
        print(f'"{label}",{_pf(r1)},{_pf(r2)},{_pf(r3)}')
    return 0 if all_ok else 1


def cmd_char(args, rd) -> int:
    par = _parse_parabolic(args.parabolic, rd)
    if args.action == "pieces":
        out = [
            {"level": str(p.level), "weights": [list(w) for w in p.weights]}
            for p in charring.u_P_graded_pieces(par)
        ]
        print(json.dumps(out, sort_keys=True))
    elif args.action in ("lambda", "sym"):
        pieces = charring.u_P_graded_pieces(par)
        idx = 1 if args.piece is None else args.piece
        if not 1 <= idx <= len(pieces):
            raise UsageError(f"piece index out of range 1..{len(pieces)}")
        t = Q if args.t in (None, "q") else as_ratfunc(_rational(args.t, "t"))
        build = charring.lambda_series if args.action == "lambda" else charring.sym_series
        series = build(rd, par, t, pieces[idx - 1], args.height)
        print("coweight,coefficient")
        for lam in sorted(series.coeffs):
            print(f'"{_coweight_str(lam)}",{_fmt(series.coeffs[lam])}')
    else:
        data = _json(args.input, "--input")
        f = {_coweight(k, rd.rank, _integer): _integer(v, "multiplicity") for k, v in data}
        comps, virtual = charring.decompose_into_irreducibles(rd, par, f)
        print(json.dumps({
            "components": [[list(lam), m] for lam, m in comps],
            "virtual": virtual,
        }, sort_keys=True))
    return 0


def cmd_intertwine(args, rd) -> int:
    par = _parse_parabolic(args.parabolic, rd)
    data = _json(args.input, "--input")
    values = {_coweight(k, rd.rank, _integer): as_ratfunc(_rational(v, "value")) for k, v in data}
    window = cones.SupportShape.make(list(values) or [(0,) * rd.rank], cones.neg_pos_U(par.indices))
    phi = iw.SphericalFunction(rd, par, values, window)
    steps = [(hecke.gk_mu, iw.apply_R_K), (hecke.nu, iw.apply_R_inverse_K)]
    if args.inverse:
        steps.reverse()
    (kernel, apply_op), (back_kernel, back_op) = steps
    out = apply_op(rd, par, kernel(rd, par, args.height), phi)
    print("coweight,value")
    for lam in sorted(out.values):
        print(f'"{_coweight_str(lam)}",{_fmt(out.values[lam])}')
    if args.roundtrip:
        back = back_op(rd, par, back_kernel(rd, par, args.height), out, out_points=sorted(phi.values))
        ok = all(back.value(p) == phi.value(p) for p in phi.values)
        print(f"roundtrip,{_pf(ok)}")
        return 0 if ok else 1
    return 0


def cmd_oracle_mu(args, _rd) -> int:
    rd = load_root_datum("A1" if args.group == "SL2" else "A2")
    lam = _coweight(args.coweight.split(","), rd.rank, _integer)
    try:
        measure = padic.mu_oracle(args.group, lam, args.q, args.precision)
    except padic.PrecisionError as e:
        raise UsageError(f"--precision {args.precision}: {e}") from None
    except padic.OracleError as e:
        raise UsageError(f"--q {args.q} with --coweight {args.coweight}: {e}") from None
    par = ParabolicType(rd, [])
    height = max(par.height(lam), 2)
    table = hecke.gk_mu(rd, par, height).to_basis(hecke.INDICATOR_BASIS).coeff(lam).eval(Fraction(args.q))
    print(f"measure,{measure}")
    print(f"gk_table,{table}")
    print(f"agreement,{_pf(measure == table)}")
    return 0 if measure == table else 1


def cmd_weyl_identities(_args, rd) -> int:
    rep_a = weylids.verify_vanishing_A(rd)
    rep_b = weylids.verify_vanishing_B(rd)
    print("identity,cases,result,witnesses")
    print(f"vanishing-A,{rep_a.cases},{_pf(rep_a.passed)},\"{';'.join(rep_a.witnesses)}\"")
    print(f"vanishing-B,{rep_b.cases},{_pf(rep_b.passed)},\"{';'.join(rep_b.witnesses)}\"")
    transversals_ok = True
    pars = [(J, ParabolicType(rd, J)) for J in index_subsets(rd.n_simple)]
    for J, par in pars:
        for J2, par2 in pars:
            okc = weylids.check_w_bullet_transversal(rd, par, par2)
            transversals_ok = transversals_ok and okc
            if not okc:
                print(f"transversal J={J} J'={J2},1,fail,")
    print(f"transversals,{(1 << rd.n_simple) ** 2},{_pf(transversals_ok)},")
    return 0 if rep_a.passed and rep_b.passed and transversals_ok else 1


def _degree_values(text: str | None, what: str, qv) -> dict:
    """{degree: value} from the JSON list of [degree, value] pairs given to what, values in Q(q) or at the numeric q."""
    lift = as_ratfunc if qv is Q else Fraction
    return {_integer(k, "degree"): lift(_rational(v, "value")) for k, v in _json(text, what)}


def _degree_function(kind, values: dict, what: str, qv):
    """kind.from_dict(values, qv): a UsageError naming what when kind does not index one of the degrees."""
    try:
        return kind.from_dict(values, qv)
    except gs.GlobalError as e:
        raise UsageError(f"{what}: {e}") from None


def _l_then_l_inverse(f, qv):
    return gs.op_L_inverse(gs.op_L(f, qv), qv)


def cmd_global(args, _rd) -> int:
    qv = _parse_q(args.q)
    if args.q != "sym" and qv * (qv - 1) * (qv + 1) == 0:
        raise UsageError(f"--q must not be 0, 1 or -1 (the global model divides by q(q - 1)(q + 1)), got {args.q!r}")
    if args.explain_conventions:
        print(gs.CONVENTIONS)
        return 0
    values = _degree_values(args.input, "--input", qv) if args.input else {}
    window = args.window
    tables = {  # action: (column header, degrees shown, input type, operator)
        "eis": ("n", range(0, window + 1), gs.TFunction, gs.eis_B),
        "ct": ("d", range(-window, window + 1), gs.GFunction, gs.ct_B),
        "L": ("n", range(0, window + 1), gs.GFunction, gs.op_L),
        "Linv": ("n", range(0, window + 1), gs.GFunction, _l_then_l_inverse),
    }
    if args.action in tables:
        header, degrees, kind, operator = tables[args.action]
        out = operator(_degree_function(kind, values, "--input", qv), qv)
        print(f"{header},value")
        for n in degrees:
            print(f"{n},{_fmt(out.value(n))}")
        return 0
    f = _degree_function(gs.GFunction, values, "--input", qv)
    if args.action == "roundtrip":
        back = _l_then_l_inverse(f, qv)
        ok = all(back.value(n) == f.value(n) for n in range(0, window + 1))
        print(f"roundtrip,{_pf(ok)}")
        return 0 if ok else 1
    f2 = _degree_function(gs.GFunction, _degree_values(args.input2, "--input2", qv), "--input2", qv)
    print(f"B,{_fmt(gs.form_B(f, f2, qv))}")
    return 0


def cmd_verify_all(args, _rd) -> int:
    from . import acceptance  # loaded by this command alone

    results = acceptance.run_all(emit=print, datum=args.datum)
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heckelat",
        description="exact cones, completed Hecke series, intertwining operators, and the rank-one global model",
    )
    parser.add_argument("--manifest", help="write a run manifest (JSON) to this path")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    for name, what in (("gk", "Gindikin-Karpelevich series table (CSV)"), ("nu", "convolution-inverse series table (CSV)")):
        p = add(name, cmd_series, help=what)
        p.add_argument("--datum", required=True, help=f"preset ({', '.join(PRESET_NAMES)}) or JSON config")
        p.add_argument("--parabolic", help="1-based simple indices of the Levi, comma separated")
        p.add_argument("--height", type=int, default=6)
        p.add_argument("--basis", choices=["e", "indicator"], default="indicator")
        p.add_argument("--q", default="sym", help="'sym', an integer, or p/r")

    p = add("satake-check", cmd_satake_check, help="character-ring identity checks")
    p.add_argument("--datum", required=True)
    p.add_argument("--parabolic")
    p.add_argument("--height", type=int, default=8)

    p = add("retract", cmd_retract, help="Langlands retraction of a rational coweight")
    p.add_argument("--datum", required=True)
    p.add_argument("--coweight", required=True, help="comma-separated rationals")

    p = add("cone-check", cmd_cone_check, help="cone intersection/duality certificates")
    p.add_argument("--datum", required=True)
    p.add_argument("--parabolic")

    p = add("char", cmd_char, help="character calculus tables")
    p.add_argument("action", choices=["pieces", "lambda", "sym", "decompose"])
    p.add_argument("--datum", required=True)
    p.add_argument("--parabolic")
    p.add_argument("--height", type=int, default=6)
    p.add_argument("--piece", type=int, help="1-based graded piece index")
    p.add_argument("--t", help="series parameter (rational; default the symbol q)")
    p.add_argument("--input", help="JSON list of [coweight, multiplicity]")

    p = add("intertwine", cmd_intertwine, help="apply the K-invariant intertwiner or its inverse")
    p.add_argument("--datum", required=True)
    p.add_argument("--parabolic")
    p.add_argument("--height", type=int, default=12)
    p.add_argument("--input", required=True, help="JSON list of [coweight, value]")
    p.add_argument("--inverse", action="store_true")
    p.add_argument("--roundtrip", action="store_true")

    p = add("oracle-mu", cmd_oracle_mu, help="local-field measure oracle vs the series table")
    p.add_argument("--group", choices=["SL2", "SL3"], required=True)
    p.add_argument("--coweight", required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--precision", type=int, default=3)

    p = add("weyl-identities", cmd_weyl_identities, help="vanishing sweeps and transversal checks")
    p.add_argument("--datum", required=True)

    p = add("global-sl2", cmd_global, help="rank-one global model operators")
    p.add_argument("action", choices=["ct", "eis", "L", "Linv", "B", "roundtrip"], nargs="?", default="roundtrip")
    p.add_argument("--q", default="sym")
    p.add_argument("--window", type=int, default=6)
    p.add_argument("--input", help="JSON list of [degree, value]")
    p.add_argument("--input2", help="JSON list of [degree, value] (second argument of the form)")
    p.add_argument("--explain-conventions", action="store_true")

    p = add("verify-all", cmd_verify_all, help="run the full acceptance suite")
    p.add_argument("--datum", help="narrow datum-indexed criteria to a single preset")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use."""
    return build_parser()


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _manifest(args, rd, output: str) -> str:
    flags = {k: v for k, v in sorted(vars(args).items()) if k not in ("fn", "manifest") and v is not None}
    payload = {
        "artifact_version": __version__,
        "subcommand": args.command,
        "flags": {k: (v if isinstance(v, (int, str, bool)) else str(v)) for k, v in flags.items()},
        "datum_sha256": None if rd is None else _sha256(json.dumps(rd.config(), sort_keys=True, separators=(",", ":"))),
        "output_sha256": _sha256(output),
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _run(argv, out: io.StringIO):
    """Parse argv, load --datum once, run the command with its stdout in out; return (args, exit code, manifest)."""
    args = _parser().parse_args(argv)
    for name in ("height", "window"):
        if getattr(args, name, 0) < 0:
            raise UsageError(f"--{name} must be nonnegative, got {getattr(args, name)}")
    datum = getattr(args, "datum", None)
    rd = None if datum is None else _resolve_datum(datum)
    with redirect_stdout(out):
        code = args.fn(args, rd)
    return args, code, _manifest(args, rd, out.getvalue())


def main(argv=None) -> int:
    out = io.StringIO()
    try:
        args, code, manifest = _run(argv, out)
    except UsageError as e:
        sys.stdout.write(out.getvalue())
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # computation errors exit 1 with a diagnostic
        sys.stdout.write(out.getvalue())
        print(json.dumps({"error": type(e).__name__, "message": str(e)}), file=sys.stderr)
        return 1
    sys.stdout.write(out.getvalue())
    if args.manifest:
        with open(args.manifest, "w", encoding="utf-8") as fh:
            fh.write(manifest + "\n")
    return code


def run_capture(argv) -> tuple[str, str]:
    """Run a subcommand, returning (stdout, manifest) without touching the filesystem; errors propagate."""
    out = io.StringIO()
    _args, _code, manifest = _run(argv, out)
    return out.getvalue(), manifest


if __name__ == "__main__":
    raise SystemExit(main())
