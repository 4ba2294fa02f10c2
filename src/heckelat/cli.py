"""Command-line interface: every module exposed as a subcommand with deterministic, machine-readable output."""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import sys
from contextlib import redirect_stdout
from fractions import Fraction

from . import __version__, acceptance, charring, cones, globalsl2 as gs, hecke, intertwine as iw, padic, weylids
from .qfield import Q, RatFunc, as_ratfunc
from .rootdata import PRESET_NAMES, ParabolicType, index_subsets, load_root_datum


class UsageError(ValueError):
    pass


def _parse_parabolic(text: str | None, rd) -> ParabolicType:
    if not text:
        return ParabolicType(rd, [])
    if text.strip().lower() in ("full", "all"):
        return ParabolicType(rd, range(rd.n_simple))
    indices = [_integer(x.strip(), "parabolic index") - 1 for x in text.split(",") if x.strip()]
    return ParabolicType(rd, indices)


def _parse_coweight(text: str, rank: int):
    parts = [Fraction(x.strip()) for x in text.split(",")]
    if len(parts) != rank:
        raise UsageError(f"coweight needs {rank} coordinates, got {len(parts)}")
    return tuple(parts)


def _integer(x, what: str) -> int:
    """x as an int: a UsageError, not int()'s silent truncation, when its exact value is not an integer."""
    try:
        value = Fraction(str(x))
    except (ValueError, ZeroDivisionError):
        value = None
    if value is None or value.denominator != 1:
        raise UsageError(f"{what} must be an integer, got {x!r}")
    return int(value)


def _parse_q(text: str):
    if text is None or text == "sym":
        return Q
    return Fraction(text)


def _fmt(value) -> str:
    if isinstance(value, RatFunc):
        return value.to_str()
    return str(value)


def _coweight_str(lam) -> str:
    return "(" + ",".join(str(x) for x in lam) + ")"


def _resolve_datum(datum: str):
    if datum not in PRESET_NAMES:
        import os

        data_dir = os.environ.get("HECKELAT_DATA_DIR")
        if data_dir:
            candidate = os.path.join(data_dir, f"{datum}.json")
            if os.path.exists(candidate):
                with open(candidate, encoding="utf-8") as fh:
                    return load_root_datum(fh.read())
    return load_root_datum(datum)


def _load(args):
    return _resolve_datum(args.datum)


def _series_table(args, build) -> int:
    rd = _load(args)
    par = _parse_parabolic(args.parabolic, rd)
    shown = build(rd, par, args.height).to_basis(args.basis)
    qv = None if args.q == "sym" else Fraction(args.q)
    print("coweight,coefficient")
    for lam in sorted(shown.coeffs):
        c = shown.coeffs[lam]
        print(f'"{_coweight_str(lam)}",{_fmt(c if qv is None else c.eval(qv))}')
    return 0


def cmd_gk(args) -> int:
    return _series_table(args, hecke.gk_mu)


def cmd_nu(args) -> int:
    return _series_table(args, hecke.nu)


def cmd_satake_check(args) -> int:
    rd = _load(args)
    par = _parse_parabolic(args.parabolic, rd)
    ok1 = hecke.verify_alternating_sym_expansion(rd, par, args.height)
    ok2 = hecke.verify_series_reformulation(rd, par, args.height)
    ok3 = hecke.verify_smu_snu_unit(rd, par, args.height)
    print(f"product-expansion,{'pass' if ok1 else 'fail'}")
    print(f"series-reformulation,{'pass' if ok2 else 'fail'}")
    print(f"bridge-unit,{'pass' if ok3 else 'fail'}")
    return 0 if ok1 and ok2 and ok3 else 1


def cmd_retract(args) -> int:
    rd = _load(args)
    lam = _parse_coweight(args.coweight, rd.rank)
    val, indices = cones.langlands_retraction(rd, lam)
    print(json.dumps({
        "input": [str(x) for x in lam],
        "retraction": [str(x) for x in val],
        "linearity_domain": sorted(i + 1 for i in indices),
    }, sort_keys=True))
    return 0


def cmd_cone_check(args) -> int:
    rd = _load(args)
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


def _pf(flag: bool) -> str:
    return "pass" if flag else "fail"


def cmd_char(args) -> int:
    rd = _load(args)
    par = _parse_parabolic(args.parabolic, rd)
    if args.action == "pieces":
        out = [
            {"level": str(p.level), "weights": [list(w) for w in p.weights]}
            for p in charring.u_P_graded_pieces(rd, par)
        ]
        print(json.dumps(out, sort_keys=True))
        return 0
    if args.action in ("lambda", "sym"):
        pieces = charring.u_P_graded_pieces(rd, par)
        idx = args.piece or 1
        if not 1 <= idx <= len(pieces):
            raise UsageError(f"piece index out of range 1..{len(pieces)}")
        t = as_ratfunc(Fraction(args.t)) if args.t not in (None, "q") else Q
        build = charring.lambda_series if args.action == "lambda" else charring.sym_series
        series = build(rd, par, t, pieces[idx - 1], args.height)
        print("coweight,coefficient")
        for lam in sorted(series.coeffs):
            print(f'"{_coweight_str(lam)}",{_fmt(series.coeffs[lam])}')
        return 0
    if args.action == "decompose":
        data = json.loads(args.input)
        f = {tuple(_integer(x, "coordinate") for x in k): _integer(v, "multiplicity") for k, v in data}
        comps, virtual = charring.decompose_into_irreducibles(rd, par, f)
        print(json.dumps({
            "components": [[list(lam), m] for lam, m in comps],
            "virtual": virtual,
        }, sort_keys=True))
        return 0
    raise UsageError(f"unknown char action {args.action!r}")


def cmd_intertwine(args) -> int:
    rd = _load(args)
    par = _parse_parabolic(args.parabolic, rd)
    data = json.loads(args.input)
    values = {tuple(_integer(x, "coordinate") for x in k): as_ratfunc(Fraction(str(v))) for k, v in data}
    window = cones.SupportShape.make(list(values) or [(0,) * rd.rank], cones.neg_pos_U(par.indices))
    phi = iw.SphericalFunction(rd, par, values, window, check_window=False)
    mu = hecke.gk_mu(rd, par, args.height)
    series = mu.invert() if args.inverse else mu
    apply_op = iw.apply_R_inverse_K if args.inverse else iw.apply_R_K
    out = apply_op(rd, par, series, phi)
    print("coweight,value")
    for lam in sorted(out.values):
        print(f'"{_coweight_str(lam)}",{_fmt(out.values[lam])}')
    if args.roundtrip:
        other = mu if args.inverse else mu.invert()
        back_op = iw.apply_R_K if args.inverse else iw.apply_R_inverse_K
        back = back_op(rd, par, other, out, out_points=sorted(phi.values))
        ok = all(back.value(p) == phi.value(p) for p in phi.values)
        print(f"roundtrip,{_pf(ok)}")
        return 0 if ok else 1
    return 0


def cmd_oracle_mu(args) -> int:
    lam = tuple(_integer(x.strip(), "coordinate") for x in args.coweight.split(","))
    measure = padic.mu_oracle(args.group, lam, args.q, args.precision)
    datum = "A1" if args.group == "SL2" else "A2"
    rd = load_root_datum(datum)
    par = ParabolicType(rd, [])
    height = max(2 * sum(lam), 2)
    table = hecke.gk_mu(rd, par, height).to_basis(hecke.INDICATOR_BASIS).coeff(lam).eval(Fraction(args.q))
    print(f"measure,{measure}")
    print(f"gk_table,{table}")
    print(f"agreement,{_pf(measure == table)}")
    return 0 if measure == table else 1


def cmd_weyl_identities(args) -> int:
    rd = _load(args)
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


def _degree_values(text: str, qv) -> dict:
    """{degree: value} from a JSON list of [degree, value] pairs, values in Q(q) or at the numeric q."""
    return {_integer(k, "degree"): as_ratfunc(Fraction(str(v))) if qv is Q else Fraction(str(v)) for k, v in json.loads(text)}


def cmd_global(args) -> int:
    qv = _parse_q(args.q)
    if args.explain_conventions:
        print(gs.CONVENTIONS)
        return 0
    values = {}
    if args.input:
        values = _degree_values(args.input, qv)
    window = args.window
    if args.action == "eis":
        phi = gs.TFunction.from_dict(values, qv)
        out = gs.eis_B(phi, qv)
        print("n,value")
        for n in range(0, window + 1):
            print(f"{n},{_fmt(out.value(n))}")
        return 0
    f = gs.GFunction.from_dict(values, qv)
    if args.action == "ct":
        ct = gs.ct_B(f, qv)
        print("d,value")
        for d in range(-window, window + 1):
            print(f"{d},{_fmt(ct.value(d))}")
        return 0
    if args.action == "L":
        lf = gs.op_L(f, qv)
        print("n,value")
        for n in range(0, window + 1):
            print(f"{n},{_fmt(lf.value(n))}")
        return 0
    if args.action == "Linv":
        lf = gs.op_L(f, qv)
        back = gs.op_L_inverse(lf, qv)
        print("n,value")
        for n in range(0, window + 1):
            print(f"{n},{_fmt(back.value(n))}")
        return 0
    if args.action == "roundtrip":
        lf = gs.op_L(f, qv)
        back = gs.op_L_inverse(lf, qv)
        ok = all(back.value(n) == f.value(n) for n in range(0, window + 1))
        print(f"roundtrip,{_pf(ok)}")
        return 0 if ok else 1
    if args.action == "B":
        if not args.input2:
            raise UsageError("the form needs --input2")
        values2 = _degree_values(args.input2, qv)
        f2 = gs.GFunction.from_dict(values2, qv)
        print(f"B,{_fmt(gs.form_B(f, f2, qv))}")
        return 0
    raise UsageError(f"unknown global action {args.action!r}")


def cmd_verify_all(args) -> int:
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

    p = add("gk", cmd_gk, help="Gindikin-Karpelevich series table (CSV)")
    p.add_argument("--datum", required=True, help=f"preset ({', '.join(PRESET_NAMES)}) or JSON config")
    p.add_argument("--parabolic", help="1-based simple indices of the Levi, comma separated")
    p.add_argument("--height", type=int, default=6)
    p.add_argument("--basis", choices=["e", "indicator"], default="indicator")
    p.add_argument("--q", default="sym", help="'sym', an integer, or p/r")

    p = add("nu", cmd_nu, help="convolution-inverse series table (CSV)")
    p.add_argument("--datum", required=True)
    p.add_argument("--parabolic")
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


def _datum_hash(args) -> str | None:
    datum = getattr(args, "datum", None)
    if datum is None:
        return None
    rd = _resolve_datum(datum)
    blob = json.dumps(rd.config(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _manifest(args, argv, output: str) -> str:
    flags = {k: v for k, v in sorted(vars(args).items()) if k not in ("fn", "manifest") and v is not None}
    payload = {
        "artifact_version": __version__,
        "subcommand": args.command,
        "flags": {k: (v if isinstance(v, (int, str, bool)) else str(v)) for k, v in flags.items()},
        "datum_sha256": _datum_hash(args),
        "output_sha256": hashlib.sha256(output.encode()).hexdigest(),
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    buffer = io.StringIO()
    try:
        with redirect_stdout(buffer):
            code = args.fn(args)
    except (UsageError,) as e:
        sys.stdout.write(buffer.getvalue())
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # computation errors exit 1 with a diagnostic
        sys.stdout.write(buffer.getvalue())
        print(json.dumps({"error": type(e).__name__, "message": str(e)}), file=sys.stderr)
        return 1
    output = buffer.getvalue()
    sys.stdout.write(output)
    manifest = _manifest(args, argv, output)
    if args.manifest:
        with open(args.manifest, "w", encoding="utf-8") as fh:
            fh.write(manifest + "\n")
    return code


def run_capture(argv) -> tuple[str, str]:
    """Run a subcommand, returning (stdout, manifest) without touching the filesystem."""
    parser = build_parser()
    args = parser.parse_args(argv)
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        args.fn(args)
    output = buffer.getvalue()
    return output, _manifest(args, argv, output)


if __name__ == "__main__":
    raise SystemExit(main())
