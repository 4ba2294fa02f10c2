"""The acceptance suite: every exit criterion as a callable check, shared by pytest and the command line."""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction

from . import cones, globalsl2 as gs, hecke, intertwine as iw, padic, weylids
from .qfield import ONE, Q, ZERO, q_pow
from .rootdata import PRESET_NAMES, ParabolicType, index_subsets, load_root_datum, pair

SEED = 20260808


@dataclass
class CheckResult:
    name: str
    passed: bool
    seconds: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        msg = f" -- {self.detail}" if self.detail and not self.passed else ""
        return f"[{status}] {self.name} ({self.seconds:.1f}s){msg}"


class CheckFailed(Exception):
    """A criterion's identity does not hold; the message names the witness."""


def _require(condition, message: str) -> None:
    """Fail the running check unless condition holds (unlike assert, kept under python -O)."""
    if not condition:
        raise CheckFailed(message)


def _timed(name):
    def wrap(fn):
        def run(*args, **kwargs) -> CheckResult:
            start = time.monotonic()
            try:
                detail = fn(*args, **kwargs) or ""
                passed = True
            except CheckFailed as e:
                detail, passed = str(e), False
            except Exception as e:  # a check that raises fails; the later checks still run
                detail, passed = f"{type(e).__name__}: {e}", False
            return CheckResult(name, passed, time.monotonic() - start, detail)

        run.check_name = name
        return run

    return wrap


def _maximal_subsets(rd):
    full = set(range(rd.n_simple))
    return sorted({tuple(sorted(full - {j})) for j in full})


# ---------------------------------------------------------------------------


@_timed("1. GK measure agrees with the local-field oracle (SL2 q=2,3; SL3 q=2)")
def check_gk_oracle(datums=None):
    rd = load_root_datum("A1")
    ind = hecke.gk_mu(rd, ParabolicType(rd, []), 14).to_basis(hecke.INDICATOR_BASIS)
    for q in (2, 3):
        for n in range(0, 7):
            oracle = padic.mu_oracle("SL2", (n,), q, 3)
            table = ind.coeff((n,)).eval(Fraction(q))
            _require(oracle == table, f"SL2 q={q} n={n}: oracle {oracle} vs table {table}")
            again = padic.mu_oracle("SL2", (n,), q, 4)
            _require(again == oracle, f"SL2 q={q} n={n}: precision dependence")
    rd2 = load_root_datum("A2")
    ind2 = hecke.gk_mu(rd2, ParabolicType(rd2, []), 14).to_basis(hecke.INDICATOR_BASIS)
    targets = [(a, b) for a in range(4) for b in range(4) if 0 < a + b <= 3] + [(0, 0)]
    for lam in sorted(targets):
        prec = max(lam) + 2
        oracle = padic.mu_oracle("SL3", lam, 2, prec)
        table = ind2.coeff(lam).eval(Fraction(2))
        _require(oracle == table, f"SL3 q=2 lam={lam}: oracle {oracle} vs table {table}")
    _require_ball_fibres("SL2", 3, 2, ind, dim_u=1)
    _require_ball_fibres("SL3", 2, 1, ind2, dim_u=3)


def _require_ball_fibres(group, q, depth, table, dim_u):
    """The fibres of iwasawa_ord on the depth-`depth` ball fill its volume and match the GK table at q.

    Every coweight with max <= depth has its whole fibre inside the ball; for
    SL2 no other coweight occurs there.
    """
    hist = padic.ball_histogram(group, q, depth, 2)
    total = sum(hist.values())
    _require(total == q ** (depth * dim_u), f"{group} q={q} D={depth}: fibres sum to {total}, not q^{depth * dim_u}")
    for lam in sorted({lam for lam in set(hist) | set(table.coeffs) if max(lam) <= depth}):
        got, want = hist.get(lam, 0), table.coeff(lam).eval(Fraction(q))
        _require(got == want, f"{group} q={q} D={depth} lam={lam}: ball fibre {got} vs table {want}")
    if group == "SL2":
        _require(all(max(lam) <= depth for lam in hist), f"SL2 q={q} D={depth}: fibres outside the ball {sorted(hist)}")


@_timed("2. Convolution inversion: gk * nu = unit to height 10 (A1 A2 B2 G2 A3; J empty and maximal)")
def check_inversion(datums=("A1", "A2", "B2", "G2", "A3")):
    for name in datums:
        rd = load_root_datum(name)
        subsets = [[]] + [list(t) for t in _maximal_subsets(rd)]
        for J in subsets:
            par = ParabolicType(rd, J)
            mu = hecke.gk_mu(rd, par, 10)
            nu_s = mu.invert()
            unit = hecke.GradedSeries.unit(rd, par, 10)
            _require(hecke.convolve(mu, nu_s) == unit, f"{name} J={J}: mu*nu != unit")
            _require(hecke.convolve(nu_s, mu) == unit, f"{name} J={J}: nu*mu != unit")


@_timed("3. Inverse series has constant term 1 for every preset datum and parabolic")
def check_nu_constant_term(datums=None):
    for name in datums or PRESET_NAMES:
        rd = load_root_datum(name)
        for J in index_subsets(rd.n_simple):
            par = ParabolicType(rd, J)
            _require(hecke.nu(rd, par, 4).constant_term() == ONE, f"{name} J={J}")


@_timed("4. Langlands retraction properties on 1000 random rational coweights per datum (A1 A2 B2 G2)")
def check_retraction(datums=("A1", "A2", "B2", "G2"), trials=1000):
    rng = random.Random(SEED)
    for name in datums:
        rd = load_root_datum(name)
        pos = [cones.fvec(a) for a in rd.positive_coroots]
        subsets = list(index_subsets(rd.n_simple))
        pars = {tuple(J): ParabolicType(rd, J) for J in subsets}
        for t in range(trials):
            lam = tuple(Fraction(rng.randint(-24, 24), rng.randint(1, 12)) for _ in range(rd.rank))
            val, J = cones.langlands_retraction(rd, lam)
            _require(rd.is_dominant(val), f"{name} {lam}: retraction not dominant")
            diff = tuple(a - b for a, b in zip(val, lam))
            _require(cones.in_cone(pos, diff), f"{name} {lam}: retraction does not majorize")
            val2, _ = cones.langlands_retraction(rd, val)
            _require(val2 == val, f"{name} {lam}: not idempotent")
            for eps in (Fraction(1), Fraction(1, 64)):
                for i in range(rd.n_simple):
                    if pair(rd.simple_roots[i], val) > 0:
                        probe = tuple(
                            v - eps * c for v, c in zip(val, rd.simple_coroots[i])
                        )
                        still = rd.is_dominant(probe) and cones.in_cone(
                            pos, tuple(a - b for a, b in zip(probe, lam))
                        )
                        _require(not still, f"{name} {lam}: minimality probe failed at {i}")
            if t % 10 == 0:
                for J2 in subsets:
                    par = pars[tuple(J2)]
                    lam_m = tuple(rd.dominant_representative(lam, par.indices))
                    _require(
                        cones.check_retraction_property(rd, par, lam_m),
                        f"{name} J={J2} {lam_m}: retract-difference membership failed",
                    )


@_timed("5. Cone certificates: intersection and duality pass for all preset data and parabolics")
def check_cone_certificates(datums=None):
    for name in datums or PRESET_NAMES:
        rd = load_root_datum(name)
        for J in index_subsets(rd.n_simple):
            par = ParabolicType(rd, J)
            _require(cones.check_pos_U_intersection(rd, par), f"{name} J={J}: intersection")
            _require(cones.check_dual_cone(rd, par), f"{name} J={J}: duality")
            _require(cones.check_pos_U_consequent(rd, par), f"{name} J={J}: consequent")


@_timed("6. Character-ring identities to height 8 (A2 B2 G2): product expansion and bridge unit")
def check_character_identities(datums=("A2", "B2", "G2")):
    for name in datums:
        rd = load_root_datum(name)
        subsets = [[]] + [list(t) for t in _maximal_subsets(rd)]
        for J in subsets:
            par = ParabolicType(rd, J)
            _require(hecke.verify_alternating_sym_expansion(rd, par, 8), f"{name} J={J}: product expansion")
            _require(hecke.verify_series_reformulation(rd, par, 8), f"{name} J={J}: series reformulation")
            _require(hecke.verify_smu_snu_unit(rd, par, 8), f"{name} J={J}: bridge unit")


@_timed("7. Local intertwiner round-trip on 100 random windowed functions per datum and parabolic")
def check_local_roundtrip(trials=100):
    # the round trip alone cannot see a twist that both kernels lose alike, so R delta_0
    # on A1 is also checked against its closed form (R delta_0)(-n alpha^vee) = (1 - q^-1) q^-n
    a1 = load_root_datum("A1")
    borel = ParabolicType(a1, [])
    delta_0 = iw.SphericalFunction(a1, borel, {(0,): 1}, cones.SupportShape.make([(0,)], cones.neg_pos_U([])))
    r_delta = iw.apply_R_K(a1, borel, hecke.gk_mu(a1, borel, 6), delta_0)
    for n in (1, 2, 3):
        expected = (ONE - q_pow(-1)) * q_pow(-n)
        _require(r_delta.value((-n,)) == expected, f"A1: (R delta_0)({-n}) = {r_delta.value((-n,))}, expected {expected}")
    rng = random.Random(SEED + 7)
    cases = [("A1", []), ("A2", []), ("A2", [0]), ("A2", [1])]
    for name, J in cases:
        rd = load_root_datum(name)
        par = ParabolicType(rd, J)
        height = 18
        mu = hecke.gk_mu(rd, par, height)
        nu_s = mu.invert()
        for t in range(trials):
            pts = {tuple(rng.randint(-1, 2) for _ in range(rd.rank)) for _ in range(4)}
            window = cones.SupportShape.make(sorted(pts), cones.neg_pos_U(J))
            phi = iw.SphericalFunction(rd, par, {p: rng.randint(-5, 5) for p in pts}, window)
            outer = sorted(phi.values)
            if not outer:
                continue
            need = sorted({tuple(a + b for a, b in zip(p, th)) for p in outer for th in mu.coeffs})
            forward = iw.apply_R_K(rd, par, mu, phi, out_points=need)
            back = iw.apply_R_inverse_K(rd, par, nu_s, forward, out_points=outer)
            inv_first = iw.apply_R_inverse_K(rd, par, nu_s, phi, out_points=need)
            fwd_last = iw.apply_R_K(rd, par, mu, inv_first, out_points=outer)
            for p in outer:
                _require(back.value(p) == phi.value(p), f"{name} J={J} trial {t}: R^-1 R != id at {p}")
                _require(fwd_last.value(p) == phi.value(p), f"{name} J={J} trial {t}: R R^-1 != id at {p}")


@_timed("8. Weyl vanishing sweeps and double-coset transversals (A1 A2 B2 G2 A3 B3 C3)")
def check_weyl_identities(datums=("A1", "A2", "B2", "G2", "A3", "B3", "C3")):
    for name in datums:
        rd = load_root_datum(name)
        rep_a = weylids.verify_vanishing_A(rd)
        _require(rep_a.passed, f"{name} A: {rep_a.witnesses[:2]}")
        rep_b = weylids.verify_vanishing_B(rd)
        _require(rep_b.passed, f"{name} B: {rep_b.witnesses[:2]}")
        pars = [(J, ParabolicType(rd, J)) for J in index_subsets(rd.n_simple)]
        for J, par in pars:
            for J2, par2 in pars:
                _require(
                    weylids.check_w_bullet_transversal(rd, par, par2),
                    f"{name} J={J} J'={J2}: double-coset transversal",
                )


@_timed("9a. Global model: adjunction residual and constant-term support class on 100 random functions")
def check_global_adjunction(trials=100):
    rng = random.Random(SEED + 9)
    qv = Q
    for t in range(trials):
        f = gs.GFunction.from_dict({n: rng.randint(-4, 4) for n in range(0, 5)}, qv)
        phi = gs.TFunction.from_dict({d: rng.randint(-4, 4) for d in range(-4, 4)}, qv)
        _require(gs.verify_adjunction(f, phi, qv), f"trial {t}: adjunction residual nonzero")
        ct = gs.ct_B(f, qv)
        for d in range(f.upper + 1, f.upper + 6):
            _require(ct.value(d) == ZERO, f"trial {t}: constant term not bounded above")
    _require(gs.verify_functional_equation(qv), "composition functional equation")


@_timed("9b. Global round-trips: L then L-inverse and back, numeric (n<=5, q=2,3) and symbolic (n<=3)")
def check_global_roundtrip():
    rng = random.Random(SEED + 11)

    def run(qv, nmax, trials, probe):
        for t in range(trials):
            f = gs.GFunction.from_dict({n: rng.randint(-5, 5) for n in range(0, nmax + 1)}, qv)
            g = gs.op_L(f, qv)
            ct_honest = gs.ct_B(g, qv)
            for d in range(g.psc_ct.lower - probe, probe):
                _require(
                    ct_honest.value(d) == g.psc_ct.value(d),
                    f"trial {t}: honest constant term differs from the certificate at {d}",
                )
            back = gs.op_L_inverse(g, qv)
            for n in range(0, nmax + probe):
                _require(back.value(n) == f.value(n), f"trial {t}: L^-1 L != id at {n}")
            # forward again: L L^-1 = id on the certified pseudo-compact vector
            back_fin = gs.GFunction.from_dict(
                {n: back.value(n) for n in range(0, nmax + probe)}, qv
            )
            g2 = gs.op_L(back_fin, qv)
            for n in range(0, nmax + probe):
                _require(g2.value(n) == g.value(n), f"trial {t}: L L^-1 != id at {n}")

    run(Q, 3, 4, 5)
    for q in (2, 3):
        run(Fraction(q), 5, 6, 6)


@_timed("9c. Bilinear form: symmetry and agreement with the operator pairing on 100 random pairs")
def check_global_form(trials=100):
    rng = random.Random(SEED + 13)
    qv = Q
    for t in range(trials):
        f1 = gs.GFunction.from_dict({n: rng.randint(-3, 3) for n in range(0, 4)}, qv)
        f2 = gs.GFunction.from_dict({n: rng.randint(-3, 3) for n in range(0, 4)}, qv)
        b12 = gs.form_B(f1, f2, qv)
        _require(b12 == gs.form_B(f2, f1, qv), f"trial {t}: form not symmetric")
        lf1 = gs.op_L(f1, qv)
        rhs = sum(
            (lf1.value(n) * f2.value(n) / gs.aut_count(n, qv) for n in range(0, f2.upper + 1)),
            ZERO,
        )
        _require(b12 == rhs, f"trial {t}: form differs from naive(L f1, f2)")


@_timed("9d. Cuspidal vectors: the model has none except zero, and the identity term of L has sign +1")
def check_global_cuspidal(trials=25):
    rng = random.Random(SEED + 17)
    qv = Q
    # the constant-term kernel is the identity matrix in nonnegative degrees, so
    # a vanishing constant term forces the function itself to vanish
    for d in range(0, 8):
        for n in range(0, 8):
            expected = ONE if n == d else ZERO
            _require(gs.ct_kernel(n, d, qv) == expected, "kernel not identity in nonnegative degrees")
    zero = gs.GFunction.from_dict({}, qv)
    lzero = gs.op_L(zero, qv)
    _require(all(lzero.value(n) == ZERO for n in range(0, 8)), "L(0) != 0")
    # identity-term sign: L f + Eis- R^-1 CT f = +f exactly
    for t in range(trials):
        f = gs.GFunction.from_dict({n: rng.randint(-4, 4) for n in range(0, 4)}, qv)
        lf = gs.op_L(f, qv)
        eis_term = gs.eis_B_minus(gs.global_R_inverse(gs.ct_B(f, qv), qv), qv)
        for n in range(0, 8):
            _require(
                lf.value(n) + eis_term.value(n) == f.value(n),
                f"trial {t}: identity term of L is not +1 at {n}",
            )


@_timed("10. Determinism: repeated command runs produce byte-identical outputs and manifests")
def check_determinism():
    from . import cli

    out1, man1 = cli.run_capture(["gk", "--datum", "A2", "--height", "6"])
    out2, man2 = cli.run_capture(["gk", "--datum", "A2", "--height", "6"])
    _require(out1 == out2, "outputs differ between runs")
    _require(man1 == man2, "manifests differ between runs")
    out3, man3 = cli.run_capture(["retract", "--datum", "B2", "--coweight=-3/2,1"])
    out4, man4 = cli.run_capture(["retract", "--datum", "B2", "--coweight=-3/2,1"])
    _require(out3 == out4 and man3 == man4, "retract runs differ")


ALL_CHECKS = [
    check_gk_oracle,
    check_inversion,
    check_nu_constant_term,
    check_retraction,
    check_cone_certificates,
    check_character_identities,
    check_local_roundtrip,
    check_weyl_identities,
    check_global_adjunction,
    check_global_roundtrip,
    check_global_form,
    check_global_cuspidal,
    check_determinism,
]

_DATUM_NARROWABLE = {
    check_inversion,
    check_nu_constant_term,
    check_retraction,
    check_cone_certificates,
    check_character_identities,
    check_weyl_identities,
}


def run_all(emit=print, datum: str | None = None) -> list[CheckResult]:
    results = []
    for check in ALL_CHECKS:
        result = check((datum,)) if datum and check in _DATUM_NARROWABLE else check()
        results.append(result)
        if emit:
            emit(result.line())
    return results
