"""Seeded task lists for the three benchmark workloads.

A task is a tuple (kind, fn, args) of plain data. ``fn(env, *args)`` runs the
program through its public API and returns ``(ok, text)``: ``ok`` is the task's
exact identity and ``text`` a canonical form of its results, which the
benchmark hashes into the workload digest. ``env`` carries the imported
modules (``env.m``), the loaded root data (``env.rd``) and the reference tables
built during set-up (``env.ref``). The reference tables are built as plain data
(ints, Fractions, text) by a separate import of the program, so they carry no
program state into the passes; ``bind_references`` turns the intertwiner
kernels back into program objects in the import the passes run on.

The seed draws inputs, not sizes: function coefficients, window points,
coweights, numeric q, the Levi subsets of the transversal and retraction tasks,
and the task order. The set of (datum, parabolic, height) triples is fixed, so
the work per pass barely depends on the seed.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

WORKLOADS = ("local-series", "global-rank-one", "cones-weyl-oracle")

# root data each workload loads during set-up
DATA = {
    "local-series": ("A1", "A2", "B2", "G2", "A3"),
    "global-rank-one": ("A1",),
    "cones-weyl-oracle": ("A1", "A2", "B2", "G2", "A3", "B3", "C3", "GL2"),
}

SERIES_HEIGHTS = (6, 8, 10, 12)
# Borel series cost most: rank-2 Borels stop at height 10 (~0.6 s at 12), A3's at 8 (~1 s at 10)
BOREL_MAX_HEIGHT = {"A3": 8}
BOREL_MAX_HEIGHT_DEFAULT = 10
SATAKE_DATA = ("A2", "B2", "G2")
SATAKE_HEIGHT = 8
# (datum, J, height, coordinate box of the window points): the box keeps the height spread of
# the window within the series height, so every requested output is certified
ROUNDTRIP_CASES = (
    ("A1", (), 12, (-1, 2)), ("A2", (), 12, (-1, 2)), ("A2", (0,), 12, (-1, 2)), ("A2", (1,), 12, (-1, 2)),
    ("B2", (), 10, (-1, 1)), ("G2", (), 10, (-1, 1)),
)
ROUNDTRIP_TRIALS = 5
CLI_HEIGHT = 6
CLI_INTERTWINE = (("A1", 12), ("A2", 10), ("B2", 10), ("G2", 10))
CLI_INTERTWINE_BOX = (-1, 1)
NUMERIC_Q = ("2", "3", "5", "1/2", "3/2", "2/3")

EULER_ORDER = 8

RETRACTION_DATA = ("A1", "A2", "B2", "G2")
RETRACTION_TRIALS = 10
WEYL_DATA = ("A1", "A2", "B2", "G2", "A3", "B3", "C3")
TRANSVERSALS_PER_DATUM = 4
ORACLE_SL2 = ((2, range(0, 7)), (3, range(0, 5)))
ORACLE_SL2_PRECISION = 3
ORACLE_SL3_MAX = 2  # SL3 at q = 2 for coweights (a, b) with a, b <= 2


def levi_subsets(n_simple: int) -> list[tuple[int, ...]]:
    """The Borel (empty J) and the maximal parabolics, without repeats."""
    full = set(range(n_simple))
    maximal = sorted({tuple(sorted(full - {j})) for j in full})
    return [()] + [J for J in maximal if J]


def all_subsets(n_simple: int) -> list[tuple[int, ...]]:
    return [tuple(i for i in range(n_simple) if mask >> i & 1) for mask in range(1 << n_simple)]


def _text(value) -> str:
    return value.to_str() if hasattr(value, "to_str") else str(value)


def _coeffs_text(coeffs: dict) -> str:
    return ";".join(f"{lam}:{_text(c)}" for lam, c in sorted(coeffs.items()))


def _par(env, datum, J):
    return env.m.rootdata.ParabolicType(env.rd[datum], J)


# ---------------------------------------------------------------------------
# local-series


def series_task(env, datum, J, height):
    """gk_mu, then invert; both convolutions must equal the unit."""
    hecke = env.m.hecke
    rd, par = env.rd[datum], _par(env, datum, J)
    mu = hecke.gk_mu(rd, par, height)
    nu = mu.invert()
    unit = hecke.GradedSeries.unit(rd, par, height)
    ok = hecke.convolve(mu, nu) == unit and hecke.convolve(nu, mu) == unit
    return ok, _coeffs_text(mu.coeffs) + "|" + _coeffs_text(nu.coeffs)


SATAKE_CHECKS = ("product", "reformulation", "bridge")


def satake_task(env, datum, J, check):
    hecke = env.m.hecke
    fn = {
        "product": hecke.verify_alternating_sym_expansion,
        "reformulation": hecke.verify_series_reformulation,
        "bridge": hecke.verify_smu_snu_unit,
    }[check]
    ok = fn(env.rd[datum], _par(env, datum, J), SATAKE_HEIGHT)
    return ok, f"{check}:{ok}"


def roundtrip_task(env, case, values):
    """R^-1 R = id and R R^-1 = id on a seeded windowed function (kernels from set-up)."""
    m = env.m
    datum, J, _height, _box = ROUNDTRIP_CASES[case]
    rd, par = env.rd[datum], _par(env, datum, J)
    mu, nu_s = env.ref["kernels"][case]
    values = {tuple(p): v for p, v in values}
    window = m.cones.SupportShape.make(sorted(values), m.cones.neg_pos_U(J))
    phi = m.intertwine.SphericalFunction(rd, par, values, window)
    outer = sorted(phi.values)
    need = sorted({tuple(a + b for a, b in zip(p, th)) for p in outer for th in mu.coeffs})
    forward = m.intertwine.apply_R_K(rd, par, mu, phi, out_points=need)
    back = m.intertwine.apply_R_inverse_K(rd, par, nu_s, forward, out_points=outer)
    inv_first = m.intertwine.apply_R_inverse_K(rd, par, nu_s, phi, out_points=need)
    fwd_last = m.intertwine.apply_R_K(rd, par, mu, inv_first, out_points=outer)
    ok = all(back.value(p) == phi.value(p) and fwd_last.value(p) == phi.value(p) for p in outer)
    return ok, _coeffs_text(forward.values) + "|" + _coeffs_text(inv_first.values)


def cli_table_task(env, command, datum, q):
    """`gk`/`nu` through the CLI; every row must match the set-up table (symbolic, or evaluated at q)."""
    argv = [command, "--datum", datum, "--height", str(CLI_HEIGHT)]
    if q is not None:
        argv += ["--q", q]
    out, _manifest = env.m.cli.run_capture(argv)
    return out.splitlines() == ["coweight,coefficient"] + env.ref["cli"][command, datum, q], out


def cli_intertwine_task(env, datum, height, points, inverse):
    argv = ["intertwine", "--datum", datum, "--height", str(height), "--input", json.dumps(points), "--roundtrip"]
    if inverse:
        argv.append("--inverse")
    out, _manifest = env.m.cli.run_capture(argv)
    return out.splitlines()[-1] == "roundtrip,pass", out


def local_series_tasks(rng: random.Random, rank: dict) -> list:
    tasks = []
    for datum in DATA["local-series"]:
        for J in levi_subsets(rank[datum][1]):
            for h in SERIES_HEIGHTS:
                if not J and h > BOREL_MAX_HEIGHT.get(datum, BOREL_MAX_HEIGHT_DEFAULT):
                    continue
                tasks.append(("series", series_task, (datum, J, h)))
    for datum in SATAKE_DATA:
        for J in levi_subsets(rank[datum][1]):
            for check in SATAKE_CHECKS:
                tasks.append(("satake", satake_task, (datum, J, check)))
    for case, (datum, _J, _h, box) in enumerate(ROUNDTRIP_CASES):
        for _ in range(ROUNDTRIP_TRIALS):
            tasks.append(("roundtrip", roundtrip_task, (case, _window_function(rng, rank[datum][0], 4, box))))
    for datum in DATA["local-series"]:
        for command in ("gk", "nu"):
            tasks.append(("cli", cli_table_task, (command, datum, None)))
            tasks.append(("cli", cli_table_task, (command, datum, rng.choice(NUMERIC_Q))))
    for datum, height in CLI_INTERTWINE:
        points = [[list(p), v] for p, v in _window_function(rng, rank[datum][0], 2, CLI_INTERTWINE_BOX)]
        tasks.append(("cli", cli_intertwine_task, (datum, height, points, rng.random() < 0.5)))
    return tasks


def _window_function(rng, rank, size, box):
    """Seeded nonzero values on `size` distinct lattice points of the coordinate box."""
    lo, hi = box
    grid = [tuple(lo + (k // (hi - lo + 1) ** i) % (hi - lo + 1) for i in range(rank)) for k in range((hi - lo + 1) ** rank)]
    return [(p, rng.choice([v for v in range(-5, 6) if v])) for p in sorted(rng.sample(grid, min(size, len(grid))))]


def _plain_coeffs(series) -> dict:
    return {lam: (c.num, c.den) for lam, c in series.coeffs.items()}


def local_series_references(m) -> dict:
    """Intertwiner kernels as coefficient tuples, and the rows the CLI must print (symbolic and at each numeric q)."""
    rd = {datum: m.rootdata.load_root_datum(datum) for datum in DATA["local-series"]}
    kernels = []
    for datum, J, height, _box in ROUNDTRIP_CASES:
        mu = m.hecke.gk_mu(rd[datum], m.rootdata.ParabolicType(rd[datum], J), height)
        kernels.append((_plain_coeffs(mu), _plain_coeffs(mu.invert())))
    cli = {}
    for datum in DATA["local-series"]:
        mu = m.hecke.gk_mu(rd[datum], m.rootdata.ParabolicType(rd[datum], ()), CLI_HEIGHT)
        for command, series in (("gk", mu), ("nu", mu.invert())):
            table = sorted(series.to_basis(m.hecke.INDICATOR_BASIS).coeffs.items())
            for q in (None, *NUMERIC_Q):
                cli[command, datum, q] = [
                    f'"({",".join(str(x) for x in lam)})",{c.to_str() if q is None else c.eval(Fraction(q))}'
                    for lam, c in table
                ]
    return {"kernels": kernels, "cli": cli}


def local_series_kernels(env, plain: list) -> list:
    """The (mu, nu) kernels of ROUNDTRIP_CASES as series of env's import."""
    m = env.m
    kernels = []
    for (datum, J, height, _box), pair in zip(ROUNDTRIP_CASES, plain):
        rd, par = env.rd[datum], _par(env, datum, J)
        kernels.append(tuple(
            m.hecke.GradedSeries(rd, par, height, {lam: m.qfield.RatFunc(num, den) for lam, (num, den) in coeffs.items()})
            for coeffs in pair
        ))
    return kernels


# ---------------------------------------------------------------------------
# global-rank-one


def _gfun(env, values, qv):
    return env.m.globalsl2.GFunction.from_dict(dict(values), qv)


def adjunction_task(env, f_values, phi_values):
    gs, qv = env.m.globalsl2, env.m.qfield.Q
    f = _gfun(env, f_values, qv)
    phi = gs.TFunction.from_dict(dict(phi_values), qv)
    ok = gs.verify_adjunction(f, phi, qv)
    ct = gs.ct_B(f, qv)
    ok = ok and all(ct.value(d) == 0 for d in range(f.upper + 1, f.upper + 6))
    return ok, ";".join(_text(ct.value(d)) for d in range(-5, f.upper + 1))


def functional_equation_task(env, e_lo, e_hi):
    ok = env.m.globalsl2.verify_functional_equation(env.m.qfield.Q, range(-5, 6), range(e_lo, e_hi))
    return ok, str(ok)


def roundtrip_L_task(env, q, values, probe):
    """L^-1 L = id and L L^-1 = id, with the pseudo-compact certificate checked against the honest constant term.

    At numeric q the intertwiner kernels must also match the Euler-product tables from set-up.
    """
    gs, qv = env.m.globalsl2, (env.m.qfield.Q if q is None else Fraction(q))
    f = _gfun(env, values, qv)
    nmax = max(n for n, _ in values)
    ok = q is None or all(
        (gs.mu_hat(k, qv), gs.nu_hat(k, qv)) == pair for k, pair in enumerate(env.ref["kernels"][q])
    )
    g = gs.op_L(f, qv)
    ct_honest = gs.ct_B(g, qv)
    ok = ok and all(ct_honest.value(d) == g.psc_ct.value(d) for d in range(g.psc_ct.lower - probe, probe))
    back = gs.op_L_inverse(g, qv)
    window = range(0, nmax + probe)
    ok = ok and all(back.value(n) == f.value(n) for n in window)
    g2 = gs.op_L(gs.GFunction.from_dict({n: back.value(n) for n in window}, qv), qv)
    ok = ok and all(g2.value(n) == g.value(n) for n in window)
    return ok, ";".join(_text(g.value(n)) for n in window)


def form_task(env, values1, values2):
    """B is symmetric and equals the naive pairing of L f1 with f2."""
    gs, qv = env.m.globalsl2, env.m.qfield.Q
    f1, f2 = _gfun(env, values1, qv), _gfun(env, values2, qv)
    b12 = gs.form_B(f1, f2, qv)
    lf1 = gs.op_L(f1, qv)
    rhs = env.m.qfield.ZERO
    for n in range(0, f2.upper + 1):
        rhs = rhs + lf1.value(n) * f2.value(n) / gs.aut_count(n, qv)
    return b12 == gs.form_B(f2, f1, qv) and b12 == rhs, _text(b12)


def cuspidal_task(env, values):
    """The identity term of L has sign +1: L f + Eis- R^-1 CT f = f."""
    gs, qv = env.m.globalsl2, env.m.qfield.Q
    f = _gfun(env, values, qv)
    lf = gs.op_L(f, qv)
    eis_term = gs.eis_B_minus(gs.global_R_inverse(gs.ct_B(f, qv), qv), qv)
    ok = all(lf.value(n) + eis_term.value(n) == f.value(n) for n in range(0, 8))
    return ok, ";".join(_text(lf.value(n)) for n in range(0, 8))


def _values(rng, lo, hi, bound):
    """Nonzero seeded values on every degree in [lo, hi): a fixed support keeps the work per task nearly seed-independent."""
    return [(n, rng.choice([v for v in range(-bound, bound + 1) if v])) for n in range(lo, hi)]


def global_rank_one_tasks(rng: random.Random, rank: dict) -> list:
    tasks = []
    for _ in range(18):
        tasks.append(("adjunction", adjunction_task, (_values(rng, 0, 5, 4), _values(rng, -4, 4, 4))))
    for _ in range(6):
        e_lo = rng.randint(-4, 2)
        tasks.append(("functional_equation", functional_equation_task, (e_lo, e_lo + 3)))
    for _ in range(3):
        tasks.append(("roundtrip_sym", roundtrip_L_task, (None, _values(rng, 0, 3, 5), 4)))
    for q in ("2", "3"):
        for _ in range(32):
            tasks.append(("roundtrip_num", roundtrip_L_task, (q, _values(rng, 0, 6, 5), 6)))
    for _ in range(5):
        tasks.append(("form", form_task, (_values(rng, 0, 4, 3), _values(rng, 0, 4, 3))))
    for _ in range(8):  # enough tasks of this size that task_ms.p90 falls inside them, not at an edge
        tasks.append(("cuspidal", cuspidal_task, (_values(rng, 0, 4, 4),)))
    return tasks


def global_rank_one_references(m) -> dict:
    """Kernel coefficients of R and R^-1 at q = 2, 3 from the Euler product over closed points (necklace counts)."""
    gs = m.globalsl2
    kernels = {}
    for q in ("2", "3"):
        fwd = gs.gk_degree_series_euler(EULER_ORDER, Fraction(q))
        inv = gs.gk_degree_series_euler(EULER_ORDER, Fraction(q), inverse=True)
        kernels[q] = list(zip(fwd, inv))
    return {"kernels": kernels}


# ---------------------------------------------------------------------------
# cones-weyl-oracle


def retraction_task(env, datum, lam, J):
    """The Langlands retraction is dominant, majorizes lam, is idempotent and minimal; plus the retract-difference property on one Levi."""
    m, rd = env.m, env.rd[datum]
    cones = m.cones
    lam = tuple(Fraction(n, d) for n, d in lam)
    pos = [cones.fvec(a) for a in rd.positive_coroots]
    val, dom = cones.langlands_retraction(rd, lam)
    ok = rd.is_dominant(val) and cones.in_cone(pos, tuple(a - b for a, b in zip(val, lam)))
    ok = ok and cones.langlands_retraction(rd, val)[0] == val
    for eps in (Fraction(1), Fraction(1, 64)):
        for i in range(rd.n_simple):
            if ok and m.rootdata.pair(rd.simple_roots[i], val) > 0:
                probe = tuple(v - eps * c for v, c in zip(val, rd.simple_coroots[i]))
                ok = not (rd.is_dominant(probe) and cones.in_cone(pos, tuple(a - b for a, b in zip(probe, lam))))
    lam_m = tuple(rd.dominant_representative(lam, J))
    ok = ok and cones.check_retraction_property(rd, _par(env, datum, J), lam_m)
    return ok, f"{[str(x) for x in val]}:{sorted(dom)}"


def cone_certificate_task(env, datum, J):
    cones, rd, par = env.m.cones, env.rd[datum], _par(env, datum, J)
    flags = (cones.check_pos_U_intersection(rd, par), cones.check_dual_cone(rd, par), cones.check_pos_U_consequent(rd, par))
    return all(flags), str(flags)


def weyl_sweep_task(env, datum, kind):
    weylids = env.m.weylids
    report = (weylids.verify_vanishing_A if kind == "A" else weylids.verify_vanishing_B)(env.rd[datum])
    return report.passed, f"{kind}:{report.cases}:{report.passed}"


def transversal_task(env, datum, J, J2):
    ok = env.m.weylids.check_w_bullet_transversal(env.rd[datum], _par(env, datum, J), _par(env, datum, J2))
    return ok, str(ok)


def oracle_task(env, group, lam, q, precision):
    """The local-field oracle measure equals the GK table (built during set-up) at numeric q."""
    measure = env.m.padic.mu_oracle(group, lam, q, precision)
    return measure == env.ref["gk_tables"][group, q][lam], str(measure)


def cones_weyl_oracle_tasks(rng: random.Random, rank: dict) -> list:
    tasks = []
    for datum in RETRACTION_DATA:
        r, n_simple = rank[datum]
        subsets = all_subsets(n_simple)
        for _ in range(RETRACTION_TRIALS):
            lam = tuple((rng.randint(-24, 24), rng.randint(1, 12)) for _ in range(r))
            tasks.append(("retraction", retraction_task, (datum, lam, rng.choice(subsets))))
    for datum in DATA["cones-weyl-oracle"]:
        for J in all_subsets(rank[datum][1]):
            tasks.append(("cone_certificate", cone_certificate_task, (datum, J)))
    for datum in WEYL_DATA:
        for kind in ("A", "B"):
            tasks.append(("weyl_sweep", weyl_sweep_task, (datum, kind)))
        subsets = all_subsets(rank[datum][1])
        for _ in range(TRANSVERSALS_PER_DATUM):
            tasks.append(("transversal", transversal_task, (datum, rng.choice(subsets), rng.choice(subsets))))
    for q, ns in ORACLE_SL2:
        for n in ns:
            tasks.append(("oracle", oracle_task, ("SL2", (n,), q, ORACLE_SL2_PRECISION)))
    for a in range(ORACLE_SL3_MAX + 1):
        for b in range(ORACLE_SL3_MAX + 1):
            tasks.append(("oracle", oracle_task, ("SL3", (a, b), 2, max(a, b) + 2)))
    return tasks


def cones_weyl_oracle_references(m) -> dict:
    """GK tables in the indicator basis, evaluated at the oracle's numeric q."""
    tables = {}
    targets = {("SL2", "A1"): [((n,), q) for q, ns in ORACLE_SL2 for n in ns]}
    targets["SL3", "A2"] = [((a, b), 2) for a in range(ORACLE_SL3_MAX + 1) for b in range(ORACLE_SL3_MAX + 1)]
    for (group, datum), points in targets.items():
        rd = m.rootdata.load_root_datum(datum)
        par = m.rootdata.ParabolicType(rd, ())
        height = max(par.height(lam) for lam, _ in points)
        ind = m.hecke.gk_mu(rd, par, height).to_basis(m.hecke.INDICATOR_BASIS)
        for lam, q in points:
            tables.setdefault((group, q), {})[lam] = ind.coeff(lam).eval(Fraction(q))
    return {"gk_tables": tables}


# ---------------------------------------------------------------------------

GENERATORS = {
    "local-series": (local_series_tasks, local_series_references),
    "global-rank-one": (global_rank_one_tasks, global_rank_one_references),
    "cones-weyl-oracle": (cones_weyl_oracle_tasks, cones_weyl_oracle_references),
}


def build_tasks(workload: str, seed: int, rank: dict) -> list:
    """The seeded task list; rank maps each datum to (rank, number of simple roots)."""
    rng = random.Random(f"{workload}:{seed}")
    tasks = GENERATORS[workload][0](rng, rank)
    rng.shuffle(tasks)
    return tasks


def build_references(workload: str, m) -> dict:
    """The workload's reference tables as plain data, computed with the modules of namespace m."""
    return GENERATORS[workload][1](m)


def bind_references(workload: str, env, plain: dict) -> dict:
    """The reference tables for env: plain data, with the local-series kernels rebuilt in env's import."""
    if workload != "local-series":
        return plain
    return {**plain, "kernels": local_series_kernels(env, plain["kernels"])}
