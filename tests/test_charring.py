import random
from fractions import Fraction

import pytest

from heckelat import charring as ch
from heckelat.hecke import HeckeError
from heckelat.qfield import ONE, Q, q_pow
from heckelat.linalg import mat_vec
from heckelat.rootdata import PRESET_NAMES, ParabolicType, dominance_leq, index_subsets, load_root_datum, pair


def test_graded_pieces_borel():
    rd = load_root_datum("A2")
    par = ParabolicType(rd, [])
    pieces = ch.u_P_graded_pieces(par)
    assert [(p.level, p.weights) for p in pieces] == [
        (Fraction(1), ((0, 1), (1, 0))),
        (Fraction(2), ((1, 1),)),
    ]
    rd1 = load_root_datum("A1")
    pieces1 = ch.u_P_graded_pieces(ParabolicType(rd1, []))
    assert pieces1 == [ch.GradedPiece(Fraction(1), ((1,),))]


def test_graded_pieces_maximal_parabolic_half_levels():
    rd = load_root_datum("A2")
    pieces = ch.u_P_graded_pieces(ParabolicType(rd, [0]))
    assert len(pieces) == 1
    assert pieces[0].level == Fraction(3, 2)
    assert pieces[0].weights == ((0, 1), (1, 1))


def test_piece_partition_covers_unipotent_roots():
    for name in ("B2", "G2", "A3"):
        rd = load_root_datum(name)
        for mask in range(1 << rd.n_simple):
            J = [i for i in range(rd.n_simple) if mask >> i & 1]
            par = ParabolicType(rd, J)
            pieces = ch.u_P_graded_pieces(par)
            multiset = sorted(w for p in pieces for w in p.weights)
            assert multiset == sorted(par.pos_coroots_unipotent)


def test_lambda_series_small_cases():
    rd = load_root_datum("A1")
    par = ParabolicType(rd, [])
    piece = ch.u_P_graded_pieces(par)[0]
    ls = ch.lambda_series(rd, par, Q, piece, 10)
    assert ls.coeff((0,)) == ONE and ls.coeff((1,)) == -Q
    rd2 = load_root_datum("A2")
    par2 = ParabolicType(rd2, [])
    two = ch.u_P_graded_pieces(par2)[0]
    ls2 = ch.lambda_series(rd2, par2, Q, two, 8)
    assert ls2.coeff((1, 1)) == Q**2  # cross term of the two factors


def test_sym_series_geometric_and_kostant():
    rd = load_root_datum("A1")
    par = ParabolicType(rd, [])
    piece = ch.u_P_graded_pieces(par)[0]
    ss = ch.sym_series(rd, par, Q, piece, 12)
    for n in range(7):
        assert ss.coeff((n,)) == Q**n
    # Kostant partition count: e^{a1+a2} has two decompositions
    rd2 = load_root_datum("A2")
    par2 = ParabolicType(rd2, [])
    kost = ch.GradedPiece(Fraction(1), ((0, 1), (1, 0), (1, 1)))
    ssk = ch.sym_series(rd2, par2, 1, kost, 8)
    assert ssk.coeff((1, 1)) == 2
    assert ssk.coeff((0, 0)) == ONE


def test_sym_series_rejects_zero_weight():
    rd = load_root_datum("A2")
    par = ParabolicType(rd, [])
    zero = ch.GradedPiece(Fraction(1), ((0, 0),))
    with pytest.raises(HeckeError, match="positive height"):
        ch.sym_series(rd, par, Q, zero, 4)
    with pytest.raises(HeckeError, match="positive height"):
        ch.lambda_series(rd, par, Q, zero, 4)


def test_lambda_times_sym_is_unit():
    for name, J in [("A2", []), ("B2", []), ("A2", [0])]:
        rd = load_root_datum(name)
        par = ParabolicType(rd, J)
        for piece in ch.u_P_graded_pieces(par):
            scale = 1 if piece.level.denominator == 1 else 2
            for exponent in (int(scale * piece.level), int(scale * (piece.level - 1))):
                t = q_pow(exponent)
                prod = ch.lambda_series(rd, par, t, piece, 8) * ch.sym_series(rd, par, t, piece, 8)
                assert prod == ch.CharSeries.unit(rd, par, 8)


# -- reference implementation: Freudenthal's multiplicity recursion ------------------------------


def _levi_form(rd, par):
    """A W_M-invariant symmetric form on the coweight lattice, positive on the Levi root span."""
    roots = sorted(par.roots_levi)

    def form(x, y):
        return sum(pair(r, x) * pair(r, y) for r in roots)

    return form


def _irreducible_character_reference(rd, par, highest):
    """Weight multiplicities of the dual-Levi irreducible with the given dominant highest weight."""
    highest = tuple(int(x) for x in highest)
    if not par.is_levi_dominant(highest):
        raise ch.CharError(f"{highest} is not dominant for the Levi")
    if not par.indices:
        return {highest: 1}
    form = _levi_form(rd, par)
    rho = tuple(Fraction(sum(col), 2) for col in zip(*par.pos_coroots_levi))
    simples = [rd.simple_coroots[j] for j in sorted(par.indices)]
    # candidate weights: lattice points below the highest weight whose dominant
    # conjugate is still majorized by it
    candidates = {highest}
    frontier = [highest]
    while frontier:
        new = []
        for lam in frontier:
            for s in simples:
                mu = tuple(a - b for a, b in zip(lam, s))
                if mu in candidates:
                    continue
                dom = tuple(rd.dominant_representative(mu, par.indices))
                if dominance_leq(rd, par, highest, dom):
                    candidates.add(mu)
                    new.append(mu)
        frontier = new
    lamrho = tuple(Fraction(a) + b for a, b in zip(highest, rho))
    norm_top = form(lamrho, lamrho)
    order = sorted(candidates, key=lambda v: (-pair(par.two_rho_check_levi, v), v))
    mults = {}
    for mu in order:
        if mu == highest:
            mults[mu] = 1
            continue
        murho = tuple(Fraction(a) + b for a, b in zip(mu, rho))
        den = norm_top - form(murho, murho)
        acc = Fraction(0)
        for alpha in par.pos_coroots_levi:
            k = 1
            while True:
                shifted = tuple(a + k * b for a, b in zip(mu, alpha))
                m = mults.get(shifted)
                if m is None and shifted not in candidates:
                    break
                if m:
                    acc += 2 * m * form(shifted, alpha)
                k += 1
        if den == 0:
            mults[mu] = 0
            continue
        val = acc / den
        if val.denominator != 1 or val < 0:
            raise ch.CharError(f"Freudenthal produced a non-integer multiplicity at {mu}")
        if val:
            mults[mu] = int(val)
    return {k: v for k, v in mults.items() if v}


def _combination(rd, par, comps):
    """The weight function sum of m * chi_lam over the (lam, m) pairs, from the Freudenthal reference."""
    out = {}
    for lam, m in comps:
        for mu, mm in _irreducible_character_reference(rd, par, lam).items():
            out[mu] = out.get(mu, 0) + m * mm
    return {k: v for k, v in out.items() if v}


def test_irreducible_character_adjoint_type():
    rd = load_root_datum("A2")
    par = ParabolicType(rd, [0, 1])
    char = _irreducible_character_reference(rd, par, (1, 1))
    assert char[(0, 0)] == 2
    assert sum(char.values()) == 8
    roots = {(1, 1), (1, 0), (0, 1), (-1, -1), (-1, 0), (0, -1)}
    assert all(char[r] == 1 for r in roots)


def test_irreducible_character_is_weyl_invariant():
    rd = load_root_datum("B2")
    par = ParabolicType(rd, [0, 1])
    char = _irreducible_character_reference(rd, par, (1, 1))
    for w in rd.weyl_elements:
        for lam, m in char.items():
            assert char.get(tuple(int(x) for x in mat_vec(w, lam)), 0) == m


def test_decompose_reconstructs():
    rd = load_root_datum("A2")
    par = ParabolicType(rd, [0, 1])
    char = dict(_irreducible_character_reference(rd, par, (1, 1)))
    char[(0, 0)] += 3  # add three trivials
    comps, virtual = ch.decompose_into_irreducibles(rd, par, char)
    assert not virtual
    assert sorted(comps) == [((0, 0), 3), ((1, 1), 1)]
    assert _combination(rd, par, comps) == {k: v for k, v in char.items() if v}


def test_decompose_torus_and_unit():
    rd = load_root_datum("A2")
    torus = ParabolicType(rd, [])
    comps, virtual = ch.decompose_into_irreducibles(rd, torus, {(2, -1): 3, (0, 0): 1})
    assert set(comps) == {((2, -1), 3), ((0, 0), 1)} and not virtual
    full = ParabolicType(rd, [0, 1])
    comps2, virtual2 = ch.decompose_into_irreducibles(rd, full, {(0, 0): 1})
    assert comps2 == [((0, 0), 1)] and not virtual2


def test_decompose_flags_virtual():
    rd = load_root_datum("A1")
    full = ParabolicType(rd, [0])
    # character of V(2a) minus two trivials is virtual at weight zero
    char = dict(_irreducible_character_reference(rd, full, (2,)))
    char[(0,)] -= 3
    comps, virtual = ch.decompose_into_irreducibles(rd, full, char)
    assert virtual
    assert _combination(rd, full, comps) == {k: v for k, v in char.items() if v}


def test_decompose_agrees_with_freudenthal_on_every_preset_and_parabolic():
    rng = random.Random(18)
    for name in PRESET_NAMES:
        rd = load_root_datum(name)
        for J in index_subsets(rd.n_simple):
            par = ParabolicType(rd, J)
            for _ in range(6):
                draws = [tuple(rng.randint(-1, 1) for _ in range(rd.rank)) for _ in range(rng.randint(1, 3))]
                highest = {rd.dominant_representative(lam, par.indices) for lam in draws}
                comps = [(lam, rng.choice([-2, -1, 1, 2, 3])) for lam in highest]
                got = ch.decompose_into_irreducibles(rd, par, _combination(rd, par, comps))
                comps.sort(key=lambda item: (-pair(par.two_rho_check_levi, item[0]), item[0]))
                assert got == (comps, any(m < 0 for _, m in comps)), (name, J, comps)


def test_decompose_rejects_non_invariant():
    rd = load_root_datum("A1")
    full = ParabolicType(rd, [0])
    with pytest.raises(ch.CharError):
        ch.decompose_into_irreducibles(rd, full, {(1,): 1})


def test_product_bilinearity_over_grading():
    rd = load_root_datum("A2")
    par = ParabolicType(rd, [0])
    piece = ch.u_P_graded_pieces(par)[0]
    s1 = ch.lambda_series(rd, par, Q, piece, 6)
    s2 = ch.sym_series(rd, par, 2, piece, 6)
    prod = s1 * s2

    def components(series):
        """{class in Lambda_{G,P}: its coefficients}; levi_solve's slice point, d times the class, is additive."""
        out = {}
        for lam, v in series.coeffs.items():
            out.setdefault(rd.levi_solve(par.indices, lam)[0], {})[lam] = v
        return out

    parts1, parts2, parts = components(s1), components(s2), components(prod)
    sums = {tuple(a + b for a, b in zip(c1, c2)) for c1 in parts1 for c2 in parts2}
    assert len(parts) > 1 and set(parts) <= sums
    for cls in sums:
        expected = {}
        for c1, part1 in parts1.items():
            for c2, part2 in parts2.items():
                if tuple(a + b for a, b in zip(c1, c2)) != cls:
                    continue
                for lam1, v1 in part1.items():
                    for lam2, v2 in part2.items():
                        key = tuple(a + b for a, b in zip(lam1, lam2))
                        if ch.pair(par.two_rho_check_P, key) > 6:
                            continue
                        expected[key] = expected.get(key, 0) + v1 * v2
        expected = {k: v for k, v in expected.items() if v != 0}
        assert expected == parts.get(cls, {}), cls
