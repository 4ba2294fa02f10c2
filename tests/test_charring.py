from fractions import Fraction

import pytest

from heckelat import charring as ch
from heckelat.hecke import HeckeError
from heckelat.qfield import ONE, Q, q_pow
from heckelat.rootdata import load_root_datum, mat_apply, parabolic


def test_graded_pieces_borel():
    rd = load_root_datum("A2")
    par = parabolic(rd, [])
    pieces = ch.u_P_graded_pieces(rd, par)
    assert [(p.level, p.weights) for p in pieces] == [
        (Fraction(1), ((0, 1), (1, 0))),
        (Fraction(2), ((1, 1),)),
    ]
    rd1 = load_root_datum("A1")
    pieces1 = ch.u_P_graded_pieces(rd1, parabolic(rd1, []))
    assert pieces1 == [ch.GradedPiece(Fraction(1), ((1,),))]


def test_graded_pieces_maximal_parabolic_half_levels():
    rd = load_root_datum("A2")
    pieces = ch.u_P_graded_pieces(rd, parabolic(rd, [0]))
    assert len(pieces) == 1
    assert pieces[0].level == Fraction(3, 2)
    assert pieces[0].weights == ((0, 1), (1, 1))


def test_piece_partition_covers_unipotent_roots():
    for name in ("B2", "G2", "A3"):
        rd = load_root_datum(name)
        for mask in range(1 << rd.n_simple):
            J = [i for i in range(rd.n_simple) if mask >> i & 1]
            par = parabolic(rd, J)
            pieces = ch.u_P_graded_pieces(rd, par)
            multiset = sorted(w for p in pieces for w in p.weights)
            assert multiset == sorted(par.pos_coroots_unipotent)


def test_lambda_series_small_cases():
    rd = load_root_datum("A1")
    par = parabolic(rd, [])
    piece = ch.u_P_graded_pieces(rd, par)[0]
    ls = ch.lambda_series(rd, par, Q, piece, 10)
    assert ls.coeff((0,)) == ONE and ls.coeff((1,)) == -Q
    rd2 = load_root_datum("A2")
    par2 = parabolic(rd2, [])
    two = ch.u_P_graded_pieces(rd2, par2)[0]
    ls2 = ch.lambda_series(rd2, par2, Q, two, 8)
    assert ls2.coeff((1, 1)) == Q**2  # cross term of the two factors


def test_sym_series_geometric_and_kostant():
    rd = load_root_datum("A1")
    par = parabolic(rd, [])
    piece = ch.u_P_graded_pieces(rd, par)[0]
    ss = ch.sym_series(rd, par, Q, piece, 12)
    for n in range(7):
        assert ss.coeff((n,)) == Q**n
    # Kostant partition count: e^{a1+a2} has two decompositions
    rd2 = load_root_datum("A2")
    par2 = parabolic(rd2, [])
    kost = ch.GradedPiece(Fraction(1), ((0, 1), (1, 0), (1, 1)))
    ssk = ch.sym_series(rd2, par2, 1, kost, 8)
    assert ssk.coeff((1, 1)) == 2
    assert ssk.coeff((0, 0)) == ONE


def test_sym_series_rejects_zero_weight():
    rd = load_root_datum("A2")
    par = parabolic(rd, [])
    zero = ch.GradedPiece(Fraction(1), ((0, 0),))
    with pytest.raises(HeckeError, match="positive height"):
        ch.sym_series(rd, par, Q, zero, 4)
    with pytest.raises(HeckeError, match="positive height"):
        ch.lambda_series(rd, par, Q, zero, 4)


def test_lambda_times_sym_is_unit():
    for name, J in [("A2", []), ("B2", []), ("A2", [0])]:
        rd = load_root_datum(name)
        par = parabolic(rd, J)
        for piece in ch.u_P_graded_pieces(rd, par):
            scale = 1 if piece.level.denominator == 1 else 2
            for exponent in (int(scale * piece.level), int(scale * (piece.level - 1))):
                t = q_pow(exponent)
                prod = ch.lambda_series(rd, par, t, piece, 8) * ch.sym_series(rd, par, t, piece, 8)
                assert prod == ch.CharSeries.unit(rd, par, 8)


def test_product_grading_consistency():
    rd = load_root_datum("A2")
    par = parabolic(rd, [0])
    piece = ch.u_P_graded_pieces(rd, par)[0]
    s = ch.sym_series(rd, par, Q, piece, 6)
    total = {}
    for cls in s.classes():
        for lam, c in s.graded_component(cls).items():
            assert tuple(par.project(lam)) == cls
            total[lam] = c
    assert total == s.coeffs


def test_irreducible_character_adjoint_type():
    rd = load_root_datum("A2")
    par = parabolic(rd, [0, 1])
    char = ch.irreducible_character(rd, par, (1, 1))
    assert char[(0, 0)] == 2
    assert sum(char.values()) == 8
    roots = {(1, 1), (1, 0), (0, 1), (-1, -1), (-1, 0), (0, -1)}
    assert all(char[r] == 1 for r in roots)


def test_irreducible_character_is_weyl_invariant():
    rd = load_root_datum("B2")
    par = parabolic(rd, [0, 1])
    char = ch.irreducible_character(rd, par, (1, 1))
    for w in rd.weyl_elements:
        for lam, m in char.items():
            assert char.get(tuple(int(x) for x in mat_apply(w, lam)), 0) == m


def test_decompose_reconstructs():
    rd = load_root_datum("A2")
    par = parabolic(rd, [0, 1])
    char = dict(ch.irreducible_character(rd, par, (1, 1)))
    char[(0, 0)] += 3  # add three trivials
    comps, virtual = ch.decompose_into_irreducibles(rd, par, char)
    assert not virtual
    assert sorted(comps) == [((0, 0), 3), ((1, 1), 1)]
    rebuilt = {}
    for lam, m in comps:
        for mu, mm in ch.irreducible_character(rd, par, lam).items():
            rebuilt[mu] = rebuilt.get(mu, 0) + m * mm
    assert rebuilt == {k: v for k, v in char.items() if v}


def test_decompose_torus_and_unit():
    rd = load_root_datum("A2")
    torus = parabolic(rd, [])
    comps, virtual = ch.decompose_into_irreducibles(rd, torus, {(2, -1): 3, (0, 0): 1})
    assert set(comps) == {((2, -1), 3), ((0, 0), 1)} and not virtual
    full = parabolic(rd, [0, 1])
    comps2, virtual2 = ch.decompose_into_irreducibles(rd, full, {(0, 0): 1})
    assert comps2 == [((0, 0), 1)] and not virtual2


def test_decompose_flags_virtual():
    rd = load_root_datum("A1")
    full = parabolic(rd, [0])
    # character of V(2a) minus two trivials is virtual at weight zero
    char = dict(ch.irreducible_character(rd, full, (2,)))
    char[(0,)] -= 3
    comps, virtual = ch.decompose_into_irreducibles(rd, full, char)
    assert virtual
    rebuilt = {}
    for lam, m in comps:
        for mu, mm in ch.irreducible_character(rd, full, lam).items():
            rebuilt[mu] = rebuilt.get(mu, 0) + m * mm
    assert rebuilt == {k: v for k, v in char.items() if v}


def test_decompose_rejects_non_invariant():
    rd = load_root_datum("A1")
    full = parabolic(rd, [0])
    with pytest.raises(ch.CharError):
        ch.decompose_into_irreducibles(rd, full, {(1,): 1})


def test_product_bilinearity_over_grading():
    rd = load_root_datum("A2")
    par = parabolic(rd, [0])
    piece = ch.u_P_graded_pieces(rd, par)[0]
    s1 = ch.lambda_series(rd, par, Q, piece, 6)
    s2 = ch.sym_series(rd, par, 2, piece, 6)
    prod = s1 * s2
    for cls in prod.classes():
        expected = {}
        for c1 in s1.classes():
            for c2 in s2.classes():
                if tuple(a + b for a, b in zip(c1, c2)) != tuple(cls):
                    continue
                for lam1, v1 in s1.graded_component(c1).items():
                    for lam2, v2 in s2.graded_component(c2).items():
                        key = tuple(a + b for a, b in zip(lam1, lam2))
                        if ch.pair(par.two_rho_check_P, key) > 6:
                            continue
                        expected[key] = expected.get(key, 0) + v1 * v2
        expected = {k: v for k, v in expected.items() if v != 0}
        assert expected == prod.graded_component(cls)
