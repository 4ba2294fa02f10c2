"""Acceptance gate: every exit criterion runs at its stated tolerance (exact) and prints one line."""

import inspect
import itertools
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from heckelat import acceptance, charring, cli, cones, globalsl2, hecke, intertwine, padic, qfield, rootdata, weylids
from heckelat.qfield import q_pow
from heckelat.rootdata import ParabolicType, RootDatum, load_root_datum


@pytest.mark.parametrize("check", acceptance.ALL_CHECKS, ids=lambda c: c.check_name)
def test_acceptance_criterion(check):
    result = check()
    print(result.line())
    assert result.passed, result.detail


SRC = Path(__file__).resolve().parents[1] / "src"


def test_checks_still_fail_under_python_O():
    # criterion 2 with an inversion that returns its input, criterion 3 with an inverse series that raises
    script = textwrap.dedent("""
        from heckelat import acceptance, hecke

        def broken_nu(rd, par, height):
            raise ZeroDivisionError("sabotaged")

        hecke.GradedSeries.invert = lambda self: self
        hecke.nu = broken_nu
        print(acceptance.check_inversion(("A1",)).line())
        print(acceptance.check_nu_constant_term(("A1",)).line())
    """)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    inversion, constant_term = proc.stdout.splitlines()
    assert inversion.startswith("[FAIL] 2.") and "mu*nu != unit" in inversion
    assert constant_term.startswith("[FAIL] 3.") and "ZeroDivisionError: sabotaged" in constant_term


def test_check_that_raises_is_reported_as_a_named_failure(monkeypatch):
    def broken_nu(rd, par, height):
        raise ZeroDivisionError("sabotaged")

    monkeypatch.setattr(hecke, "nu", broken_nu)
    result = acceptance.check_nu_constant_term(("A1",))
    assert not result.passed
    assert result.detail == "ZeroDivisionError: sabotaged"
    assert result.line().startswith("[FAIL] 3.")


def test_ball_fibre_check_fails_for_a_constant_iwasawa_ord(monkeypatch):
    a1, a2 = load_root_datum("A1"), load_root_datum("A2")
    sl2 = hecke.gk_mu(a1, ParabolicType(a1, []), 6).to_basis(hecke.INDICATOR_BASIS)
    sl3 = hecke.gk_mu(a2, ParabolicType(a2, []), 6).to_basis(hecke.INDICATOR_BASIS)
    acceptance._require_ball_fibres("SL2", 3, 2, sl2, dim_u=1)
    acceptance._require_ball_fibres("SL3", 2, 1, sl3, dim_u=3)
    monkeypatch.setattr(padic, "iwasawa_ord", lambda group, g: (0,) * (len(g) - 1))
    with pytest.raises(acceptance.CheckFailed, match="ball fibre"):
        acceptance._require_ball_fibres("SL2", 3, 2, sl2, dim_u=1)
    with pytest.raises(acceptance.CheckFailed, match="ball fibre"):
        acceptance._require_ball_fibres("SL3", 2, 1, sl3, dim_u=3)
    assert not acceptance.check_gk_oracle().passed


def _flip_sign_at(indices):
    original = weylids.parabolic_sign

    def flipped(rd, J):
        sign = original(rd, J)
        return -sign if frozenset(J) == frozenset(indices) else sign

    return flipped


def _inverse_twist_one_power_off(rd, par, series, phi, out_points=None):
    """R^-1 with the input twist q^(1 - scale height(p)) in place of q^(-scale height(p))."""
    scale = par.twist_scale
    values = {p: q_pow(1 - scale * par.height(p)) * v for p, v in phi.values.items()}
    twisted = intertwine.SphericalFunction._build(rd, phi.par, values, phi.window)
    return intertwine._apply_kernel(par, series, twisted, out_points)


def _to_basis_untwisted(series, basis, scale=1):
    return series if basis == series.basis else hecke.GradedSeries(series.rd, series.par, series.height, dict(series.coeffs), basis)


def _nu_with_constant_term_two():
    original = hecke.nu

    def nu(rd, par, height):
        series = original(rd, par, height)
        return hecke.GradedSeries(rd, par, height, {**series.coeffs, (0,) * rd.rank: 2}, series.basis)

    return nu


def _root_image_wrong_at_s0():
    """The true permutations, except that s_0 fixes alpha_0 instead of negating it."""
    original = RootDatum.root_image

    def root_image(rd, w):
        image = original(rd, w)
        if w == rd.longest_element([0]):  # s_0 is the longest element of W_{0}
            return {**image, rd.simple_roots[0]: rd.simple_roots[0]}
        return image

    return root_image


def _manifest_with_run_counter():
    original, runs = cli._manifest, itertools.count()

    def manifest(args, rd, output):
        return f"{original(args, rd, output)} run {next(runs)}"

    return manifest


def _changed_at(fn, where, change):
    """fn with its value v replaced by change(v, q) where its leading arguments satisfy where; q is its last argument."""

    def mutant(*args):
        value = fn(*args)
        return change(value, args[-1]) if where(*args[:-1]) else value

    return mutant


def _source_mutant(fn, old, new):
    """fn recompiled from its own source with `old`, which must occur exactly once, replaced by `new`."""
    source = textwrap.dedent(inspect.getsource(fn))
    assert source.count(old) == 1, f"{fn.__name__}: {old!r} occurs {source.count(old)} times"
    namespace = dict(fn.__globals__)
    exec(compile(source.replace(old, new), inspect.getsourcefile(fn), "exec"), namespace)
    return namespace[fn.__name__]


_CONVOLVE_KEY_SUBTRACTS = _source_mutant(hecke.convolve, "tuple(map(add, a, b))", "tuple(map(int.__sub__, a, b))")

# (check, its arguments, module, attribute, replacement): each mutant must make its criterion FAIL
MUTANTS = [
    pytest.param(
        acceptance.check_gk_oracle, (), padic.LaurentElement, "mul",
        _source_mutant(padic.LaurentElement.mul, "tuple(c % q for c in acc)", "(0,) + tuple(c % q for c in acc[1:])"),
        id="1-laurent-mul-drops-lowest-digit",
    ),
    pytest.param(
        acceptance.check_gk_oracle, (), padic, "_mu_sl3_fast",
        _source_mutant(padic._mu_sl3_fast, "v = e\n", "v = e + 1\n"), id="1-sl3-product-minor-valuation-one-off",
    ),
    pytest.param(  # each prefix's first nonzero digit is read one exponent higher, so its coweight is one lower
        acceptance.check_gk_oracle, (), padic, "_sl2_prefix_hits",
        _source_mutant(padic._sl2_prefix_hits, "(i - w for i", "(i - w + 1 for i"), id="1-sl2-first-digit-one-off",
    ),
    pytest.param(  # x12 loses its digit at t^(n2-1) (at lam = (0, 0) its window is empty already), the scaling is kept
        acceptance.check_gk_oracle, (), padic, "_mu_sl3_fast",
        _source_mutant(padic._mu_sl3_fast, "_packed_cells(q, -n1, n2, bits", "_packed_cells(q, -n1, max(n2 - 1, -n1), bits"),
        id="1-sl3-x12-one-digit-short",
    ),
    pytest.param(  # right at precision 3, off by a factor q^(3-n) elsewhere: only the precision row can see it
        acceptance.check_gk_oracle, (), padic, "_mu_sl2",
        _source_mutant(padic._mu_sl2, "* q**n, q**n)", "* q**3, q**n)"), id="1-sl2-scaling-at-a-fixed-precision",
    ),
    pytest.param(
        acceptance.check_inversion, (("A1", "A2"),), hecke.GradedSeries, "invert",
        _source_mutant(hecke.GradedSeries.invert, "value = -sum_of_products(pairs)", "value = sum_of_products(pairs)"),
        id="2-invert-drops-the-minus-sign",
    ),
    pytest.param(  # nu's factor list leaves out its first coroot, so it is no longer mu.invert()
        acceptance.check_inversion, (("A1", "A2"),), hecke, "nu",
        _source_mutant(hecke.nu, "for a in par.pos_coroots_unipotent]", "for a in par.pos_coroots_unipotent[1:]]"),
        id="2-rank-one-product-skips-a-coroot",
    ),
    pytest.param(  # every fused product in hecke lands one degree low, the lowest one wrapping round to the top
        acceptance.check_inversion, (("A1", "A2"),), hecke, "sum_of_products",
        _source_mutant(qfield.sum_of_products, "a._v + b._v - lo", "a._v + b._v - lo - 1"),
        id="2-fused-product-offset-one-low",
    ),
    pytest.param(  # every product lands at a - b, outside the cone: only the identity mu * nu = 1 can see it
        acceptance.check_inversion, (("A1", "A2"),), hecke, "convolve", _CONVOLVE_KEY_SUBTRACTS,
        id="2-convolve-key-subtracts",
    ),
    pytest.param(  # the origin pairs to 0 with every dual generator, so no series keeps its constant term
        acceptance.check_inversion, (("A1", "A2"),), cones, "in_pos_U",
        _source_mutant(cones.in_pos_U, "dot(c, v) >= 0", "dot(c, v) > 0"),
        id="2-support-cone-sign-test-strict",
    ),
    pytest.param(
        acceptance.check_nu_constant_term, (("A1", "B2"),), hecke, "nu", _nu_with_constant_term_two(),
        id="3-nu-constant-term-2",
    ),
    pytest.param(
        acceptance.check_retraction, (("A2",), 20), cones, "langlands_retraction",
        lambda rd, lam: (cones.fvec(lam), frozenset()), id="4-retraction-returns-lam",
    ),
    pytest.param(  # pairs sharing exactly d - 2 tight constraints are never joined, so extreme rays go missing
        acceptance.check_cone_certificates, (("A3",),), cones, "rays_from_inequalities",
        _source_mutant(cones.rays_from_inequalities, "common.bit_count() < d - 2", "common.bit_count() < d - 1"),
        id="5-adjacency-needs-one-more-tight-constraint",
    ),
    pytest.param(
        acceptance.check_cone_certificates, (("GL2",),), cones, "dual_generators",
        _source_mutant(cones.dual_generators, "*lin, *map(vneg, lin))", "*lin)"),
        id="5-lineality-one-sign",
    ),
    pytest.param(  # each weight gains only its images under one simple reflection, so no orbit is closed
        acceptance.check_cone_certificates, (("A2",),), cones, "orbit",
        _source_mutant(rootdata.orbit, "stack.append(image)", "pass"),
        id="5-orbit-stops-after-one-reflection",
    ),
    pytest.param(
        acceptance.check_weyl_identities, (("A2",),), weylids, "parabolic_sign", _flip_sign_at([0]),
        id="8-parabolic-sign-flipped-at-J0",
    ),
    pytest.param(  # the per-w' table reads w'(positive roots): sweep A's upper constraint holds the wrong simple roots
        acceptance.check_weyl_identities, (("A2",),), weylids, "verify_vanishing_A",
        _source_mutant(weylids.verify_vanishing_A, "[image[chi] for chi in neg_roots]", "[image[chi] for chi in rd.positive_roots]"),
        id="8-sweep-a-simple-hits-from-positive-roots",
    ),
    pytest.param(  # the coset is w W_M alone: the right closure of w, without the column orbit under W_{M'}
        acceptance.check_weyl_identities, (("A2",),), weylids, "double_coset",
        _source_mutant(weylids.double_coset, "for cols in left]", "for cols in [tuple(zip(*w))]]"),
        id="8-double-coset-drops-the-left-factor",
    ),
    pytest.param(
        acceptance.check_weyl_identities, (("B2",),), RootDatum, "root_image", _root_image_wrong_at_s0(),
        id="8-root-image-wrong-at-s0",
    ),
    pytest.param(  # the descent stops one reflection early, at w0_J s_j: w0_levi and rd.w0 are both one short
        acceptance.check_weyl_identities, (("A2",),), RootDatum, "longest_element",
        _source_mutant(
            RootDatum.longest_element,
            "while (j := self._ascent(w, idx)) is not None:",
            "while (j := self._ascent(w, idx)) is not None"
            " and self._ascent(tuple(reflect(row, self.weight_reflections[j]) for row in w), idx) is not None:",
        ),
        id="8-longest-element-descent-one-short",
    ),
    pytest.param(  # w0_J of J shifted by one index: an involution, so the datum loads, and rd.w0 (J full) is right
        acceptance.check_weyl_identities, (("A2",),), RootDatum, "longest_element",
        _source_mutant(RootDatum.longest_element, "idx = sorted(key)", "idx = sorted((j + 1) % self.n_simple for j in key)"),
        id="8-longest-element-of-another-J",
    ),
    pytest.param(
        acceptance.check_character_identities, (), charring, "sym_series",
        _source_mutant(charring.sym_series, "for w in piece.weights]", "for w in piece.weights[1:]]"),
        id="6-sym-series-drops-a-weight",
    ),
    pytest.param(
        acceptance.check_character_identities, (), hecke, "_lambda_product_side",
        _source_mutant(hecke._lambda_product_side, "piece.level - 1", "piece.level - 2"),
        id="6-lambda-ratio-level-off-by-one",
    ),
    pytest.param(
        acceptance.check_local_roundtrip, (5,), intertwine, "apply_R_inverse_K", _inverse_twist_one_power_off,
        id="7-inverse-twist-one-power-off",
    ),
    pytest.param(  # a Laurent sum whose lowest terms cancel keeps its old valuation, so q^v n shifts to q^(v-j) n
        acceptance.check_local_roundtrip, (5,), qfield, "_laurent_terms",
        _source_mutant(qfield._laurent_terms, "return _rf(v + j, n[j:], (1,))", "return _rf(v, n[j:], (1,))"),
        id="7-laurent-sum-keeps-the-valuation",
    ),
    pytest.param(  # the same value, but not in normal form: q^v (0, ..., 0, n_j, ...) no longer equals q^(v+j) n
        acceptance.check_local_roundtrip, (5,), qfield, "_laurent_terms",
        _source_mutant(qfield._laurent_terms, "return _rf(v + j, n[j:], (1,))", "return _rf(v, n, (1,))"),
        id="7-laurent-sum-keeps-a-leading-zero",
    ),
    pytest.param(
        acceptance.check_local_roundtrip, (5,), hecke.GradedSeries, "to_basis", _to_basis_untwisted,
        id="7-to-basis-drops-twist",
    ),
    pytest.param(  # only the pull loop (fewer outputs than inputs) changes: it reads phi at lam - theta
        acceptance.check_local_roundtrip, (5,), intertwine, "_apply_kernel",
        _source_mutant(intertwine._apply_kernel, "tuple(map(add, lam, theta))", "tuple(map(sub, lam, theta))"),
        id="7-pull-reads-phi-at-lam-minus-theta",
    ),
    pytest.param(
        acceptance.check_global_adjunction, (5,), globalsl2, "t_weight",
        _changed_at(globalsl2.t_weight, lambda d: True, lambda w, qv: qv * w), id="9a-t-weight-times-q",
    ),
    pytest.param(
        acceptance.check_global_adjunction, (5,), globalsl2, "negate",
        _source_mutant(globalsl2.negate, "phi.value(-d)", "phi.value(d)"), id="9a-negate-keeps-the-degree",
    ),
    pytest.param(  # Eis phi(n) becomes phi(n) + q^{2n-1} phi(-n): the terms below -n cancel
        acceptance.check_global_adjunction, (5,), globalsl2, "eis_B",
        _source_mutant(globalsl2.eis_B, "q2 * below(-n)", "below(-n)"), id="9a-eis-drops-the-q-squared",
    ),
    pytest.param(  # the n = 0 term is f1(0) f2(0) over (q-1)^2 in place of aut(0) = (q-1) q (q+1)
        acceptance.check_global_adjunction, (5,), globalsl2, "naive_pairing",
        _source_mutant(globalsl2.naive_pairing, "acc = f1.value(0) * f2.value(0)", "acc = f1.value(0) * f2.value(0) * (qv * (qv + 1)) / (qv - 1)"),
        id="9a-naive-pairing-n0-over-q-minus-1",
    ),
    pytest.param(  # the weights q^{-2e-1} of the suffix sum step by q per degree downward, not q^2
        acceptance.check_global_roundtrip, (), globalsl2, "global_R_inverse",
        _source_mutant(globalsl2.global_R_inverse, "qv**2,", "qv,"), id="9b-r-inverse-ratio-q",
    ),
    pytest.param(  # S(d) + nu_hat(1) S(d + 1) weights the suffix e > d by nu_hat(1) + 1
        acceptance.check_global_roundtrip, (), globalsl2, "global_R_inverse",
        _source_mutant(globalsl2.global_R_inverse, "nu_hat(1, qv) - 1", "nu_hat(1, qv)"), id="9b-r-inverse-keeps-nu-hat-1",
    ),
    pytest.param(
        acceptance.check_global_roundtrip, (), globalsl2, "nu_hat",
        _changed_at(globalsl2.nu_hat, lambda m: m == 1, lambda c, qv: c + 1), id="9b-nu-hat-1-plus-1",
    ),
    pytest.param(  # at numeric q, the term of higher valuation is shifted up one power of q too few
        acceptance.check_global_roundtrip, (), qfield, "_laurent_number_sum",
        _source_mutant(qfield._laurent_number_sum, "q ** (v2 - v1)", "q ** (v2 - v1 - 1)"),
        id="9b-laurent-number-alignment-off-by-one",
    ),
    pytest.param(  # a sum at one valuation keeps the powers of q in n (odd + odd at q = 2): == reads the canonical form
        acceptance.check_global_roundtrip, (), qfield, "_laurent_number_sum",
        _source_mutant(qfield._laurent_number_sum, "_canonical(q, n1 + n2, v1)", "LaurentNumber(q, n1 + n2, v1)"),
        id="9b-laurent-number-sum-not-renormalised",
    ),
    pytest.param(
        acceptance.check_global_form, (5,), globalsl2, "nu_hat",
        _changed_at(globalsl2.nu_hat, lambda m: m == 1, lambda c, qv: c + 1), id="9c-nu-hat-1-plus-1",
    ),
    pytest.param(
        acceptance.check_global_form, (5,), globalsl2, "ct_kernel",
        _changed_at(globalsl2.ct_kernel, lambda n, d: n == 0 and d < 0, lambda c, qv: 2 * c), id="9c-ct-kernel-0-doubled",
    ),
    pytest.param(
        acceptance.check_global_cuspidal, (5,), globalsl2, "ct_kernel",
        _changed_at(globalsl2.ct_kernel, lambda n, d: n == 3 and d == 3, lambda c, qv: 2 * c), id="9d-ct-kernel-3-3-doubled",
    ),
    pytest.param(acceptance.check_determinism, (), cli, "_manifest", _manifest_with_run_counter(), id="10-manifest-run-counter"),
]


@pytest.mark.parametrize("check, args, module, attr, mutant", MUTANTS)
def test_mutant_fails_its_criterion(monkeypatch, check, args, module, attr, mutant):
    assert check(*args).passed
    monkeypatch.setattr(hecke, "_CONE_MEMO", {})  # answers the true code cached must not hide the mutant
    monkeypatch.setattr(module, attr, mutant)
    result = check(*args)
    assert not result.passed, result.line()
    # a mutant that no longer runs against the code fails for that alone, not on its criterion
    assert not result.detail.startswith(("AttributeError:", "NameError:")), result.line()


@pytest.mark.parametrize(
    "row_id, detail",
    [
        ("1-sl2-scaling-at-a-fixed-precision", "precision dependence"),
        ("8-longest-element-of-another-J", "w'=w0_M"),
        ("9b-laurent-number-alignment-off-by-one", "honest constant term differs from the certificate"),
        ("9b-laurent-number-sum-not-renormalised", "honest constant term differs from the certificate"),
    ],
)
def test_mutant_fails_on_the_row_it_aims_at(monkeypatch, row_id, detail):
    # these mutants each reach one branch that no other row does, or (the numeric-q rows) could fail by an
    # exception of the arithmetic instead of the identity: the failure must come from the named condition
    [(check, args, module, attr, mutant)] = [row.values for row in MUTANTS if row.id == row_id]
    monkeypatch.setattr(hecke, "_CONE_MEMO", {})
    monkeypatch.setattr(module, attr, mutant)
    result = check(*args)
    assert not result.passed and detail in result.detail, result.line()


def test_convolve_mutant_fails_on_the_identity_not_on_a_support_check(monkeypatch):
    # convolve builds its result unchecked, so the witness must be mu * nu = 1 itself
    monkeypatch.setattr(hecke, "convolve", _CONVOLVE_KEY_SUBTRACTS)
    result = acceptance.check_inversion(("A1", "A2"))
    assert not result.passed and result.detail.endswith("mu*nu != unit"), result.line()


def test_every_criterion_has_a_mutant():
    covered = {row.values[0] for row in MUTANTS}
    assert [c.check_name for c in acceptance.ALL_CHECKS if c not in covered] == []
