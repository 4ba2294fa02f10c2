"""Acceptance gate: every exit criterion runs at its stated tolerance (exact) and prints one line."""

import itertools
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from heckelat import acceptance, cli, cones, globalsl2, hecke, intertwine, padic, weylids
from heckelat.qfield import q_pow
from heckelat.rootdata import ParabolicType, load_root_datum


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
    def twist(scale, lam, theta):
        return q_pow(1 - scale * (par.height(lam) + par.height(theta)))

    return intertwine._apply_kernel(rd, par, series, phi, out_points, twist)


def _to_basis_untwisted(series, basis, scale=1):
    return series if basis == series.basis else hecke.GradedSeries(series.rd, series.par, series.height, dict(series.coeffs), basis)


def _manifest_with_run_counter():
    original, runs = cli._manifest, itertools.count()

    def manifest(args, argv, output):
        return f"{original(args, argv, output)} run {next(runs)}"

    return manifest


def _changed_at(fn, where, change):
    """fn with its value v replaced by change(v, q) where its leading arguments satisfy where; q is its last argument."""

    def mutant(*args):
        value = fn(*args)
        return change(value, args[-1]) if where(*args[:-1]) else value

    return mutant


# (check, its arguments, module, attribute, replacement): each mutant must make its criterion FAIL
MUTANTS = [
    pytest.param(
        acceptance.check_retraction, (("A2",), 20), cones, "langlands_retraction",
        lambda rd, lam: (cones.fvec(lam), frozenset()), id="4-retraction-returns-lam",
    ),
    pytest.param(
        acceptance.check_weyl_identities, (("A2",),), weylids, "parabolic_sign", _flip_sign_at([0]),
        id="8-parabolic-sign-flipped-at-J0",
    ),
    pytest.param(
        acceptance.check_local_roundtrip, (5,), intertwine, "apply_R_inverse_K", _inverse_twist_one_power_off,
        id="7-inverse-twist-one-power-off",
    ),
    pytest.param(
        acceptance.check_local_roundtrip, (5,), hecke.GradedSeries, "to_basis", _to_basis_untwisted,
        id="7-to-basis-drops-twist",
    ),
    pytest.param(
        acceptance.check_global_adjunction, (5,), globalsl2, "t_weight",
        _changed_at(globalsl2.t_weight, lambda d: True, lambda w, qv: qv * w), id="9a-t-weight-times-q",
    ),
    pytest.param(
        acceptance.check_global_roundtrip, (), globalsl2, "nu_hat",
        _changed_at(globalsl2.nu_hat, lambda m: m == 1, lambda c, qv: c + 1), id="9b-nu-hat-1-plus-1",
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
    monkeypatch.setattr(module, attr, mutant)
    result = check(*args)
    assert not result.passed, result.line()
