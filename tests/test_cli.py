"""Command-line interface: examples, exit codes, machine output."""

import argparse
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from wblow import cli
from wblow.centre import parse_centre
from wblow.invariant import max_monomial_centre
from wblow.polyvector import CoordinateChange
from wblow.ring import Poly, parse_poly
from wblow.cli import MAX_COEFFICIENTS, MAX_DEGREE_BOUND, MAX_RESOLVE_STEPS, main

from conftest import V3, random_poly
from test_functoriality import CURVE_TRIPLES
from test_machine_bytes import COMMAND_CALLS

ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_order_example(capsys):
    code, out, _ = run(capsys, "order", "--centre", "x:2 y:3 z:inf",
                       "x^5 + x^2*y^4*z^5")
    assert code == 0 and out.strip() == "7/3"


def test_check_centre_conilpotent(capsys):
    code, out, _ = run(capsys, "check-centre", "--centre", "x:1 y:1 z:inf",
                       "--sigma", "2*x*@y^@z - 2*y*z*@z^@x - y^2*@x^@y")
    assert code == 0
    assert "conilpotent: True" in out


def test_check_centre_negative_verdict(capsys):
    code, out, _ = run(capsys, "check-centre", "--centre", "x:2 y:3 z:3",
                       "--sigma", "2*x*@y^@z - 2*y*z*@z^@x - y^2*@x^@y")
    assert code == 1
    assert "codegenerate: False" in out


@pytest.mark.parametrize("text, label", [
    ("x^2 + (y + 7*z)^3 + z^5", "E8"),
    ("x^2 + (2*y + 3*z)^3 + z^5", "E8"),
    ("x^2 + (y + 7*z)^3 + z^4", "E6"),
    ("x^2 + (y + 7*z)^3 + (y + 7*z)*z^3", "E7"),
])
def test_classify_off_catalogue_e_germs(capsys, text, label):
    # E-type germs under a linear change outside the integer shears -3..3
    code, out, _ = run(capsys, "--machine", "classify", text)
    assert code == 0
    assert json.loads(out)["class"] == label


def test_classify_example(capsys):
    code, out, _ = run(capsys, "classify", "x^2 + y^3 + y*z^3")
    assert code == 0
    assert out.strip() == "E7 invariant=(2,3,9/2)"


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "order", "--centre", "x:2 y:3", "2x")
    assert code == 2
    assert "implicit multiplication" in err


@pytest.mark.parametrize("argv", [
    ("blowup", "--centre", "x:1 y:1", "--cap", "2", "x + y^2"),
    ("blowup", "--centre", "x:1/5 y:1", "--cap", "7", "y^4 + x"),
    ("blowup", "--centre", "x:1 y:1", "--cap", "2", "x*@x"),
    ("blowup", "--centre", "x:1 y:1", "--cap", "2", "y^2*@x + x*@y"),
    ("validate-invariant", "1/0"),
    ("order", "--centre", "x:1/0 y:1", "x"),
    ("order", "--centre", "x:1 y:1 @ (1/0,0)", "x"),
    ("order", "--centre", "x:1 y:1", "1/0*x"),
    ("verify-normal-form", "split_log", "--lam", "1/0"),
    ("verify-normal-form", "heisenberg_pencil", "--f", "y", "--a-coefficients", "1/0"),
    ("verify-normal-form", "duval_family", "--family", "D", "--n", "2"),
    ("verify-normal-form", "duval_family", "--family", "A", "--n", "0"),
], ids=["cap cuts every lifted term", "cap cuts the lowest t-power",
        "cap cuts a polyvector", "cap cuts a two-term polyvector", "invariant 1/0",
        "centre exponent 1/0", "base point 1/0", "coefficient 1/0", "lam 1/0",
        "coefficient list 1/0", "D2", "A0"])
def test_bad_input_is_a_usage_error(capsys, argv):
    # exit 1 is a negative verdict with a witness, never a crash: each of
    # these once escaped main as an AssertionError or ZeroDivisionError
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:")


def _machine(capsys, *argv):
    code = main(["--machine", *argv])
    return code, json.loads(capsys.readouterr().out)


def _replayed(steps, f):
    """The printed steps ``name -> image`` rebuilt as a CoordinateChange
    and applied to f."""
    pairs = [step.split(" -> ") for step in steps]
    return CoordinateChange(tuple((name, parse_poly(image, f.variables))
                                  for name, image in pairs))(f)


PINNED_CURVES = [argv[1] for argv in COMMAND_CALLS
                 if argv[0] == "invariant" and "z" not in argv[1]]
PINNED_GERMS = [argv[1] for argv in COMMAND_CALLS if argv[0] == "classify"]


def _random_curves(count: int):
    rng = random.Random(20261020)
    curves = []
    while len(curves) < count:
        f = random_poly(rng, ("x", "y"), max_degree=5, max_terms=5)
        f = Poly(("x", "y"), {e: c for e, c in f.terms.items() if sum(e) >= 2})
        if f.is_zero():
            continue
        # hide the pure powers under a shear in half of the draws
        if rng.random() < 0.5:
            f = CoordinateChange.shear("y", Poly.var(("x", "y"), "x").scale(
                rng.choice((1, -1, 2, -3))))(f)
        curves.append(str(f))
    return curves


def test_printed_curve_preparations_replay(capsys):
    prepared = 0
    for text in PINNED_CURVES + _random_curves(40):
        code, report = _machine(capsys, "invariant", "--vars", "x,y", "--", text)
        assert code == 0, text
        f = parse_poly(text, ("x", "y"))
        replayed = _replayed(report["preparation"], f)
        assert str(max_monomial_centre(replayed).invariant) == report["invariant"], text
        prepared += bool(report["preparation"])
    assert prepared >= 10


def test_printed_classify_preparations_replay(capsys):
    witnessed = 0
    for text in PINNED_GERMS:
        _, report = _machine(capsys, "classify", text)
        if report["witness_centre"] is None:
            continue
        replayed = _replayed(report["preparation"], parse_poly(text, V3))
        assert parse_centre(report["witness_centre"]).ord_poly(replayed) == 1, text
        witnessed += 1
    assert witnessed >= 8


@pytest.mark.parametrize("argv", [
    ("classify", "x^99999999999 + y^2"),
    ("classify", "z^2 + (x + y)^99"),
    ("classify", "(x + y + z)^64"),
    ("classify", "x^2 + (x + y + z)^20*(x + y + z)^20"),
    ("milnor", "--bound", str(MAX_DEGREE_BOUND + 1), "x^2 + y^2 + z^2"),
    ("milnor", "--bound", "99999999999", "x^2 + y^2 + z^2"),
    ("resolve-curve", "--max-steps", str(MAX_RESOLVE_STEPS + 1), "y^2 - x^3"),
    ("resolve-curve", "--max-steps", "-1", "y^2 - x^3"),
], ids=["huge exponent", "exponent 99", "term count of a power",
        "term count of a product", "bound", "huge bound", "steps", "negative steps"])
def test_input_limits_refused_quickly(capsys, argv):
    start = time.perf_counter()
    code, _, _ = run(capsys, *argv)
    assert code == 2
    assert time.perf_counter() - start < 1.0


LONG_PENCIL = "y^2 + y*z + z^2 + y^3 + z^3 + y^2*z + y*z^2 + y^4 + z^4"


def _coefficients(count: int) -> str:
    return ",".join(str(k) for k in range(count))


@pytest.mark.parametrize("argv", [
    ("heisenberg_pencil", "--f", "y^2 + z^3 + y*z",
     "--b-coefficients", _coefficients(MAX_COEFFICIENTS + 1)),
    ("heisenberg_pencil", "--f", "y^2 + z^3 + y*z",
     "--a-coefficients", _coefficients(MAX_COEFFICIENTS + 1)),
    ("whitney_family", "--a-coefficients", _coefficients(80)),
    ("heisenberg_pencil", "--f", LONG_PENCIL,
     "--b-coefficients", _coefficients(MAX_COEFFICIENTS)),
], ids=["b list", "a list", "long a list", "series of a long pencil"])
def test_normal_form_series_refused_quickly(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, "verify-normal-form", *argv)
    assert code == 2 and out == ""
    assert "exceed" in err
    assert time.perf_counter() - start < 1.0


def test_normal_form_series_at_the_limit_accepted(capsys):
    code, out, _ = run(capsys, "verify-normal-form", "heisenberg_pencil",
                       "--f", "y^2 + z^3 + y*z",
                       "--a-coefficients", _coefficients(MAX_COEFFICIENTS),
                       "--b-coefficients", _coefficients(MAX_COEFFICIENTS))
    assert code == 0 and "verified: True" in out


def test_input_limits_accepted():
    assert main(["milnor", "--bound", str(MAX_DEGREE_BOUND), "x^2 + y^2 + z^2"]) == 0
    assert main(["resolve-curve", "--max-steps", "0", "y^2 - x^3"]) == 3


def test_usage_error_exit_code(capsys):
    assert main(["no-such-command"]) == 2


def test_negative_verdicts():
    assert main(["validate-invariant", "2,3,11/2"]) == 1
    assert main(["milnor", "x^2 - y^2*z"]) == 1
    assert main(["lift", "--centre", "x:2 y:3 z:3", "--sigma", "@x^@y^@z"]) == 1


def test_validate_invariant_out_of_budget_exits_3(capsys):
    # the sums of 1/2 and n/1000003 number about a million: not checked
    start = time.perf_counter()
    code, out, _ = run(capsys, "--machine", "validate-invariant", "2,1000003,1000033")
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert json.loads(out) == {"command": "validate-invariant",
                               "entries": "2,1000003,1000033",
                               "status": "unchecked", "witness": None}


# A15 and D16 moved by x -> x + y^2 + z^2 + y*z, then y -> y + z^2: one
# square completion leaves y*z^2 at the centre x:2 y:2 z:4 of the pure power
# z^4, so classify reaches the local algebra, which exhausts its bound
MOVED_A15 = "(x + (y + z^2)^2 + z^2 + (y + z^2)*z)^2 + (y + z^2)^2 + z^16"
MOVED_D16 = "(x + (y + z^2)^2 + z^2 + (y + z^2)*z)^2 + (y + z^2)^2*z + z^15"


def test_indeterminate_exit_code(capsys):
    code, _, _ = run(capsys, "resolve-curve", "y^2 - (x^2 - 2)^2")
    assert code == 3
    # an exhausted Milnor degree bound is no negative verdict
    for germ in ("x^2 + y^2 + z^20", "x^2 + y^2*z + z^15", MOVED_A15, MOVED_D16):
        code, out, _ = run(capsys, "--machine", "milnor", germ)
        assert code == 3 and json.loads(out)["milnor"] == "indeterminate"
    for germ in (MOVED_A15, MOVED_D16):
        code, out, _ = run(capsys, "classify", germ)
        assert code == 3 and out.startswith("other")


def test_classify_certifies_mu_where_milnor_is_indeterminate(capsys):
    # the principal part of the normal form certifies mu without the local
    # algebra; `milnor` keeps the local algebra as its only route
    for germ, label, mu in (("x^2 + y^2 + z^20", "A19", 19), ("x^2 + y^2*z + z^15", "D16", 16)):
        code, out, _ = run(capsys, "--machine", "classify", germ)
        report = json.loads(out)
        assert code == 0 and (report["class"], report["milnor"]) == (label, mu)


def test_machine_output_is_deterministic_and_reparses(capsys):
    argv = ["--machine", "check-centre", "--centre", "x:2 y:3 z:3",
            "--sigma", "2*x*@y^@z - 2*y*z*@z^@x - y^2*@x^@y"]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert out1 == out2  # byte-deterministic
    document = json.loads(out1)
    assert document["poisson"] is True and document["codegenerate"] is False
    assert document["order"] == "-1/6"
    cd2 = [w for w in document["witnesses"] if w["tag"] == "CD2"]
    assert cd2 and cd2[0]["required"] == "7/6"


def test_machine_round_trip_values(capsys):
    from fractions import Fraction
    from wblow.ring import parse_poly, parse_ext
    from wblow.polyvector import parse_polyvector
    code, out, _ = run(capsys, "--machine", "blowup", "--centre", "x:1 y:1 z:inf",
                       "2*x*@y^@z - 2*y*z*@z^@x - y^2*@x^@y")
    document = json.loads(out)
    variables = tuple(document["variables"])
    reparsed = parse_polyvector(document["proper_part"], variables)
    assert not reparsed.is_zero()
    assert document["min_t_exponent"] == 0
    code, out, _ = run(capsys, "--machine", "order", "--centre", "x:2 y:3 z:inf",
                       "x^5")
    assert parse_ext(json.loads(out)["order"]) == Fraction(5, 2)


def test_resolve_curve_cli(capsys):
    code, out, _ = run(capsys, "resolve-curve", "y^2 - x^3")
    assert code == 0
    assert "complete: True" in out


@pytest.mark.parametrize("text, child", [("(y + x)^2 + x^3*y^3", "2,4"),
                                         ("(y + x)^2*(1 + y) - x^5", "2,3")])
def test_resolve_curve_refuses_an_invariant_that_does_not_drop(capsys, text, child):
    code, out, _ = run(capsys, "--machine", "invariant", text)
    assert code == 0
    assert json.loads(out)["exact"] is False and json.loads(out)["invariant"] == "2,2"
    code, out, err = run(capsys, "--machine", "resolve-curve", text)
    assert code == 3 and out == ""
    assert err.startswith("refused: chart r/0:x: ")
    assert f"({child})" in err and "(2,2)" in err


@pytest.mark.parametrize("c1", (3, 5, 7))
@pytest.mark.parametrize("c2", (3, 5, 7))
def test_resolve_curve_two_branch_product_ends_quickly(capsys, c1, c2):
    # the x-chart of the origin's blowup factors as (y^2 - c1)*(y^3 - c2*t):
    # its singular points at y = +-sqrt(c1), the images of the branch
    # crossing off the origin, are not rational but lie off the exceptional
    # divisor, the only place a blowup chart is searched
    start = time.perf_counter()
    code, out, err = run(capsys, "--machine", "resolve-curve",
                         f"(y^2 - {c1}*x^3)*(y^3 - {c2}*x^5)")
    assert time.perf_counter() - start < 1.0
    assert code == 0 and err == ""
    assert json.loads(out)["complete"] is True
    assert "not certified" not in out


def test_resolve_curve_high_power_ends_quickly(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, "--machine", "resolve-curve", "y^2 - x^64")
    assert time.perf_counter() - start < 2.0
    assert code == 0 and json.loads(out)["complete"] is True


def test_select_centre_cli(capsys):
    code, out, _ = run(capsys, "select-centre",
                       "--sigma", "2*x*@y^@z - 2*y*z*@z^@x - y^2*@x^@y",
                       "--surface", "x^2 - y^2*z")
    assert code == 0
    assert "inv_233_surface" in out and "x:1 y:1 z:inf" in out


@pytest.mark.parametrize("argv", [
    ("check-centre", "--centre", "x:1 y:2 z:3"),
    ("check-centre", "--centre", "x:1 y:2 z:3", "--cap", "4"),
    ("select-centre", "--surface", "x^2 + y^2 + z^3"),
    ("select-centre", "--curve", "x", "--curve", "y"),
])
@pytest.mark.parametrize("machine", [(), ("--machine",)])
def test_zero_bivector_written_as_zero(capsys, argv, machine):
    # "0" parses as a function; as --sigma it is the zero bivector, whatever
    # the degree its spelling records
    outputs = {sigma: run(capsys, *machine, *argv, "--sigma", sigma)
               for sigma in ("0", "0*@x^@y", "0*@z")}
    assert outputs["0"] == outputs["0*@x^@y"] == outputs["0*@z"]
    assert outputs["0"][0] == 0 and not outputs["0"][2]


def test_select_centre_refusal_exit(capsys):
    # refused at the tangency check: the bivector is not tangent to the curve
    code, _, err = run(capsys, "select-centre",
                       "--sigma", "x*@y^@z + y*@x^@z",
                       "--curve", "x", "--curve", "y^2 - z^3")
    assert code == 3
    assert "refused" in err


def test_select_centre_heisenberg_refusal_exit(capsys):
    # tangent, but not in the Heisenberg normal form (x + A) @y^@z + ...
    code, _, err = run(capsys, "select-centre", "--sigma", "2*x*@y^@z",
                       "--curve", "x", "--curve", "y^2 - z^3")
    assert code == 3
    assert "Heisenberg slot has coefficient 2" in err


def test_select_centre_surface_tangency_refusal_exit(capsys):
    # the one tangency test of a surface triple is the Du Val detector's
    code, _, err = run(capsys, "select-centre", "--sigma", "@x^@y", "--surface", "x^2 + y^2 + z^2")
    assert code == 3
    assert err.strip() == "refused: bivector is not tangent to the surface"


def test_select_centre_moved_curve_triples_never_exit_2(capsys):
    # Heisenberg triples with a curve and a surface vanishing locus and an
    # abelian point, under 20 seeded pairs of shears v -> v + c*w^k, c in
    # +-1, +-2 and k in 1, 2: a valid triple the selection cannot handle is
    # refused (exit 3), never a usage error; the abelian point is selected
    # in every move
    rng = random.Random(5)
    moves = []
    for _ in range(20):
        move = CoordinateChange(())
        for _ in range(2):
            v, w = rng.sample(V3, 2)
            move += CoordinateChange.shear(v, (Poly.var(V3, w) ** rng.choice((1, 2))).scale(
                rng.choice((1, -1, 2, -2))))
        moves.append(move)
    codes = []
    for _, (sigma, generators) in CURVE_TRIPLES:
        for move in moves:
            curves = [a for g in generators for a in ("--curve", str(move(parse_poly(g, V3))))]
            code, _, err = run(capsys, "select-centre", "--sigma", str(move(sigma)), *curves)
            assert code in (0, 3), (str(move), err)
            codes.append(code)
    assert codes[40:] == [0] * 20


@pytest.mark.parametrize("surface", [MOVED_A15, "x^2 - (y + z^2)^2*z"],
                         ids=["A15 moved", "Whitney umbrella on a parabola"])
def test_select_centre_indeterminate_duval_verdict_exits_3(capsys, surface):
    # isolatedness of J(f) is indeterminate at the default bound and the
    # associated centre fails its certificate: no witness for exit 1
    code, out, _ = run(capsys, "jacobian", surface)
    assert code == 0
    code, out, err = run(capsys, "select-centre", "--sigma", out.strip(), "--surface", surface)
    assert code == 3 and out == ""
    assert err.startswith("refused: Du Val verdict indeterminate")


def test_select_centre_terminal_prints_no_verdict(capsys):
    # the A1 triple is a Du Val point: terminal, no centre was certified
    code, out, _ = run(capsys, "--machine", "select-centre",
                       "--sigma", "2*z*@x^@y - 2*y*@x^@z + 2*x*@y^@z",
                       "--surface", "x^2 + y^2 + z^2")
    assert code == 0
    selection = json.loads(out)["selections"][0]
    assert selection["case"] == "terminal_duval"
    assert selection["centre"] is None and selection["conilpotent"] is None
    assert '"conilpotent":null' in out


def test_select_centre_sheared_whitney_straightened(capsys):
    # the singular line x = 0, y = -z is moved onto the z-axis by y -> y - z
    code, out, _ = run(capsys, "--machine", "select-centre",
                       "--sigma", "(-y^2 - 4*y*z - 3*z^2)*@x^@y"
                                  " + (2*y*z + 2*z^2)*@x^@z + 2*x*@y^@z",
                       "--surface", "x^2 - (y + z)^2*z")
    assert code == 0
    [selection] = json.loads(out)["selections"]
    assert selection["case"] == "inv_233_surface"
    assert selection["centre"] == "x:1 y:1 z:inf"
    assert selection["conilpotent"] is True
    assert selection["coordinate_change"] == ["y -> y - z"]


def test_select_centre_prints_coordinate_change(capsys):
    # x:1 y:3 z:3 lives in the coordinates where x + y^2 + z^2 is x
    argv = ["select-centre", "--sigma", "(x + y^2 + z^2)*@y^@z",
            "--curve", "x + y^2 + z^2", "--curve", "y^3 - z^4"]
    code, out, _ = run(capsys, "--machine", *argv)
    assert code == 0
    [selection] = json.loads(out)["selections"]
    assert selection["centre"] == "x:1 y:3 z:3"
    assert selection["coordinate_change"] == ["x -> -y^2 - z^2 + x"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.strip() == ("heis_surface_vanishing: centre[x:1 y:3 z:3]  conilpotent=True"
                           "  coordinate_change: x -> -y^2 - z^2 + x")
    # no shear: an empty list, and nothing in human mode
    argv = ["select-centre", "--sigma", "x^2*@x^@y", "--curve", "x", "--curve", "y"]
    code, out, _ = run(capsys, "--machine", *argv)
    assert all(s["coordinate_change"] == [] for s in json.loads(out)["selections"])
    code, out, _ = run(capsys, *argv)
    assert "coordinate_change" not in out


def test_classify_prints_preparation(capsys):
    # the witness x:2 y:3 z:5 is a centre in the coordinates after y -> y - 7*z
    code, out, _ = run(capsys, "--machine", "classify", "x^2 + (y + 7*z)^3 + z^5")
    assert code == 0
    report = json.loads(out)
    assert report["witness_centre"] == "x:2 y:3 z:5"
    assert report["preparation"] == ["y -> y - 7*z"]
    code, out, _ = run(capsys, "classify", "x^2 + (y + 7*z)^3 + z^5")
    assert out.strip() == "E8 invariant=(2,3,5)  preparation: y -> y - 7*z"
    code, out, _ = run(capsys, "--machine", "classify", "x^2 + y^3 + z^5")
    assert json.loads(out)["preparation"] == []


def test_blowup_slice_chart_cli(capsys):
    code, out, _ = run(capsys, "blowup", "--centre", "x:3 y:2", "--slice", "x",
                       "y^2 - x^3")
    assert code == 0
    assert out.strip() == "y^2 - 1"


def test_blowup_slice_of_a_truncated_series_is_refused(capsys):
    # setting x = 1 in a series truncated at degree 6 would keep only y^2
    code, out, err = run(capsys, "blowup", "--centre", "x:1 y:2", "--slice", "x",
                         "--cap", "6", "y^2 - x^3")
    assert code == 2 and out == ""
    assert "constant term into a truncated polynomial" in err


def test_blowup_slice_of_a_polyvector_is_a_usage_error(capsys):
    # a strict transform is taken of a polynomial only
    code, out, err = run(capsys, "blowup", "--centre", "x:1 y:1", "--slice", "x", "x*@y")
    assert code == 2 and out == ""
    assert "--slice takes the strict transform of a polynomial" in err


@pytest.mark.parametrize("text, message", [
    ("2,inf,3", "entries must be weakly increasing: 2,inf,3"),
    ("inf,2", "entries must be weakly increasing: inf,2"),
    ("3,2", "entries must be weakly increasing: 3,2"),
    ("2,3,0", "entries must be positive: 2,3,0"),
    ("2,-1,3", "entries must be positive: 2,-1,3"),
])
def test_validate_invariant_rejects_malformed_sequences(capsys, text, message):
    # inf is the largest entry, and positivity is checked before the order
    code, out, err = run(capsys, "--machine", "validate-invariant", text)
    assert code == 2 and out == ""
    assert err.strip() == f"error: {message}"


def test_validate_invariant_accepts_trailing_infinities(capsys):
    code, out, _ = run(capsys, "--machine", "validate-invariant", "2,3,inf,inf")
    assert code == 0
    assert json.loads(out)["entries"] == "2,3,inf,inf"


def test_verify_duval_normal_form_cli(capsys):
    code, out, _ = run(capsys, "verify-normal-form", "duval_family",
                       "--family", "D", "--n", "4", "--unit", "1 + x")
    assert code == 0 and "verified: True" in out


def test_verify_normal_form_cli(capsys):
    code, out, _ = run(capsys, "verify-normal-form", "split_log",
                       "--k", "2", "--lam", "1", "--cap", "9")
    assert code == 0 and "verified: True" in out
    code, _, _ = run(capsys, "verify-normal-form", "split_log",
                     "--k", "3", "--cap", "4")
    assert code == 3  # cap too small: indeterminate, not failure


def test_corpus_commands(capsys):
    for name in ("whitney", "invariants", "curves", "triples"):
        code, out, _ = run(capsys, "corpus", name)
        assert code == 0, (name, out)
        assert "passed" in out


# --- the parser is built once per process ---------------------------------------

@pytest.fixture
def fresh_parser():
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


def test_parser_built_once_across_calls(monkeypatch, capsys, fresh_parser):
    built = []
    construct = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        if kwargs.get("prog") == "wblow":  # subparsers get "wblow <command>"
            built.append(self)
        construct(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run(capsys, "order", "--centre", "x:2 y:3 z:inf", "x^5")[0] == 0
    assert run(capsys, "resolve-curve", "y^2 - x^3")[0] == 0
    assert run(capsys, "classify", "x^2 + y^3 + z^5")[0] == 0
    assert run(capsys, "validate-invariant", "2,3,4")[0] == 0
    assert run(capsys, "order", "--bogus")[0] == 2
    assert len(built) == 1
    assert cli._parser.cache_info().currsize == 1


def test_import_builds_no_parser():
    code = "import wblow.cli; print(wblow.cli._parser.cache_info().currsize)"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "0"


def test_append_default_not_shared_between_calls(monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "_dispatch", lambda args: seen.append(args) or 0)
    assert main(["select-centre", "--sigma", "x*@y^@z",
                 "--curve", "x", "--curve", "y^2 - z^3"]) == 0
    assert main(["select-centre", "--sigma", "x*@y^@z", "--surface", "x^2 + y^2 + z^2"]) == 0
    assert seen[0].curve == ["x", "y^2 - z^3"]
    assert seen[1].curve == [] and seen[1].surface == "x^2 + y^2 + z^2"
    assert seen[0] is not seen[1]


def test_usage_error_after_success(capsys):
    assert run(capsys, "order", "--centre", "x:2 y:3 z:inf", "x^5")[0] == 0
    code, out, err = run(capsys, "order", "x^5")
    assert code == 2 and out == ""
    assert "--centre" in err
    assert run(capsys, "order", "--centre", "x:2 y:3 z:inf", "x^5")[0] == 0


@pytest.mark.parametrize("argv", [["--help"], ["resolve-curve", "--help"]],
                         ids=["top level", "subcommand"])
def test_help_is_stable(capsys, argv):
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first[0] == 0 and first[1].startswith("usage: wblow")
    assert second == first
