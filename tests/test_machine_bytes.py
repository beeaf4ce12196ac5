"""The bytes of `--machine` stdout, pinned by SHA-256.

Refactors are meant to leave every verdict and every `--machine` byte as it
was; this module turns that check into a test.  Each call is run in process
and its exit code and the SHA-256 of its stdout are compared with the
recorded values.  A change of output that is intended updates the digest
here and says why in the list below.

Intended changes recorded in these digests, relative to the previous ones:

* `classify` prints the shears of its preparation as ``preparation``, for
  example ``["y -> y - 7*z"]`` for ``x^2 + (y + 7*z)^3 + z^5``, whose
  witness centre lives in the prepared coordinates;
* `select-centre` prints the shears applied before each centre as
  ``coordinate_change`` (``[]`` when there are none);
* the sheared Whitney umbrella ``x^2 - (y + z)^2*z`` is straightened by
  ``y -> y - z`` and exits 0 with the centre ``x:1 y:1 z:inf`` instead of
  being refused (exit 3);
* the plane-curve preparation of the degree-12 cone exposes ``x^12`` with
  ``y -> y + 4*x`` instead of reporting a failed preparation;
* when both pure powers of the multiplicity occur, the plane-curve
  preparation shifts the variable of degree d: ``(y + x)^2 - x^5`` has the
  invariant (2,5), not (2,2), and `resolve-curve` resolves it with one
  blowup instead of failing an assertion;
* ``invariant`` on ``(y + x)^2 + x^3*y^3`` and ``(y + x)^2*(1 + y) - x^5``
  reports ``"exact":false``: neither germ is of the form c*u^2 + b(v) after
  preparation, so (2,2) is only the monomial lower bound; ``resolve-curve``
  on them is refused (exit 3, empty stdout) where the invariant fails to
  drop, instead of dying with an uncaught ``AssertionError``;
* ``resolve-curve`` on ``(y^2 - 3*x^3)*(y^3 - 5*x^5)`` exits 0 with a
  complete tree instead of 3: a blowup chart is searched for singular
  points only on its exceptional divisor, so the irrational points at
  y = +-sqrt(3) off it no longer make the origin's charts indeterminate,
  and the notes on singular points copied from a sibling branch are gone;
* ``classify x*y`` prints ``"preparation":[]`` instead of
  ``["x -> x + y","y -> -1/2*x + y"]``: a quadratic form with no square is
  diagonalised by a hyperbolic pivot, which leaves c*v*w as it is, not by
  turning v*w into a square;
* ``classify x^2 + y^2*z + z^15`` prints ``D16`` with ``"milnor":16`` and
  exits 0 instead of ``other``, ``"indeterminate"`` and 3: its leading term
  at the class centre x:2 y:15/7 z:15 is the normal form, which certifies
  mu = 16 (a semi-quasi-homogeneous germ) without the local algebra, whose
  degree bound 12 runs out.  ``milnor`` keeps the local algebra as its
  only route, so ``milnor x^2 + y^2 + z^20`` stays ``indeterminate``
  while ``classify`` certifies A19;
* `invariant` prints the plane-curve preparation as the steps of its
  ``CoordinateChange``, ``name -> <image>`` as `classify` does, and
  `resolve-curve` notes them so on the chart of the singular point:
  ``(y + x^2)^2 - x^5`` prints ``["y -> -x^2 + y"]`` instead of
  ``["shift y -> y - (2*x^2)/2"]``; ``x*y`` ``["y -> x + y","x -> x -
  1/2*y"]`` instead of ``["shear y -> y + 1*x","shift x -> x - (y)/2"]``;
  the degree-12 cone ``["y -> 4*x + y","x -> x - 649421/2162160*y"]``
  instead of ``["shear y -> y + 4*x","shift x -> x -
  (163654092*y)/544864320"]``; and ``(y + x)^2 - x^5``, in `invariant`
  and in `resolve-curve`, ``["y -> -x + y"]`` instead of ``["shift y -> y
  - (2*x)/2"]``.

The call on ``y^2 - x^64`` pins an output that the integer elimination
kernel left unchanged.  The product above is searched by elimination on
its input chart only; its blowup charts need none.  The calls of `lt` (on a
polynomial, and on a bivector truncated by ``--cap``), `schouten`,
`jacobian --vars` and `blowup` without ``--slice`` pin outputs that no
change has altered; they are here so that the paths stay covered.  So do
the calls of `select-centre` on f*J(f) for A2, E6 and D6, whose bivector
zero is certified non-isolated by the divisibility of every coefficient
by f.
"""

import hashlib

import pytest

from wblow.cli import main

CORPUS_CALLS = [["corpus", name] for name in
                ("table-ade", "whitney", "lifting", "invariants", "curves", "triples")]

CONE_12 = ("x*y*(y - x)*(y + x)*(y - 2*x)*(y + 2*x)*(y - 3*x)*(y + 3*x)"
           "*(x - 2*y)*(x + 2*y)*(x - 3*y)*(x + 3*y)")
SHEARED_WHITNEY_SIGMA = ("(-y^2 - 4*y*z - 3*z^2)*@x^@y + (2*y*z + 2*z^2)*@x^@z"
                         " + 2*x*@y^@z")
# f*J(f) on A2, E6 and D6
F_TIMES_JACOBIAN = {
    "x^2 + y^2 + z^3": "(3*z^5 + 3*x^2*z^2 + 3*y^2*z^2)*@x^@y + (-2*y*z^3 - 2*x^2*y - 2*y^3)*@x^@z"
                       " + (2*x*z^3 + 2*x^3 + 2*x*y^2)*@y^@z",
    "x^2 + y^3 + z^4": "(4*z^7 + 4*y^3*z^3 + 4*x^2*z^3)*@x^@y + (-3*y^2*z^4 - 3*y^5 - 3*x^2*y^2)*@x^@z"
                       " + (2*x*z^4 + 2*x*y^3 + 2*x^3)*@y^@z",
    "x^2 + y^2*z + z^5": "(5*z^9 + 6*y^2*z^5 + 5*x^2*z^4 + y^4*z + x^2*y^2)*@x^@y"
                         " + (-2*y*z^6 - 2*y^3*z^2 - 2*x^2*y*z)*@x^@z"
                         " + (2*x*z^5 + 2*x*y^2*z + 2*x^3)*@y^@z",
}

COMMAND_CALLS = [
    ["classify", "x^2 + y^3 + y*z^3"],
    ["classify", "x^2 + (y + 7*z)^3 + z^5"],
    ["classify", "x^2 + (2*y + 3*z)^3 + z^5"],
    ["classify", "x^2 + (y + 7*z)^3 + z^4"],
    ["classify", "x^2 + (y + 7*z)^3 + (y + 7*z)*z^3"],
    ["classify", "x^2 - (y + z)^2*z"],
    ["classify", "(x + z^2)^2 + y^2 + z^10 + x^3"],
    ["classify", "x*y"],
    ["classify", "x^2 + y^3 + z^6"],
    ["classify", "x^2 + y^2*z + z^15"],
    ["classify", "x^2 + y^2 + z^20"],
    ["milnor", "x^2 - y^2*z"],
    ["milnor", "x^2 + y^3 + z^5"],
    ["milnor", "x^2 + y^2 + z^20"],
    ["invariant", "y^2 - x^3"],
    ["invariant", "(y + x^2)^2 - x^5"],
    ["invariant", "x*y"],
    ["invariant", "y^3 - x^5"],
    ["invariant", CONE_12],
    ["invariant", "x^2 - y^2*z"],
    ["invariant", "(y + x)^2 - x^5"],
    ["resolve-curve", "y^2 - x^3"],
    ["resolve-curve", "(y + x)^2 - x^5"],
    ["resolve-curve", "y^3 - x^5"],
    ["resolve-curve", "y^2 - (x^2 - 2)^2"],
    ["resolve-curve", "(y - x^2)*(y^3 - 2*x^4)"],
    ["invariant", "(y + x)^2 + x^3*y^3"],
    ["invariant", "(y + x)^2*(1 + y) - x^5"],
    ["resolve-curve", "(y + x)^2 + x^3*y^3"],
    ["resolve-curve", "(y + x)^2*(1 + y) - x^5"],
    ["resolve-curve", "(y^2 - 3*x^3)*(y^3 - 5*x^5)"],
    ["resolve-curve", "y^2 - x^64"],
    ["select-centre", "--sigma", "2*x*@y^@z - 2*y*z*@z^@x - y^2*@x^@y",
     "--surface", "x^2 - y^2*z"],
    ["select-centre", "--sigma", SHEARED_WHITNEY_SIGMA, "--surface", "x^2 - (y + z)^2*z"],
    ["select-centre", "--sigma", "2*z*@x^@y - 2*y*@x^@z + 2*x*@y^@z",
     "--surface", "x^2 + y^2 + z^2"],
    ["select-centre", "--sigma", "x*y*@x^@z", "--surface", "x*y"],
    ["select-centre", "--sigma", "(x + y^2 + z^2)*@y^@z",
     "--curve", "x + y^2 + z^2", "--curve", "y^3 - z^4"],
    ["select-centre", "--sigma", "x^2*@x^@y", "--curve", "x", "--curve", "y^2 - z^3"],
    ["select-centre", "--sigma", "x*@x^@y", "--curve", "x", "--curve", "y^2 - z^3"],
    ["select-centre", "--sigma", "2*x*@y^@z", "--curve", "x", "--curve", "y^2 - z^3"],
    *(["select-centre", "--sigma", sigma, "--surface", f]
      for f, sigma in F_TIMES_JACOBIAN.items()),
    ["lt", "--centre", "x:2 y:3 z:3", "x^2 - y^2*z + y^4"],
    ["lt", "--centre", "x:2 y:3 z:3", "--cap", "6", "2*x*@y^@z - y^2*@x^@y + z^7*@x^@z"],
    ["schouten", "x*@y^@z", "y*z*@x"],
    ["jacobian", "--vars", "u,v,w", "u^2 + v^3"],
    ["blowup", "--centre", "x:3 y:2", "y^2 - x^3"],
]

# argv after --machine: (exit code, SHA-256 of stdout)
EXPECTED = {
    ("corpus", "table-ade"):
        (0, "cba82607599015409b21a67021c0466961af6a7ca9b6229236755cd97d0539c8"),
    ("corpus", "whitney"):
        (0, "c8679cccaf0b918aafd5e5770bc1f9af485f67c6dbc104842412027acb9fbfee"),
    ("corpus", "lifting"):
        (0, "2517b206c6683a336c2e1cd347b9fd0b17fb8d1ac42785f499cd7e5d5453b1c3"),
    ("corpus", "invariants"):
        (0, "9942e432953b8d481e22b439e9e1be4e80e5d3a220745580a12a1879f1e7f378"),
    ("corpus", "curves"):
        (0, "2ee481827500fd5a8847e143615882c846ff201aac5e3b172a673c4008524634"),
    ("corpus", "triples"):
        (0, "70784f889f33b0354883317b4501514e16c91097ada8a2d8c8cc127b3c121830"),
    ("classify", "x^2 + y^3 + y*z^3"):
        (0, "bd44eb4c0ebeb1d245711d52f5b1541da66000fa8efb221bde1e9aede581a706"),
    ("classify", "x^2 + (y + 7*z)^3 + z^5"):
        (0, "e199cc3e70eabe22307ce4a30e10f2c26546a9c70c6ea56ec067401cf5d66849"),
    ("classify", "x^2 + (2*y + 3*z)^3 + z^5"):
        (0, "0022d6498cb721b030b6ad89ac7dbac4c9b814cdced016c14fdc8562abf56547"),
    ("classify", "x^2 + (y + 7*z)^3 + z^4"):
        (0, "bfbb8a854a02916eb3a5d11e949c323109f9d5da9de8d7bad245de46be5d89cd"),
    ("classify", "x^2 + (y + 7*z)^3 + (y + 7*z)*z^3"):
        (0, "05080cdafd45c2c55f0c7e453eca9f6c528bf6f1cfef9fa1d5533318c3578fca"),
    ("classify", "x^2 - (y + z)^2*z"):
        (0, "a3edeebcb47ef7b8a7fe3db893bdc3e2b7c8a412498bd1bb6de4529fba414581"),
    ("classify", "(x + z^2)^2 + y^2 + z^10 + x^3"):
        (0, "86bd852ad7f830d31f1bd6f37bca5d4075ada2fdb5d3c3dcc257386beb6387c1"),
    ("classify", "x*y"):
        (0, "fa483352f6061a11383f03cf9ad26ead258f92f000f3b554f9ee76d35ed917e5"),
    ("classify", "x^2 + y^3 + z^6"):
        (1, "8d90dd1460934e25794affc8de4cd7accf08a907b6da2269781e7f1f6f8a0e02"),
    ("classify", "x^2 + y^2*z + z^15"):
        (0, "42aec7fa2ff26cd1f5c7fb566ae341acc35a7b69198ae15de96b404227643117"),
    ("classify", "x^2 + y^2 + z^20"):
        (0, "e5a0040252e2239f83a53b95aee8bf83750af57784b03ebbf18ef9381a0c9987"),
    ("milnor", "x^2 - y^2*z"):
        (1, "c29a1b6495331eba209210b21c80f03809d1b0eba981faf6d957b327de93f097"),
    ("milnor", "x^2 + y^3 + z^5"):
        (0, "3d6ecc8cafb8004f4c3ef54973122fe0112855c44784be527f17aa56e83a08e0"),
    ("milnor", "x^2 + y^2 + z^20"):
        (3, "abe7405f6864de208b84df03b432bb11dd03531c5799a8574baf39bbffe968a0"),
    ("invariant", "y^2 - x^3"):
        (0, "4cd47bbb50f7aecac0c3bd3590c8140e80556237b89baeda9df066857fa42fca"),
    ("invariant", "(y + x^2)^2 - x^5"):
        (0, "edfb81d42c25a09b249c3c1fab498bde2706e1720c9cc605c43ce3cc6b9087cb"),
    ("invariant", "x*y"):
        (0, "b1fbe683b720d1488582326daf45a12e30a38e45400dec5a3d94d99f99ac6191"),
    ("invariant", "y^3 - x^5"):
        (0, "3e11e91a63f26cdd8d9092f8e397355cdabaaf540cce1945a50f1fb332cb3402"),
    ("invariant", CONE_12):
        (0, "28ca4950d51555e32bfa94726f09493f57fd4b5be2a163eadf3fe253b198842e"),
    ("invariant", "x^2 - y^2*z"):
        (0, "3a28d00fff44f4629d1ff9d84ee9a4d43628de58bc86e248116956c4a8dcacfb"),
    ("invariant", "(y + x)^2 - x^5"):
        (0, "e1efaedc9d823555c3cb794541fe690ba1fea2d3ef2a0327ba84b7e2b3b62812"),
    ("resolve-curve", "y^2 - x^3"):
        (0, "38d10827189edd11e43d847238eccef1df1108411f9ddfd93333d3b9251a1257"),
    ("resolve-curve", "(y + x)^2 - x^5"):
        (0, "f8241aaf016ca97012c749c2a2af5fa49fcff39c2f41a220643aa4f1875965ae"),
    ("resolve-curve", "y^3 - x^5"):
        (0, "4d5a60894944c4d3a39f38bcafaf8c0de89693e80ccec1a9afced4f59e94fe41"),
    ("resolve-curve", "y^2 - (x^2 - 2)^2"):
        (3, "fc612f0ac3930b2d4a9465d8051d934df6fd341fb63eca239ddd6f88a3f92977"),
    ("resolve-curve", "(y - x^2)*(y^3 - 2*x^4)"):
        (3, "7d4cefc33ae9b445e1a87a35561146e383b84dead369894f1c06eb2e7fd0cb02"),
    ("invariant", "(y + x)^2 + x^3*y^3"):
        (0, "1bd758bf7dcee33cae5d11eb9c429e3a29d45fdeb529739a1d2f21c4b8f414ba"),
    ("invariant", "(y + x)^2*(1 + y) - x^5"):
        (0, "1bd758bf7dcee33cae5d11eb9c429e3a29d45fdeb529739a1d2f21c4b8f414ba"),
    ("resolve-curve", "(y + x)^2 + x^3*y^3"):
        (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("resolve-curve", "(y + x)^2*(1 + y) - x^5"):
        (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("resolve-curve", "(y^2 - 3*x^3)*(y^3 - 5*x^5)"):
        (0, "1aa196d86a143b78cdaba88a24a1643a0e45b14b96b1dda54748a1d6463d62b3"),
    ("resolve-curve", "y^2 - x^64"):
        (0, "0e50dad4e6b900d5496ed03f86c12ad126141372f60af7efee8278ee0134bc53"),
    ("select-centre", "--sigma", "2*x*@y^@z - 2*y*z*@z^@x - y^2*@x^@y", "--surface",
     "x^2 - y^2*z"):
        (0, "21baef6e9b54b7e641097e9b4c89ed7b391ae470236029c4db95e2df1deea28a"),
    ("select-centre", "--sigma", SHEARED_WHITNEY_SIGMA, "--surface", "x^2 - (y + z)^2*z"):
        (0, "4be0885ad99cf47b9918e8a0dfaad3b2a49a30796d877e071eb643274af97b61"),
    ("select-centre", "--sigma", "2*z*@x^@y - 2*y*@x^@z + 2*x*@y^@z", "--surface",
     "x^2 + y^2 + z^2"):
        (0, "afac5c288f0d778817c76101380658bcf73760177f015329d3c0a025ec0a0bb7"),
    ("select-centre", "--sigma", "x*y*@x^@z", "--surface", "x*y"):
        (0, "853ef06d400841cb4c5f8e9a7ba2988e2e76bf4c0fdfc8852278ec20a78a15c5"),
    ("select-centre", "--sigma", "(x + y^2 + z^2)*@y^@z", "--curve", "x + y^2 + z^2",
     "--curve", "y^3 - z^4"):
        (0, "c0e877f5c10812d5b109f5d0e74fbe2f95eb6c5437405bb87e37e63a9e62b785"),
    ("select-centre", "--sigma", "x^2*@x^@y", "--curve", "x", "--curve", "y^2 - z^3"):
        (0, "a4713818ccf2470e0b85aac57e6499a8fd752ba4dbf69d6ab067dc24cec2c90d"),
    ("select-centre", "--sigma", "x*@x^@y", "--curve", "x", "--curve", "y^2 - z^3"):
        (0, "de380b947aecbe810e93e3e71dde481a84007714b3b228271adc5ed8c46583c4"),
    ("select-centre", "--sigma", "2*x*@y^@z", "--curve", "x", "--curve", "y^2 - z^3"):
        (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("select-centre", "--sigma", F_TIMES_JACOBIAN["x^2 + y^2 + z^3"], "--surface",
     "x^2 + y^2 + z^3"):
        (0, "9d74501acbbf7636eeaab80d5f7bb13b4db81783a3fc9437b59d3adf6d941a55"),
    ("select-centre", "--sigma", F_TIMES_JACOBIAN["x^2 + y^3 + z^4"], "--surface",
     "x^2 + y^3 + z^4"):
        (0, "b8e83d4b5ce5287b25b03c087b3b9ac67bdd293328750843d8b4c814b20c6c9c"),
    ("select-centre", "--sigma", F_TIMES_JACOBIAN["x^2 + y^2*z + z^5"], "--surface",
     "x^2 + y^2*z + z^5"):
        (0, "daa10226ef0dcc4f468bd8f2bf66696603d2e657e9b6e78672892e8a81bd01ac"),
    ("lt", "--centre", "x:2 y:3 z:3", "x^2 - y^2*z + y^4"):
        (0, "29716b1bd4aa35da2999d7c82f1c100ef444d0d31616dc5b6c87c0878a15fbc0"),
    ("lt", "--centre", "x:2 y:3 z:3", "--cap", "6", "2*x*@y^@z - y^2*@x^@y + z^7*@x^@z"):
        (0, "0ec31ad09587789c518379f395239b0f6d5845c04696a54daeae86ec6077c520"),
    ("schouten", "x*@y^@z", "y*z*@x"):
        (0, "4073c6f09a8be41c08c4bcee644ba7bcc4bdbb20bc37cb88009df86c1f379535"),
    ("jacobian", "--vars", "u,v,w", "u^2 + v^3"):
        (0, "f9f85b2863b5ef015cf5bbed6a9604c09bae102b784bb3ac1dac8a5f09bb2f74"),
    ("blowup", "--centre", "x:3 y:2", "y^2 - x^3"):
        (0, "eb727662f3da3c7cda66e0d55a62e0b21283624c780ebedaf4eedfb0ea89e115"),
}



@pytest.mark.parametrize("argv", CORPUS_CALLS + COMMAND_CALLS, ids=" ".join)
def test_machine_bytes(capsys, argv):
    code = main(["--machine", *argv])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == EXPECTED[tuple(argv)]
