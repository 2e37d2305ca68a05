"""JSON round trips and the command-line surface with its exit-code contract."""

import io
import json
import os
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiortho import serialize
from semiortho.bilinear_form import BilinearLattice
from semiortho.cli import K0_CLASSIFY_MAX_N, K0_MAX_N, main
from semiortho.exact_linalg import IntMatrix, RatMatrix
from semiortho.markov import MarkovTriple, reduce_to_canonical
from semiortho.mutations import SonCollection
from semiortho.serialize import InputFormatError

LAT = '{"rank":3,"gram":[[1,3,3],[0,1,3],[0,0,1]]}'
COLL = ('{"ambient":{"rank":3,"gram":[[1,3,6],[0,1,3],[0,0,1]]},'
        '"vectors":[[1,0,0],[0,1,0],[0,0,1]]}')


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_number_encoding():
    assert serialize.encode_int(5) == 5
    big = 2 ** 60
    assert serialize.encode_int(big) == str(big)
    assert serialize.decode_int(str(big)) == big
    assert serialize.encode_number(Fraction(3, 2)) == "3/2"
    assert serialize.encode_number(Fraction(4, 2)) == 2
    assert serialize.decode_number("3/2") == Fraction(3, 2)
    for bad in (True, "x/y", 1.5, None):
        with pytest.raises(InputFormatError):
            serialize.decode_number(bad)


def test_matrix_round_trip():
    m = IntMatrix.from_rows([[1, 2 ** 60], [0, 1]])
    enc = serialize.encode_matrix(m)
    assert serialize.decode_int_matrix(enc).entries == m.entries
    r = RatMatrix.from_rows([[Fraction(1, 2), Fraction(3)]])
    assert serialize.decode_rat_matrix(serialize.encode_matrix(r)).entries == r.entries
    with pytest.raises(InputFormatError):
        serialize.decode_int_matrix([[1], [2, 3]])


def test_lattice_and_collection_round_trip():
    lat = BilinearLattice.from_rows([[1, 3], [0, 1]])
    assert serialize.decode_lattice(serialize.encode_lattice(lat)) == lat
    c = SonCollection.standard_basis(lat)
    assert serialize.decode_collection(serialize.encode_collection(c)) == c
    with pytest.raises(InputFormatError):
        serialize.decode_lattice({"rank": 5, "gram": [[1]]})
    with pytest.raises(InputFormatError):
        serialize.decode_lattice({"gram": [[2]]})


def test_trace_round_trip_structure():
    tr = reduce_to_canonical(MarkovTriple(3, 6, 15))
    enc = serialize.encode_trace(tr)
    assert enc["start"] == [3, 6, 15] and enc["end"] == [3, 3, 3]
    assert all(m["move"] in ("vieta", "sign_flip") for m in enc["moves"])


def test_cli_classify(capsys):
    code, out, _ = run(capsys, "classify", "--inline", LAT)
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == {"type": "type1", "n": 2, "epsilon": 1}
    code, _, err = run(capsys, "classify", "--inline", "{bad json")
    assert code == 1 and "error" in err
    code, _, err = run(capsys, "classify", "--inline", '{"gram":[[2]]}')
    assert code == 1


def test_cli_classify_decomposable(capsys):
    code, out, _ = run(capsys, "classify", "--inline",
                       '{"gram":[[1,0],[0,1]]}')
    assert code == 0
    assert json.loads(out)["verdict"]["type"] == "decomposable"


def test_cli_mutate(capsys):
    code, out, _ = run(capsys, "mutate", "--inline", COLL, "--word", "")
    assert code == 0
    assert json.loads(out)["gram"] == [[1, 3, 6], [0, 1, 3], [0, 0, 1]]
    code, out2, _ = run(capsys, "mutate", "--inline", COLL, "--word", "L1 R1")
    assert json.loads(out2)["collection"]["vectors"] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    # vector-level recomputation of the L1 example
    code, out3, _ = run(capsys, "mutate", "--inline", COLL, "--word", "L1")
    assert json.loads(out3)["gram"] == [[1, -3, -15], [0, 1, 6], [0, 0, 1]]
    code, _, err = run(capsys, "mutate", "--inline", COLL, "--word", "L9")
    assert code == 1


def test_cli_mutate_round_trip(capsys):
    code, out, _ = run(capsys, "mutate", "--inline", COLL, "--word", "L1 L2")
    mutated = json.loads(out)["collection"]
    code2, out2, _ = run(capsys, "mutate", "--inline", json.dumps(mutated),
                         "--word", "R2 R1")
    assert json.loads(out2)["collection"]["vectors"] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_cli_k0(capsys):
    code, out, _ = run(capsys, "k0", "gram", "-n", "3", "--basis", "adams")
    assert code == 0
    assert json.loads(out)[0] == [1, "11/6", 1, "1/6"]
    code, _, _ = run(capsys, "k0", "gram", "-n", "3", "--basis", "xi")
    assert code == 1
    code, out, _ = run(capsys, "k0", "rank", "--inline", '[3,"1/2",1]', "-n", "2")
    assert json.loads(out) == {"rank": 3}
    code, out, _ = run(capsys, "k0", "classify", "-n", "4")
    assert json.loads(out)["verdict"] == {"type": "type1", "n": 4, "epsilon": 1}


def test_cli_markov(capsys):
    code, out, _ = run(capsys, "markov", "check", "3", "3", "6")
    assert json.loads(out) == {"triple": [3, 3, 6], "trace": 3, "is_markov": True}
    code, out, _ = run(capsys, "markov", "reduce", "3", "6", "15")
    data = json.loads(out)
    assert code == 0 and data["end"] == [3, 3, 3]
    code, _, _ = run(capsys, "markov", "reduce", "1", "1", "1")
    assert code == 1
    code, _, _ = run(capsys, "markov", "reduce", "0", "0", "0")
    assert code == 1


def test_cli_orbit(capsys, monkeypatch):
    code, out, _ = run(capsys, "orbit", "--inline", COLL, "--height-bound", "40")
    data = json.loads(out)
    assert code == 0 and data["reached_markov_canonical"] and data["truncated"]
    monkeypatch.setenv("SEMIORTHO_MAX_NODES", "4")
    code, out, _ = run(capsys, "orbit", "--inline", COLL,
                       "--height-bound", "1000000")
    assert json.loads(out)["orbit_size"] <= 4
    monkeypatch.setenv("SEMIORTHO_MAX_NODES", "zzz")
    code, _, _ = run(capsys, "orbit", "--inline", COLL)
    assert code == 1


def test_cli_verify(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "braid")
    assert code == 0 and json.loads(out)["passed"]
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert set(json.loads(out)["suites"]) == {"braid", "canonical", "markov", "sigma"}


def test_cli_deterministic_output(capsys):
    _, out1, _ = run(capsys, "k0", "gram", "-n", "4", "--basis", "adams")
    _, out2, _ = run(capsys, "k0", "gram", "-n", "4", "--basis", "adams")
    assert out1 == out2
    _, pretty, _ = run(capsys, "--output", "pretty", "markov", "check", "3", "3", "6")
    assert json.loads(pretty)["trace"] == 3


def test_cli_file_input(capsys, tmp_path):
    p = tmp_path / "lat.json"
    p.write_text(LAT)
    code, out, _ = run(capsys, "classify", "--file", str(p))
    assert code == 0 and json.loads(out)["verdict"]["type"] == "type1"
    code, _, _ = run(capsys, "classify", "--file", str(tmp_path / "missing.json"))
    assert code == 1


def test_cli_rejects_bad_sizes_and_bounds(capsys, monkeypatch):
    one = '{"ambient":{"gram":[[1]]},"vectors":[[1]]}'
    for argv in (("k0", "rank", "--inline", "[]"),
                 ("k0", "rank", "--inline", "[1,2]", "-n", "-1"),
                 ("k0", "gram", "-n", "-1"),
                 ("k0", "classify", "-n", "-1"),
                 ("orbit", "--inline", one, "--height-bound", "-1"),
                 ("orbit", "--inline", one, "--max-nodes", "0")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "") and err.startswith("error:"), argv
    monkeypatch.setenv("SEMIORTHO_MAX_NODES", "0")
    code, _, err = run(capsys, "orbit", "--inline", one)
    assert code == 1 and err.startswith("error:")


def test_cli_orbit_rank_zero(capsys):
    for ambient in ("[]", "[[1,3],[0,1]]"):
        coll = '{"ambient":{"gram":%s},"vectors":[]}' % ambient
        code, out, _ = run(capsys, "orbit", "--inline", coll)
        data = json.loads(out)
        assert code == 0 and data["orbit_size"] == 1 and not data["truncated"]
        assert data["canonical_gram"] == []


# int() accepts it (under the 4 300-digit limit); its square is too long to print
BIG = "7" * 4000


def test_cli_big_integers_exit_1(capsys):
    coll = ('{"ambient":{"gram":[[1,%s],[0,1]]},"vectors":[[1,0],[0,1]]}' % BIG)
    for argv in (("markov", "check", BIG, BIG, BIG),
                 ("classify", "--inline", '{"gram":[[1,%s],[0,1]]}' % BIG),
                 ("classify", "--inline", '{"gram":[[1,%s]]}' % ("7" * 5000)),
                 ("mutate", "--inline", coll, "--word", "L1 L1 L1")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "") and err.startswith("error:"), argv[:2]


def test_cli_determinant_too_long_to_print(capsys):
    code, out, err = run(capsys, "classify", "--inline", '{"gram":[[%s,0],[0,%s]]}' % (BIG, BIG))
    bits = (int(BIG) ** 2).bit_length()
    assert (code, out) == (1, "")
    assert err == f"error: Gram determinant is a {bits}-bit integer, expected +-1\n"
    code, _, err = run(capsys, "classify", "--inline", '{"gram":[[2,0],[0,3]]}')
    assert code == 1 and err == "error: Gram determinant is 6, expected +-1\n"


def test_cli_k0_size_limit(capsys):
    for cmd, limit in (("gram", K0_MAX_N), ("classify", K0_CLASSIFY_MAX_N)):
        for n in (limit + 1, 10 ** 9):
            code, out, err = run(capsys, "k0", cmd, "-n", str(n))
            assert (code, out) == (1, "")
            assert err == f"error: -n {n} is above the limit of {limit}\n"
    code, out, _ = run(capsys, "k0", "gram", "-n", str(K0_MAX_N), "--basis", "twists")
    assert code == 0 and len(json.loads(out)) == K0_MAX_N + 1
    # classify reaches past the Gram's limit, in every basis that exists there
    for basis in ("twists", "adams", "binomial"):
        code, out, _ = run(capsys, "k0", "classify", "-n", str(K0_MAX_N + 1), "--basis", basis)
        assert code == 0
        assert json.loads(out)["verdict"] == {"type": "type1", "n": K0_MAX_N + 1, "epsilon": -1}


def test_cli_k0_classify_error_order(capsys):
    # the sign of -n, then the limit, then the basis: xi exists only at n = 2
    xi = "error: xi basis is implemented only for n = 2"
    for n, message in ((-1, "error: truncation order n must be >= 0, got -1\n"),
                       (K0_CLASSIFY_MAX_N + 1,
                        f"error: -n {K0_CLASSIFY_MAX_N + 1} is above the limit of "
                        f"{K0_CLASSIFY_MAX_N}\n"),
                       (3, xi), (K0_MAX_N + 1, xi)):
        code, out, err = run(capsys, "k0", "classify", "-n", str(n), "--basis", "xi")
        assert (code, out) == (1, "") and err.startswith(message), n
    code, out, _ = run(capsys, "k0", "classify", "-n", "2", "--basis", "xi")
    assert code == 0 and json.loads(out)["verdict"] == {"type": "type1", "n": 2, "epsilon": 1}


def test_cli_orbit_semiorthonormal_error_comes_first(capsys, monkeypatch):
    # <e1, e0> = 2: not semiorthonormal, and that error wins over bad bounds
    bad = '{"ambient":{"gram":[[1,0],[2,1]]},"vectors":[[1,0],[0,1]]}'
    expected = (1, "", "error: collection is not semiorthonormal\n")
    for flags in (("--height-bound", "-1"), ("--max-nodes", "0"),
                  ("--height-bound", "-1", "--max-nodes", "0")):
        assert run(capsys, "orbit", "--inline", bad, *flags) == expected, flags
    for env in ("zzz", "0", "-3"):
        monkeypatch.setenv("SEMIORTHO_MAX_NODES", env)
        assert run(capsys, "orbit", "--inline", bad) == expected, env


def test_cli_k0_rank_does_not_pad_the_series(capsys):
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "k0", "rank", "--inline", "[3]", "-n", "1000000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, json.loads(out)) == (0, {"rank": 3})
    assert peak < 1 << 20


_JUNK_JSON = ("", "{bad", "null", "3", "[]", "{}", '{"gram":3}', '{"gram":[1,2]}',
              '{"gram":[[1]],"rank":"x"}', '{"gram":[[true]]}', '{"gram":[[1.5]]}',
              '{"gram":[["1/2"]]}', '{"ambient":[],"vectors":[]}',
              '{"ambient":{"gram":[[1]]},"vectors":3}',
              '{"ambient":{"gram":[[1]]},"vectors":[[1,0]]}',
              '{"gram":[[%s]]}' % ("7" * 5000))


@st.composite
def _gram(draw):
    """Small Gram: unitriangular, dense (mostly not unimodular) or ragged."""
    n = draw(st.integers(0, 3))
    entry = st.one_of(st.integers(-3, 3), st.just(int(BIG)), st.just(BIG))
    shape = draw(st.sampled_from(("unitriangular", "dense", "ragged")))
    gram = [[int(i == j) if j <= i and shape == "unitriangular" else draw(entry)
             for j in range(n)] for i in range(n)]
    if shape == "ragged" and n:
        gram[draw(st.integers(0, n - 1))].append(0)
    return gram


@st.composite
def _json_argv(draw):
    """classify or mutate with JSON input that may be malformed."""
    kind = draw(st.sampled_from(("classify", "mutate")))
    gram = draw(_gram())
    if draw(st.integers(0, 4)) == 0:
        text = draw(st.sampled_from(_JUNK_JSON))
    elif kind == "classify":
        text = json.dumps({"gram": gram})
    else:
        n = len(gram)
        vectors = [[int(i == j) for j in range(n)] for i in draw(st.permutations(range(n)))]
        text = json.dumps({"ambient": {"gram": gram}, "vectors": vectors})
    argv = [kind, "--inline", text]
    if kind == "mutate":
        argv += ["--word", draw(st.text(alphabet="LR0123 -x", max_size=8))]
    return argv


@st.composite
def _markov_argv(draw):
    """markov check or reduce, entries up to and past the 4 300-digit limit."""
    entry = st.one_of(st.integers(), st.sampled_from((0, 1, 3, 6, 15, -3)),
                      st.just(BIG), st.just("7" * 4400))
    return ["markov", draw(st.sampled_from(("check", "reduce")))] + \
        [str(draw(entry)) for _ in range(3)]


@st.composite
def _argv_and_env(draw):
    """A command line for orbit, k0, classify, mutate or markov, and SEMIORTHO_MAX_NODES."""
    kind = draw(st.sampled_from(("orbit", "gram", "classify", "rank", "json", "markov")))
    if kind == "json":
        return draw(_json_argv()), None
    if kind == "markov":
        return draw(_markov_argv()), None
    if kind == "orbit":
        n = draw(st.integers(0, 4))
        gram = [[int(i == j) if j <= i else draw(st.integers(-3, 3))
                 for j in range(n)] for i in range(n)]
        # a permuted basis is semiorthonormal only for some Grams
        order = draw(st.permutations(range(n)))
        vectors = [[int(i == j) for j in range(n)] for i in order]
        argv = ["orbit", "--inline", json.dumps({"ambient": {"gram": gram},
                                                 "vectors": vectors}),
                "--height-bound", str(draw(st.integers()))]
        # the node cap keeps each search small; its lower end is unbounded
        cap = str(draw(st.integers(max_value=40)))
        if draw(st.booleans()):
            return argv + ["--max-nodes", cap], None
        return argv, cap
    n = str(draw(st.integers(-3, 3)))
    if kind == "rank":
        coeffs = draw(st.lists(st.one_of(
            st.integers(-5, 5),
            st.builds("{}/{}".format, st.integers(-5, 5), st.integers(1, 4))),
            max_size=3))
        argv = ["k0", "rank", "--inline", json.dumps(coeffs)]
        return (argv + ["-n", n] if draw(st.booleans()) else argv), None
    basis = draw(st.sampled_from(("adams", "binomial", "twists", "xi")))
    return ["k0", kind, "-n", n, "--basis", basis], None


@settings(max_examples=500, deadline=None)
@given(_argv_and_env())
def test_cli_contract_exit_codes(case):
    argv, max_nodes_env = case
    env = {} if max_nodes_env is None else {"SEMIORTHO_MAX_NODES": max_nodes_env}
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, env), redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse rejects a command line this way
            code = e.code
    assert code in (0, 1, 2), (argv, code)
    if code == 0:
        json.loads(out.getvalue())
    elif code == 1:
        assert out.getvalue() == "" and err.getvalue().startswith("error:")


def test_cli_classify_verdict_is_over_the_algebraic_closure(capsys):
    # [[1]] and [[-1]] are not congruent over Q, but both have kappa = (1):
    # the verdict is the Jordan type of kappa and cannot tell them apart
    outputs = []
    for gram in ('{"gram":[[1]]}', '{"gram":[[-1]]}'):
        code, out, _ = run(capsys, "classify", "--inline", gram)
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["verdict"] == {"type": "type1", "n": 0, "epsilon": 1}
