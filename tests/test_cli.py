"""JSON round trips and the command-line surface with its exit-code contract."""

import argparse
import functools
import io
import json
import os
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from semiortho import cli, properties, serialize
from semiortho.bilinear_form import BilinearLattice
from semiortho.cli import K0_CLASSIFY_MAX_N, K0_MAX_N, main
from semiortho.exact_linalg import IntMatrix, RatMatrix
from semiortho.k0_pn import BASES
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
    assert serialize.decode_number("-4/6") == Fraction(-2, 3)
    assert serialize.decode_number("+7") == 7 and serialize.decode_int("-0") == 0
    for bad in (True, "x/y", 1.5, None, "1/0"):
        with pytest.raises(InputFormatError):
            serialize.decode_number(bad)
    # only the literals the encoders write: ASCII [+-]?[0-9]+, and p/q for numbers;
    # int() and Fraction() also take underscores, spaces, other digits and exponents
    for bad in ("1_000", " 5 ", "5\n", "\u0661\u0662", "", "+", "0x10", "1.0", "\u00b2"):
        with pytest.raises(InputFormatError):
            serialize.decode_int(bad)
        with pytest.raises(InputFormatError):
            serialize.decode_number(bad)
    for bad in ("1e3", "\u0661/\u0662", "1/-2", "1/+2", " 1/2", "1 / 2", "1/2/3", "/2", "1/", "1.5/2"):
        with pytest.raises(InputFormatError):
            serialize.decode_number(bad)
    for bad in ("3/2", True, 1.0, None):
        with pytest.raises(InputFormatError):
            serialize.decode_int(bad)


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


def test_loads_rejects_json_nested_past_the_stack():
    for text in ("[" * 100000 + "]" * 100000, '{"a":' * 100000 + "1" + "}" * 100000):
        with pytest.raises(InputFormatError, match="^invalid JSON: "):
            serialize.loads(text)


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
    # kappa of [[1,1],[0,1]] has char poly x^2 - x + 1, with no rational root
    code, out, _ = run(capsys, "classify", "--inline", '{"gram":[[1,1],[0,1]]}')
    assert code == 0 and json.loads(out)["verdict"] == {
        "type": "irrational_spectrum", "rational_roots": [], "remainder": [1, -1, 1]}
    code, out, _ = run(capsys, "classify", "--inline", '{"gram":[[0,1],[-1,0]]}')
    assert code == 0 and json.loads(out)["verdict"] == {"k": 1, "mu": -1, "type": "type2"}
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
    # sign flips count from 0: F0 negates e0 before L1 mutates (e0, e1)
    code, out4, _ = run(capsys, "mutate", "--inline", COLL, "--word", "F0 L1")
    assert code == 0 and json.loads(out4)["gram"] == [[1, 3, -15], [0, 1, -6], [0, 0, 1]]
    assert run(capsys, "mutate", "--inline", COLL, "--word", "F3") == \
        (1, "", "error: sign flip index 3 out of range 0..2\n")
    assert run(capsys, "mutate", "--inline", COLL, "--word", "L\u00b2") == \
        (1, "", "error: bad braid letter 'L\u00b2'\n")
    # a collection too small for any letter of a kind says so by its size
    empty = '{"ambient":{"rank":0,"gram":[]},"vectors":[]}'
    assert run(capsys, "mutate", "--inline", empty, "--word", "F0") == \
        (1, "", "error: sign flip index 0 out of range: no sign flip acts on 0 vectors\n")
    single = '{"ambient":{"rank":2,"gram":[[1,0],[0,1]]},"vectors":[[1,0]]}'
    assert run(capsys, "mutate", "--inline", single, "--word", "L1") == \
        (1, "", "error: mutation index 1 out of range: no mutation acts on 1 vector\n")


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
    # each move prints its word as the letters it was parsed from
    assert run(capsys, "markov", "reduce", "-3", "3", "-6") == (0, (
        '{"end":[3,3,3],"moves":[{"move":"sign_flip","positions":[1,3],'
        '"triple_after":[3,3,6],"word":"F1"},{"move":"vieta","position":3,'
        '"triple_after":[3,3,3],"word":"F1 L1"}],"start":[-3,3,-6]}\n'), "")
    code, _, _ = run(capsys, "markov", "reduce", "1", "1", "1")
    assert code == 1
    code, _, _ = run(capsys, "markov", "reduce", "0", "0", "0")
    assert code == 1


def test_cli_orbit(capsys):
    code, out, _ = run(capsys, "orbit", "--inline", COLL, "--height-bound", "40")
    data = json.loads(out)
    assert code == 0 and data["reached_markov_canonical"] and data["truncated"]
    code, out, _ = run(capsys, "orbit", "--inline", COLL, "--max-nodes", "4",
                       "--height-bound", "1000000")
    assert json.loads(out)["orbit_size"] <= 4


def test_cli_verify(capsys, monkeypatch):
    code, out, _ = run(capsys, "verify", "--suite", "braid")
    assert code == 0 and json.loads(out)["passed"]
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert set(json.loads(out)["suites"]) == {"braid", "canonical", "markov", "sigma"}
    # a broken law fails every draw of its suite
    monkeypatch.setattr(properties, "verify_canmatr", lambda *args: False)
    code, out, _ = run(capsys, "verify", "--suite", "canonical")
    assert (code, json.loads(out)) == (2, {"passed": False, "suites": {
        "canonical": {"failures": 25, "passed": False}}})


def test_cli_failed_report_exits_2(capsys, monkeypatch):
    # main, not the command, gives exit 2 to any report whose "passed" is false
    monkeypatch.setattr(serialize, "encode_orbit_report",
                        lambda report: {"orbit_size": report.orbit_size, "passed": False})
    code, out, err = run(capsys, "orbit", "--inline", COLL, "--max-nodes", "4")
    assert (code, out, err) == (2, '{"orbit_size":4,"passed":false}\n', "")
    code, out, _ = run(capsys, "--output", "pretty", "orbit", "--inline", COLL, "--max-nodes", "4")
    assert (code, json.loads(out)) == (2, {"orbit_size": 4, "passed": False})


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


def test_cli_rejects_bad_sizes_and_bounds(capsys):
    one = '{"ambient":{"gram":[[1]]},"vectors":[[1]]}'
    for argv in (("k0", "rank", "--inline", "[]"),
                 ("k0", "rank", "--inline", "[1,2]", "-n", "-1"),
                 ("k0", "gram", "-n", "-1"),
                 ("k0", "classify", "-n", "-1"),
                 ("orbit", "--inline", one, "--height-bound", "-1"),
                 ("orbit", "--inline", one, "--max-nodes", "0"),
                 # a malformed command line is malformed input too
                 ("k0", "gram", "-n", "abc"),
                 ("markov", "check", "3", "3"),
                 ("nonsense",),
                 ()):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "") and err.startswith("error:"), argv
    for argv in (["--help"], ["k0", "--help"], ["k0", "classify", "--help"], ["verify", "-h"]):
        with pytest.raises(SystemExit) as help_exit:
            main(argv)
        out = capsys.readouterr().out
        assert help_exit.value.code == 0 and out.startswith("usage: semiortho " + " ".join(argv[:-1]))


def test_cli_integers_follow_the_json_grammar(capsys):
    # int() takes all of these; a command-line integer is ASCII [+-]?[0-9]+
    one = '{"ambient":{"gram":[[1]]},"vectors":[[1]]}'
    for argv, name in ((("markov", "reduce", "٣", "٦", "١٥"), "a"),
                       (("k0", "classify", "-n", " 1_0"), "-n"),
                       (("markov", "check", "3", "3", "３"), "c"),
                       (("k0", "gram", "-n", "4 "), "-n"),
                       (("orbit", "--inline", one, "--height-bound", "1_0"), "--height-bound"),
                       (("orbit", "--inline", one, "--max-nodes", "١٠"), "--max-nodes"),
                       (("verify", "--seed", "\t0"), "--seed")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "") and err.startswith(f"error: argument {name}: "), argv
    assert run(capsys, "markov", "check", "+3", "-3", "-06")[0] == 0


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


def test_cli_rejected_literals_are_echoed_in_short(capsys):
    # a long rejected value is echoed as its head and its length
    sevens = "7" * 4400
    for argv in (("markov", "check", "3", "3", sevens + "x"),
                 ("markov", "check", "3", "3", sevens),
                 ("classify", "--inline", '{"gram":[["%sx"]]}' % sevens),
                 ("k0", "rank", "--inline", '["1/%s"]' % ("0" * 4400)),
                 ("classify", "--inline", '{"gram":[[[%s]]]}' % ",".join("7" * 2000))):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv[:2]
        assert err.count("\n") == 1 and len(err) < 200, err[:300]
        assert "characters)" in err
    code, _, err = run(capsys, "markov", "check", "3", "3", sevens + "x")
    assert err == "error: argument c: bad integer literal '%s... (4401 characters)\n" % ("7" * 39)
    # a short one keeps its whole repr
    for argv, message in ((("markov", "check", "3", "3", "1x"),
                           "error: argument c: bad integer literal '1x'\n"),
                          (("classify", "--inline", '{"gram":[["1/2"]]}'),
                           "error: bad integer literal '1/2'\n"),
                          (("k0", "rank", "--inline", '["1/0"]'),
                           "error: bad number literal '1/0'\n"),
                          (("k0", "rank", "--inline", "[null]"),
                           "error: expected number, got None\n")):
        assert run(capsys, *argv) == (1, "", message)


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
        assert json.loads(out)["verdict"] == {"type": "type1", "n": K0_MAX_N + 1,
                                              "epsilon": (-1) ** (K0_MAX_N + 1)}


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


def test_cli_orbit_semiorthonormal_error_comes_first(capsys):
    # <e1, e0> = 2: not semiorthonormal, and that error wins over bad bounds
    bad = '{"ambient":{"gram":[[1,0],[2,1]]},"vectors":[[1,0],[0,1]]}'
    expected = (1, "", "error: collection is not semiorthonormal\n")
    for flags in (("--height-bound", "-1"), ("--max-nodes", "0"),
                  ("--height-bound", "-1", "--max-nodes", "0")):
        assert run(capsys, "orbit", "--inline", bad, *flags) == expected, flags


# each command with an input that reaches its library call, as bound in cli
# or, for verify, in properties
_LIBRARY_CALLS = (
    (("classify", "--inline", LAT), cli, "detect_type"),
    (("mutate", "--inline", COLL, "--word", "L1"), cli, "apply_braid"),
    (("k0", "gram", "-n", "2"), cli, "gram_matrix"),
    (("k0", "rank", "--inline", "[3]"), cli, "rank"),
    (("k0", "classify", "-n", "2"), cli, "kappa_matrix"),
    (("markov", "check", "3", "3", "3"), cli, "trace_kappa_rank3"),
    (("markov", "reduce", "3", "3", "6"), cli, "reduce_to_canonical"),
    (("orbit", "--inline", COLL), cli, "orbit_search"),
    (("verify", "--suite", "sigma"), properties, "sigma_pairing"),
)


def test_cli_library_errors_exit_1(capsys, monkeypatch):
    # main alone maps library errors to exit codes, for every command
    def planted(error):
        def call(*args, **kwargs):
            raise error("planted")
        return call

    for argv, owner, name in _LIBRARY_CALLS:
        with monkeypatch.context() as m:
            m.setattr(owner, name, planted(ValueError))
            assert run(capsys, *argv) == (1, "", "error: planted\n"), argv
    with monkeypatch.context() as m:
        m.setattr(cli, "apply_braid", planted(IndexError))
        assert run(capsys, "mutate", "--inline", COLL, "--word", "L1") == \
            (1, "", "error: planted\n")
    with monkeypatch.context() as m:
        m.setattr(cli, "detect_type", planted(AssertionError))
        assert run(capsys, "classify", "--inline", LAT) == \
            (2, "", "property violation: planted\n")
    with monkeypatch.context() as m:
        m.setattr(cli, "realize_trace", lambda trace: False)
        assert run(capsys, "markov", "reduce", "3", "3", "6") == \
            (2, "", "property violation: reduction trace failed to replay\n")


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
              '{"gram":[[%s]]}' % ("7" * 5000), "[" * 100000 + "]" * 100000)


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
        argv += ["--word", draw(st.text(alphabet="LRF0123 -x", max_size=8))]
    return argv


@st.composite
def _markov_argv(draw):
    """markov check or reduce, entries up to and past the 4 300-digit limit."""
    entry = st.one_of(st.integers(), st.sampled_from((0, 1, 3, 6, 15, -3)),
                      st.just(BIG), st.just("7" * 4400))
    return ["markov", draw(st.sampled_from(("check", "reduce")))] + \
        [str(draw(entry)) for _ in range(3)]


@st.composite
def _argv(draw):
    """A command line for orbit, k0, classify, mutate or markov."""
    kind = draw(st.sampled_from(("orbit", "gram", "classify", "rank", "json", "markov")))
    if kind == "json":
        return draw(_json_argv())
    if kind == "markov":
        return draw(_markov_argv())
    if kind == "orbit":
        n = draw(st.integers(0, 4))
        gram = [[int(i == j) if j <= i else draw(st.integers(-3, 3))
                 for j in range(n)] for i in range(n)]
        # a permuted basis is semiorthonormal only for some Grams
        order = draw(st.permutations(range(n)))
        vectors = [[int(i == j) for j in range(n)] for i in order]
        # the node cap keeps each search small; its lower end is unbounded
        return ["orbit", "--inline", json.dumps({"ambient": {"gram": gram},
                                                 "vectors": vectors}),
                "--height-bound", str(draw(st.integers())),
                "--max-nodes", str(draw(st.integers(max_value=40)))]
    n = str(draw(st.integers(-3, 3)))
    if kind == "rank":
        coeffs = draw(st.lists(st.one_of(
            st.integers(-5, 5),
            st.builds("{}/{}".format, st.integers(-5, 5), st.integers(1, 4))),
            max_size=3))
        argv = ["k0", "rank", "--inline", json.dumps(coeffs)]
        return argv + ["-n", n] if draw(st.booleans()) else argv
    basis = draw(st.sampled_from(("adams", "binomial", "twists", "xi")))
    return ["k0", kind, "-n", n, "--basis", basis]


@settings(max_examples=500, deadline=None)
@given(_argv())
@example(["classify", "--inline", _JUNK_JSON[-1]])  # nested past the stack
def test_cli_contract_exit_codes(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:  # the reader exits only for --help
            code = e.code
    assert code in (0, 1, 2), (argv, code)
    if code == 0:
        json.loads(out.getvalue())
    elif code == 1:
        assert out.getvalue() == "" and err.getvalue().startswith("error:")
    else:  # a property violation, never a usage message
        assert "usage:" not in err.getvalue(), argv


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


def _integer(text: str) -> int:
    try:
        return serialize.decode_int(text)
    except InputFormatError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


class _Parser(argparse.ArgumentParser):
    """Raises on a malformed command line, as the table reader does, where
    argparse would exit 2."""

    def error(self, message):
        raise InputFormatError(message)


@functools.cache
def reference_parser() -> argparse.ArgumentParser:
    """The argparse parser the command table replaced, kept as the reference for
    how a command line is read."""
    parser = _Parser(
        prog="semiortho",
        description="Exact arithmetic for non-symmetric unimodular bilinear forms")
    parser.add_argument("--output", choices=("json", "pretty"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        g = p.add_mutually_exclusive_group()
        g.add_argument("--file", help="read JSON input from a file")
        g.add_argument("--inline", help="JSON input given on the command line")

    p = sub.add_parser("classify", help="classify a lattice form by its canonical operator")
    add_input(p)
    p.set_defaults(func="cmd_classify")

    p = sub.add_parser("mutate", help="apply a braid word to a collection")
    add_input(p)
    p.add_argument("--word", default="")
    p.set_defaults(func="cmd_mutate")

    p = sub.add_parser("k0", help="projective-space lattice computations")
    k0sub = p.add_subparsers(dest="k0cmd", required=True)
    g = k0sub.add_parser("gram")
    g.add_argument("-n", type=_integer, required=True)
    g.add_argument("--basis", choices=BASES, default="adams")
    g.set_defaults(func="cmd_k0_gram")
    g = k0sub.add_parser("rank")
    add_input(g)
    g.add_argument("-n", type=_integer, default=None)
    g.set_defaults(func="cmd_k0_rank")
    g = k0sub.add_parser("classify")
    g.add_argument("-n", type=_integer, required=True)
    g.add_argument("--basis", choices=BASES, default="twists")
    g.set_defaults(func="cmd_k0_classify")

    p = sub.add_parser("markov", help="rank-3 Markov triples")
    p.add_argument("subcmd", choices=("check", "reduce"))
    p.add_argument("a", type=_integer)
    p.add_argument("b", type=_integer)
    p.add_argument("c", type=_integer)
    p.set_defaults(func="cmd_markov")

    p = sub.add_parser("orbit", help="search the mutation orbit of a collection")
    add_input(p)
    p.add_argument("--height-bound", type=_integer, default=100)
    p.add_argument("--max-nodes", type=_integer, default=100000)
    p.set_defaults(func="cmd_orbit")

    p = sub.add_parser("verify", help="run invariant suites")
    p.add_argument("--suite", choices=sorted(properties.SUITES) + ["all"], default="all")
    p.add_argument("--seed", type=_integer, default=0)
    p.set_defaults(func="cmd_verify")

    return parser


def _reference_read(argv):
    args = vars(reference_parser().parse_args(argv))
    return args.pop("func"), {k: v for k, v in args.items() if k not in ("command", "k0cmd")}


def _table_read(argv):
    func, args = cli._read(argv)
    return func.__name__, vars(args)


def _outcome(read, argv):
    """What a reader makes of argv: the command and its arguments, an error, or
    an exit with the usage on stdout."""
    out = io.StringIO()
    try:
        with redirect_stdout(out):
            func, args = read(argv)
    except InputFormatError:
        return "error"
    except SystemExit as e:
        return "exit", e.code, out.getvalue().startswith("usage:")
    return func, args


# values for the integers, free text and choices, and tokens that do not belong
_INT_TEXTS = ("0", "7", "-3", "+3", "-0", "-06", "٣", "-١", "３", " 5", "5 ", "1_0",
              "", "-", "-x", "--", "-1.5", "-.5", "1e3", "-5\n", "1 2")
_FREE_TEXTS = ("[3]", '{"gram":[[1]]}', "", "-", "--x", "-x", "a b", "-1", "--", "-h", "--inline",
               "pretty", "x=y", "--x y")
_TEXTS = ("[3]", '{"gram":[[1]]}', "x=y", "L1 R2", "-1", "a b", "--x y", "٣")
_STRAY = ("-x", "--unknown", "--", "-h", "--help", "--he", "--h", "--s", "--=x", "-hx", "-hh",
          "-hn5", "-hn", "-h=h", "--help=x", "extra", "-5", "--output", "pretty", "-n", "-n5",
          "-n=", "--file", "--inline", "--fi", "--in=x", "check", "k0", "gram", "-", "-1.5")
# the command lines the reference parser reads: each command path with its
# options (name: int, str or the tuple of choices), its required options and
# the kinds of its positionals
_INPUT = {"--file": str, "--inline": str}
_SPEC = {
    ("classify",): (_INPUT, (), ()),
    ("mutate",): ({**_INPUT, "--word": str}, (), ()),
    ("k0", "gram"): ({"-n": int, "--basis": BASES}, ("-n",), ()),
    ("k0", "rank"): ({**_INPUT, "-n": int}, (), ()),
    ("k0", "classify"): ({"-n": int, "--basis": BASES}, ("-n",), ()),
    ("markov",): ({}, (), (("check", "reduce"), int, int, int)),
    ("orbit",): ({**_INPUT, "--height-bound": int, "--max-nodes": int}, (), ()),
    ("verify",): ({"--suite": tuple(sorted(properties.SUITES)) + ("all",), "--seed": int}, (), ()),
}


@st.composite
def _value(draw, kind, messy):
    """A value of a kind: one it takes, or, when messy, maybe one it rejects."""
    if isinstance(kind, tuple):
        return draw(st.sampled_from(kind + (("", "x", kind[0][:2], "-1") if messy else ())))
    if kind is str:
        return draw(st.sampled_from(_FREE_TEXTS if messy else _TEXTS))
    number = st.integers(-10 ** 6, 10 ** 6).map(str)
    return draw(st.one_of(number, st.sampled_from(_INT_TEXTS)) if messy else number)


@st.composite
def _option_tokens(draw, name, kind, messy):
    """One option with its value, written in one of the forms argparse reads."""
    value = draw(_value(kind, messy))
    if name.startswith("--") and draw(st.booleans()):
        name = name[:draw(st.integers(3, len(name)))]  # a prefix, maybe not unique
    form = draw(st.sampled_from(("pair", "equals", "attached") + (("bare",) if messy else ())))
    if form == "equals":
        return [f"{name}={value}"]
    if form == "attached" and not name.startswith("--"):
        return [name + value]
    return [name, value] if form != "bare" else [name]


@st.composite
def _any_argv(draw):
    """A command line for any command, valid or not.  Its options come in any
    form and order; a messy one may also have bad values, an option without
    its value or twice, --file with --inline, a wrong number of positionals,
    stray tokens and a bad top-level option."""
    messy = draw(st.booleans())
    path = draw(st.sampled_from(list(_SPEC)))
    options, required, kinds = _SPEC[path]
    chunks = [draw(_option_tokens(name, kind, messy)) for name, kind in options.items()
              if name in required and not messy or draw(st.integers(0, 3))]
    if messy and draw(st.integers(0, 2)) == 0:
        name, kind = draw(st.sampled_from([*options.items(), ("--output", ("json", "pretty"))]))
        chunks.append(draw(_option_tokens(name, kind, messy)))
    chunks = draw(st.permutations(chunks))
    positionals = [draw(_value(kind, messy)) for kind in kinds]
    if messy:
        count = draw(st.integers(max(0, len(positionals) - 1), len(positionals) + 1))
        positionals = (positionals + ["3"])[:count]
    # positionals in order, each after a random number of option chunks
    tokens = [t for chunk in chunks for t in chunk]
    for value in reversed(positionals):
        tokens.insert(draw(st.integers(0, len(tokens))), value)
    for _ in range(draw(st.integers(0, 2)) if messy else 0):
        tokens.insert(draw(st.integers(0, len(tokens))), draw(st.sampled_from(_STRAY)))
    top = draw(st.sampled_from(([], ["--output", "pretty"], ["--out=json"]) + (
        (["--o", "xml"], ["-h"], ["--output"], ["-x"]) if messy else ())))
    # where argparse reads [] for a "--" (test_cli_reads_a_dash_dash_value_as_itself)
    assume(tokens.count("--") < 2 and not any(t.endswith("=--") or t == "-n--" for t in tokens))
    return top + list(path) + tokens


def _check_agreement(argv):
    """The command table is read as the argparse parser it replaced reads argv:
    the same command and values, the same errors, the same --help exits."""
    assert _outcome(_table_read, argv) == _outcome(_reference_read, argv), argv


@settings(max_examples=400, deadline=None)
@given(_any_argv())
def test_reader_agrees_with_argparse(argv):
    _check_agreement(argv)


def test_reader_agrees_with_argparse_on_examples():
    for argv in (["k0", "gram", "-n", "-1"], ["k0", "gram", "-n-1", "--b=twists"],
                 ["--out", "pretty", "markov", "check", "-3", "3", "-6"],
                 ["markov", "check", "--", "-3", "3", "3"], ["markov", "--", "check", "3", "3", "3"],
                 ["k0", "gram", "-n", "--", "3"], ["k0", "--", "gram", "-n", "3"],
                 ["classify", "--file", "f", "--inline", "x"], ["classify", "--fi=f", "--fi", "g"],
                 ["orbit", "--h", "3"], ["orbit", "--help", "--h"], ["verify", "--se", "3"],
                 ["k0", "classify", "-x", "--help"], ["k0", "classify", "-hn"],
                 ["k0", "classify", "-hn5"], ["markov", "check", "3", "3", "-5\n", "--help"],
                 ["verify", "--help=x"], ["verify", "-h="], ["-x", "k0", "gram", "-n", "3"],
                 ["k0", "gram", "-n", "3", "--", "4"], ["mutate", "--word", "-x y"]):
        _check_agreement(argv)


def test_cli_reads_a_dash_dash_value_as_itself(capsys):
    # argparse drops a "--" that is an option's value or a positional after the
    # separator and stores [], which no command can read; the table reads "--"
    for argv, dest, error in (
            (["k0", "gram", "-n=--"], "n", "error: argument -n: bad integer literal '--'\n"),
            (["markov", "check", "--", "3", "3", "--"], "c",
             "error: argument c: bad integer literal '--'\n"),
            (["classify", "--inline=--"], "inline", "error: invalid JSON: "),
            (["k0", "rank", "-n=--", "-h"], "n", "error: argument -n: bad integer literal '--'\n")):
        with redirect_stdout(io.StringIO()):
            try:
                assert getattr(reference_parser().parse_args(argv), dest) == []
            except SystemExit:  # the [] is stored, and -h prints the usage
                assert argv[-1] == "-h"
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "") and err.startswith(error), argv


def _run_cli(*argv, **kwargs):
    env = {**os.environ, "PYTHONPATH": str(Path(serialize.__file__).resolve().parents[1])}
    return subprocess.Popen([sys.executable, *argv], env=env, stderr=subprocess.PIPE, **kwargs)


def test_cli_import_leaves_argparse_out():
    proc = _run_cli("-c", "import sys, semiortho.cli; sys.exit('argparse' in sys.modules)")
    assert proc.wait(timeout=60) == 0, proc.stderr.read()
    proc.stderr.close()


def test_cli_closed_stdout_exits_1_without_traceback():
    # the reader of stdout closes it before the command writes: 130 kB, more
    # than a pipe holds, or a line small enough to wait for the final flush
    for argv in (("k0", "classify", "-n", "768"), ("markov", "check", "3", "3", "6")):
        proc = _run_cli("-m", "semiortho.cli", *argv, stdout=subprocess.PIPE)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1, (argv, err)
        assert "Traceback" not in err and "Exception ignored" not in err, err
