"""Command line interface.

Exit codes: 0 success, 1 malformed input, 2 property violation found.
The commands only parse, call the library (`verify` calls the laws of
`properties`) and return their report; `main` alone writes it and picks the
exit code.  A malformed command line, or a `ValueError` or `IndexError` from
the library or the input checks here, is malformed input, exit 1 with an
`error:` line on stderr; an `AssertionError` is a property violation, exit 2;
so is a report whose "passed" is false, exit 2 with the report on stdout; a
stdout closed by its reader exits 1 with nothing on stderr.
All output is exact JSON (deterministic byte-for-byte); --output pretty
switches to indented rendering.

The command line is read by one loop, `_read`, from one table, `COMMANDS`,
which gives each command path its function, options and positionals.  It
reads what argparse would: options in any order, `--name value`,
`--name=value`, `-nVALUE`, unique prefixes of long options, negative numbers
as values, `--` before positionals, and `-h`/`--help` at every level, which
prints the usage from the table and exits 0.  The tests keep the argparse
parser it replaced as its reference.
"""

from __future__ import annotations

import os
import re
import sys
from types import SimpleNamespace
from typing import Callable, NamedTuple

from . import properties, serialize
# detect_type_gram is unused here, but bench/tests checks that the tracer
# replaces this copy of it
from .classification import _report, detect_type, detect_type_gram  # noqa: F401
from .k0_pn import BASES, DSeries, check_truncation, gram_matrix, kappa_matrix, rank, xi_basis
from .markov import MarkovTriple, is_markov, realize_trace, reduce_to_canonical, trace_kappa_rank3
from .mutations import BraidWord, apply_braid, orbit_search
from .serialize import InputFormatError


def _read_input(args):
    """The decoded JSON input of a command: --inline, --file or stdin."""
    if args.inline is not None:
        return serialize.loads(args.inline)
    if args.file is not None:
        try:
            with open(args.file) as fh:
                return serialize.loads(fh.read())
        except OSError as e:
            raise InputFormatError(f"cannot read {args.file}: {e}") from None
    return serialize.loads(sys.stdin.read())


def cmd_classify(args) -> dict:
    lattice = serialize.decode_lattice(_read_input(args))
    report = detect_type(lattice)
    return serialize.encode_report(report)


def cmd_mutate(args) -> dict:
    c = serialize.decode_collection(_read_input(args))
    c = apply_braid(c, BraidWord.parse(args.word))
    return {"collection": serialize.encode_collection(c),
            "gram": serialize.encode_matrix(c.gram())}


# Largest -n of `k0 gram`, from the table of scripts/k0_rate.py in
# BENCH_22.json: in the slowest basis, adams, the Gram takes 0.20 s at -n 128
# and 0.26 s at -n 144, within the 1.25 s budget, but it prints 2.0 MB at
# -n 128 and 3.0 MB at -n 144 (2-vCPU Xeon, Python 3.11).  Output size sets
# the limit near 128; K0_CLASSIFY_MAX_N lies above it, so `k0 classify`
# reaches past the Gram's limit.
K0_MAX_N = 127

# Largest -n of `k0 classify`, from the table of scripts/k0_rate.py in
# BENCH_28.json: classifying the integer kappa over the binomial basis takes
# no rank, since its one Jordan block is read off its subdiagonal, and no
# root search, since its roots are its diagonal.  It takes 0.19 s at -n 1280,
# 0.54 s at -n 2048 and 0.94 s at -n 2560, against the 1.25 s budget
# (2-vCPU Xeon, Python 3.11); what is left is building kappa and expanding
# its char poly.  At -n 2560 the report prints 1.43 MB, below the 2.0 MB that
# sets K0_MAX_N, and its longest coefficient, C(2561, 1280), has 770 digits,
# far below the int-to-decimal limit.
K0_CLASSIFY_MAX_N = 2560


def _check_k0_limit(n: int, limit: int):
    if n > limit:
        raise InputFormatError(f"-n {n} is above the limit of {limit}")


def cmd_k0_gram(args) -> list:
    _check_k0_limit(args.n, K0_MAX_N)
    return serialize.encode_matrix(gram_matrix(args.n, args.basis))


def cmd_k0_rank(args) -> dict:
    data = _read_input(args)
    if not isinstance(data, list) or not data:
        raise InputFormatError("expected a non-empty array of series coefficients")
    coeffs = [serialize.decode_number(x) for x in data]
    n = args.n if args.n is not None else len(coeffs) - 1
    check_truncation(n, len(coeffs))
    # the rank is the constant term: no need to pad the series up to order n
    series = DSeries.from_coeffs(len(coeffs) - 1, coeffs)
    return {"rank": serialize.encode_number(rank(series))}


def cmd_k0_classify(args) -> dict:
    # the report is a similarity invariant of kappa, the same in every basis,
    # so it is read off the integer kappa of the binomial basis; a basis only
    # has to exist at this n
    _check_k0_limit(args.n, K0_CLASSIFY_MAX_N)
    kappa = kappa_matrix(args.n)
    if args.basis == "xi":
        xi_basis(args.n)
    return serialize.encode_report(_report(kappa))


def cmd_markov(args) -> dict:
    t = MarkovTriple(args.a, args.b, args.c)
    if args.subcmd == "check":
        return {"triple": serialize.encode_triple(t),
                "trace": serialize.encode_int(trace_kappa_rank3(t)),
                "is_markov": is_markov(t)}
    trace = reduce_to_canonical(t)
    # the triple-level replay_trace would only redo the apply_word calls that
    # built the trace; realize_trace checks it on vectors
    if not realize_trace(trace):
        raise AssertionError("reduction trace failed to replay")
    return serialize.encode_trace(trace)


def cmd_orbit(args) -> dict:
    c = serialize.decode_collection(_read_input(args))
    report = orbit_search(c, args.height_bound, args.max_nodes)
    return serialize.encode_orbit_report(report)


def cmd_verify(args) -> dict:
    names = sorted(properties.SUITES) if args.suite == "all" else [args.suite]
    failures = properties.run_suites(names, args.seed)
    return {"suites": {name: {"failures": f, "passed": f == 0}
                       for name, f in failures.items()},
            "passed": not any(failures.values())}


class _Arg(NamedTuple):
    """An option ("-n", "--basis") or a positional ("a") of a command.  `read`
    turns its text into its value: a converter, or the tuple of its choices."""
    name: str
    read: Callable[[str], object] | tuple[str, ...] = str
    default: object = None
    required: bool = False
    help: str = ""

    @property
    def dest(self) -> str:
        return self.name.lstrip("-").replace("-", "_")


class _Command(NamedTuple):
    """One level of the command line.  A group (func None) has no positionals:
    its next word names a subcommand, a path of COMMANDS one word longer."""
    func: Callable | None
    help: str
    options: tuple[_Arg, ...] = ()
    positionals: tuple[_Arg, ...] = ()


# a command-line integer is read as a JSON integer literal, ASCII [+-]?[0-9]+:
# int() alone also takes non-ASCII digits, "_" and surrounding spaces
_integer = serialize.decode_int
_INPUT = (_Arg("--file", help="read JSON input from a file (stdin without --file or --inline)"),
          _Arg("--inline", help="JSON input given on the command line"))
_EXCLUSIVE = {"--file": "--inline", "--inline": "--file"}

COMMANDS = {
    (): _Command(None, "Exact arithmetic for non-symmetric unimodular bilinear forms",
                 (_Arg("--output", ("json", "pretty"), "json"),)),
    ("classify",): _Command(cmd_classify, "classify a lattice form by its canonical operator",
                            _INPUT),
    ("mutate",): _Command(cmd_mutate, "apply a braid word to a collection", _INPUT + (
        _Arg("--word", default="", help="mutations L<nu>/R<nu> (nu from 1) and sign flips F<i> "
                                        '(i from 0), applied left to right, like "F0 L1 R2"'),)),
    ("k0",): _Command(None, "projective-space lattice computations"),
    ("k0", "gram"): _Command(cmd_k0_gram, "the Gram matrix of the Euler form on K0(P^n)", (
        _Arg("-n", _integer, required=True, help="the n of P^n"), _Arg("--basis", BASES, "adams"))),
    ("k0", "rank"): _Command(cmd_k0_rank, "the rank of a class given by its series coefficients",
                             _INPUT + (_Arg("-n", _integer, help="truncation order"),)),
    ("k0", "classify"): _Command(cmd_k0_classify, "the Jordan type of kappa on K0(P^n)", (
        _Arg("-n", _integer, required=True, help="the n of P^n"), _Arg("--basis", BASES, "twists"))),
    ("markov",): _Command(cmd_markov, "rank-3 Markov triples", positionals=(
        _Arg("subcmd", ("check", "reduce"), help="test the trace criterion, or reduce to (3,3,3)"),
        _Arg("a", _integer, help="the entries of the triple"), _Arg("b", _integer), _Arg("c", _integer))),
    ("orbit",): _Command(cmd_orbit, "search the mutation orbit of a collection", _INPUT + (
        _Arg("--height-bound", _integer, 100, help="expand no Gram with an entry above this"),
        _Arg("--max-nodes", _integer, 100000, help="cap on the orbit's size"))),
    ("verify",): _Command(cmd_verify, "run invariant suites", (
        _Arg("--suite", tuple(sorted(properties.SUITES)) + ("all",), "all"),
        _Arg("--seed", _integer, 0, help="seed of the draws"))),
}

_HELP = _Arg("-h", help="show this help and exit")
# the option names each level reads, every level with -h and --help
_OPTIONS = {path: {"-h": _HELP, "--help": _HELP, **{a.name: a for a in command.options}}
            for path, command in COMMANDS.items()}
# argparse's test for a token that is a negative number, so an argument
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _mark(token: str, options: dict):
    """What a token is at a level with these options, by argparse's rules: None
    for an argument, else (option name, its value in the token or None), with
    name None for an unknown option."""
    if token[:1] != "-" or token == "-":
        return None
    if token in options:
        return token, None
    name, eq, value = token.partition("=")
    if eq and name in options:
        return name, value
    if token[1] == "-":  # a unique prefix of a long option
        hits = [(o, value if eq else None) for o in options if o.startswith(name)]
    else:  # -nVALUE
        hits = [(token[:2], token[2:])] if token[:2] in options else []
    if len(hits) > 1:
        raise InputFormatError(
            f"ambiguous option: {token} could match {', '.join(o for o, _ in hits)}")
    if hits:
        return hits[0]
    return None if _NEGATIVE.match(token) or " " in token else (None, None)


def _marks(tokens: list[str], options: dict) -> list:
    """The mark of each token; the first "--" is marked "--", and every token
    after it is an argument."""
    marks = []
    for k, token in enumerate(tokens):
        if token == "--":
            return marks + ["--"] + [None] * (len(tokens) - k - 1)
        marks.append(_mark(token, options))
    return marks


def _has_value(marks: list, i: int) -> bool:
    """Whether the option before tokens[i] finds its value there."""
    return i < len(marks) and marks[i] is None


def _take(tokens: list[str], marks: list, i: int):
    """The positional value at tokens[i] and the index after it, a "--" on
    either side of it dropped; None if tokens[i] holds no value."""
    if i < len(marks) and marks[i] == "--":
        i += 1
    if not _has_value(marks, i):
        return None
    return tokens[i], i + 2 if i + 1 < len(marks) and marks[i + 1] == "--" else i + 1


def _store(args, arg: _Arg, text: str):
    if isinstance(arg.read, tuple):
        if text not in arg.read:
            raise InputFormatError(f"argument {arg.name}: invalid choice: {text!r} "
                                   f"(choose from {', '.join(map(repr, arg.read))})")
        value = text
    else:
        try:
            value = arg.read(text)
        except InputFormatError as e:
            raise InputFormatError(f"argument {arg.name}: {e}") from None
    setattr(args, arg.dest, value)


def _read_level(path: tuple, tokens: list[str], args, extras: list[str]):
    """Read the tokens of one level, COMMANDS[path], into args, in order: its
    options, and its positionals or, in a group, the word naming the subcommand
    that reads the tokens after it.  Returns that subcommand's path and tokens,
    or (path, None) at a command.  Unknown tokens go to extras, since a later
    --help still prints its usage."""
    command, options = COMMANDS[path], _OPTIONS[path]
    for arg in command.options + command.positionals:
        setattr(args, arg.dest, arg.default)
    marks = _marks(tokens, options)
    positionals, seen = list(command.positionals), set()
    i = 0
    while i < len(tokens):
        mark = marks[i]
        if isinstance(mark, tuple):
            name, value = mark
            arg = options.get(name)
            if arg is None:
                extras.append(tokens[i])
                i += 1
                continue
            if arg is _HELP:
                # -hXY reads X and Y as more short options, as argparse does, and
                # the usage is printed only if they read
                while value is not None:
                    flag = "-" + value[:1]
                    if name[1] == "-" or flag not in options:
                        raise InputFormatError(
                            f"argument -h/--help: ignored explicit argument {value!r}")
                    name, value = flag, value[1:] or None
                    if options[flag] is not _HELP:
                        if value is None and not _has_value(marks, i + 1):
                            raise InputFormatError(f"argument {flag}: expected one argument")
                        break
                print(_usage(path))
                raise SystemExit(0)
            if value is None:
                if not _has_value(marks, i + 1):
                    raise InputFormatError(f"argument {name}: expected one argument")
                i += 1
                value = tokens[i]
            i += 1
            _store(args, arg, value)
            if _EXCLUSIVE.get(name) in seen:
                raise InputFormatError(
                    f"argument {name}: not allowed with argument {_EXCLUSIVE[name]}")
            seen.add(name)
        elif command.func is None:
            sub = path + (tokens[i],)
            if mark is not None or sub not in COMMANDS:
                choices = ", ".join(repr(p[-1]) for p in COMMANDS if p[:-1] == path and p)
                raise InputFormatError(
                    f"argument command: invalid choice: {tokens[i]!r} (choose from {choices})")
            return sub, tokens[i + 1:]
        else:
            taken = _take(tokens, marks, i) if positionals else None
            if taken is None:
                extras.append(tokens[i])
                i += 1
                continue
            value, i = taken
            _store(args, positionals.pop(0), value)
    missing = ["command"] if command.func is None else \
        [a.name for a in command.options if a.required and a.name not in seen] + \
        [a.name for a in positionals]
    if missing:
        raise InputFormatError(f"the following arguments are required: {', '.join(missing)}")
    return path, None


def _read(argv) -> tuple[Callable, SimpleNamespace]:
    """The command function a command line names, and the arguments it reads."""
    args, extras, path, tokens = SimpleNamespace(), [], (), list(argv)
    while tokens is not None:
        path, tokens = _read_level(path, tokens, args, extras)
    if extras:
        raise InputFormatError(f"unrecognized arguments: {' '.join(extras)}")
    return COMMANDS[path].func, args


def _synopsis(arg: _Arg) -> str:
    """An argument as usage shows it: "-n N", "--basis {adams,...}", "a"."""
    value = "{%s}" % ",".join(arg.read) if isinstance(arg.read, tuple) else arg.dest.upper()
    if arg.name[0] == "-":
        return f"{arg.name} {value}"
    return value if isinstance(arg.read, tuple) else arg.name


def _usage(path: tuple) -> str:
    """The --help text of one level, from its entry in COMMANDS."""
    command = COMMANDS[path]
    subcommands = [p for p in COMMANDS if p[:-1] == path and p]
    words = ["usage: semiortho", *path, "[-h]"]
    words += [_synopsis(a) if a.required else f"[{_synopsis(a)}]" for a in command.options]
    words += [_synopsis(a) for a in command.positionals]
    if subcommands:
        words.append("{%s} ..." % ",".join(p[-1] for p in subcommands))
    rows = [(p[-1], COMMANDS[p].help) for p in subcommands] + [("-h, --help", _HELP.help)]
    rows += [(_synopsis(a), a.help if a.default in (None, "") else
              f"{a.help} (default: {a.default})".lstrip())
             for a in command.options + command.positionals]
    return "\n".join([" ".join(words), "", command.help, ""] +
                     [f"  {name:<24} {text}".rstrip() for name, text in rows])


def main(argv=None) -> int:
    try:
        func, args = _read(sys.argv[1:] if argv is None else argv)
        report = func(args)
        print(serialize.dumps_pretty(report) if args.output == "pretty" else
              serialize.dumps(report))
        sys.stdout.flush()
    except (ValueError, IndexError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except AssertionError as e:
        print(f"property violation: {e}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader of stdout went away (`| head`): what is left unwritten
        # goes to devnull, so the interpreter's last flush raises nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    # a report that records its own check, like verify's, fails with it
    return 2 if isinstance(report, dict) and report.get("passed") is False else 0


if __name__ == "__main__":
    sys.exit(main())
